"""Labeled-qubit states, channels, and post-selection.

The basis-index convention is fixed once, here: the first label of a
register is the most significant bit of the computational-basis index, so
that ket strings read left to right.  On the register ``(b, d1, d2)`` the
ket ``|011>`` is basis index 3.

An observable is one qubit read in one basis: :class:`ObservableSpec`
holds the 2x2 unitary whose columns are its eigenvectors, and nothing
else.  Its dephasing is laid out here alone: :func:`_dephased_blocks`
gives the two diagonal blocks of Phi(rho) in that eigenbasis, which
``measures`` reads for every irreality and :func:`dephasing_map` rotates
back into the computational basis.

Global phase is unobservable; state comparisons go through :func:`fidelity`,
never through amplitude equality.  Every operation is a pure function of
immutable inputs (arrays are defensively copied and marked read-only), so
values can be shared across threads without synchronization.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10
NORM_ATOL = 1e-10
UNITARY_ATOL = 1e-10
ZERO_PROBABILITY_THRESHOLD = 1e-12

# Columns are the +1 and -1 eigenvectors of each Pauli operator (read-only).
_EIGENBASES = {
    "Z": np.eye(2, dtype=complex),
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
}
for _basis in _EIGENBASES.values():
    _basis.flags.writeable = False


class LabelError(ValueError):
    """A subsystem label is unknown, duplicated, or collides."""


class InvalidStateError(ValueError):
    """An array violates the state invariants (norm, trace, Hermiticity, PSD)."""


class ZeroProbabilityError(ValueError):
    """Post-selection on an outcome of numerically zero probability."""


class ConfigurationError(ValueError):
    """A configuration value is inconsistent with the requested operation."""


def _norm(vec: np.ndarray) -> float:
    """2-norm of ``vec``: inf, not an overflow warning, when a square exceeds the float range."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(vec))


def _is_unitary(u: np.ndarray) -> bool:
    """Whether the square matrix ``u`` has U U^dagger = I within UNITARY_ATOL."""
    return np.abs(u @ u.conj().T - np.eye(len(u))).max() <= UNITARY_ATOL


def _finite(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, or InvalidStateError if an entry is NaN or infinite.

    Run before the tolerance checks: an infinity would make the Hermiticity
    subtraction warn rather than fail.  The checks are still written
    ``not x <= tol``, so that a NaN they compute fails them too.
    """
    if not np.isfinite(arr).all():
        raise InvalidStateError("an entry is NaN or infinite")
    return arr


def _hermitian(mat: np.ndarray) -> np.ndarray:
    """``mat`` itself, or InvalidStateError unless it is a nonempty square
    matrix that is Hermitian within HERMITICITY_ATOL."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
        raise InvalidStateError(f"matrix of shape {mat.shape} is not a nonempty square matrix")
    if not np.abs(mat - mat.conj().T).max() <= HERMITICITY_ATOL:
        raise InvalidStateError("matrix is not Hermitian within tolerance")
    return mat


def _label_list(labels: Iterable[str]) -> tuple[str, ...]:
    """``labels`` as a tuple; a bare string is a LabelError, not a list of its characters."""
    if isinstance(labels, str):
        raise LabelError(f"expected a sequence of labels, got the string {labels!r}")
    return tuple(labels)


def _real(value, name: str):
    """``value`` itself, or ConfigurationError unless it is a ``numbers.Real``."""
    if not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} {value!r} is not a real number")
    return value


def _grid(values, name: str) -> np.ndarray:
    """``values`` as a nonempty 1-D float64 array, or ConfigurationError.

    A list, tuple, range, generator or 1-D array of bools, ints or floats is
    read; a float64 array comes back uncopied.  Text, complex numbers, a bare
    number and nested or ragged input are rejected, never cast: a cast would
    parse the text or drop the imaginary part.
    """
    if not isinstance(values, (np.ndarray, str, bytes)):
        try:
            values = np.array(list(values))
        except (TypeError, ValueError):  # not iterable, or ragged: fails the check below
            pass
    if not isinstance(values, np.ndarray) or values.ndim != 1 or values.dtype.kind not in "biuf":
        raise ConfigurationError(f"{name} grid must be a flat sequence of real numbers")
    if not values.size:
        raise ConfigurationError(f"{name} grid must be nonempty")
    return values.astype(np.float64, copy=False)


@dataclass(frozen=True)
class QubitRegister:
    """Ordered collection of named qubits.

    ``labels[0]`` is the most significant bit of the basis index.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(self.labels)
        if isinstance(self.labels, str) or not all(isinstance(lb, str) for lb in labels):
            raise LabelError(f"register labels must be a sequence of strings, got {self.labels!r}")
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise LabelError("register needs at least one label")
        if len(set(labels)) != len(labels):
            raise LabelError(f"duplicate labels in register: {labels}")

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def dimension(self) -> int:
        return 2 ** len(self.labels)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LabelError(f"label {label!r} not in register {self.labels}") from None

    def axes(self, labels: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.axis(lb) for lb in _label_list(labels))

    def subregister(self, labels: Iterable[str]) -> "QubitRegister":
        """Sub-register containing ``labels``, kept in this register's order."""
        wanted = set(_label_list(labels))
        missing = wanted - set(self.labels)
        if missing:
            raise LabelError(f"labels {sorted(missing)} not in register {self.labels}")
        return QubitRegister(tuple(lb for lb in self.labels if lb in wanted))

    def index_of(self, bits: str | Sequence[int]) -> int:
        """Basis index of a bit assignment given in register order.

        Each bit is 0 or 1 as an int, a bool or a character; anything else,
        a float included, is a ValueError rather than a truncation.
        """
        if len(bits) != self.n_qubits:
            raise ValueError(f"expected {self.n_qubits} bits, got {len(bits)}")
        idx = 0
        for b in bits:
            if isinstance(b, str):
                b = {"0": 0, "1": 1}.get(b)
            if not isinstance(b, (numbers.Integral, np.bool_)) or b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            idx = (idx << 1) | int(b)
        return idx


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm state vector over a labeled register; ``==`` is identity."""

    register: QubitRegister
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).ravel()
        if amps.shape != (self.register.dimension,):
            raise InvalidStateError(
                f"amplitude vector has length {amps.size}, register dimension is "
                f"{self.register.dimension}"
            )
        norm = _norm(amps)
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise InvalidStateError(f"state norm {norm} deviates from 1 beyond {NORM_ATOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_bits(cls, register: QubitRegister, bits: str | Sequence[int]) -> "PureState":
        amps = np.zeros(register.dimension, dtype=complex)
        amps[register.index_of(bits)] = 1.0
        return cls(register, amps)

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(self.register, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Trace-one, Hermitian, positive-semidefinite matrix over a labeled register.

    ``eigenvalues`` is the ascending ``eigvalsh`` spectrum of ``entries``
    that the PSD check computed, kept read-only so that measures reading
    the spectrum do not diagonalise the matrix again.  ``==`` is identity.
    """

    register: QubitRegister
    entries: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = _finite(np.array(self.entries, dtype=complex))
        dim = self.register.dimension
        if mat.shape != (dim, dim):
            raise InvalidStateError(f"matrix shape {mat.shape} does not match dimension {dim}")
        _hermitian(mat)
        tr = np.trace(mat)
        if not abs(tr - 1.0) <= TRACE_ATOL:
            raise InvalidStateError(f"trace {tr} deviates from 1 beyond {TRACE_ATOL}")
        eigenvalues = np.linalg.eigvalsh(mat)
        if not eigenvalues.min() >= -PSD_ATOL:
            raise InvalidStateError("matrix has an eigenvalue below the PSD tolerance")
        mat.flags.writeable = False
        eigenvalues.flags.writeable = False
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "eigenvalues", eigenvalues)

    @classmethod
    def maximally_mixed(cls, register: QubitRegister) -> "DensityMatrix":
        dim = register.dimension
        return cls(register, np.eye(dim, dtype=complex) / dim)


State = Union[PureState, DensityMatrix]


@dataclass(frozen=True, eq=False)
class ObservableSpec:
    """Observable on one qubit of a register, given by its eigenbasis.

    ``basis`` is a 2x2 unitary whose columns are the eigenvectors, in the
    order that the dephased blocks of :func:`_dephased_blocks` follow; the
    projector of column k is ``np.outer(basis[:, k], basis[:, k].conj())``.
    A basis from the read-only eigenbasis table (as :meth:`pauli` passes)
    is kept as it is; any other is copied, checked and made read-only.
    ``==`` is identity.
    """

    subsystem: str
    basis: np.ndarray

    def __post_init__(self):
        if any(self.basis is table for table in _EIGENBASES.values()):
            return
        basis = _finite(np.array(self.basis, dtype=complex))
        if basis.shape != (2, 2):
            raise InvalidStateError("basis must be a 2x2 unitary")
        if not _is_unitary(basis):
            raise InvalidStateError("basis is not unitary within tolerance")
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @classmethod
    def pauli(cls, subsystem: str, kind: str) -> "ObservableSpec":
        key = kind.upper() if isinstance(kind, str) else kind
        if not isinstance(key, str) or key not in _EIGENBASES:
            raise ValueError(f"unknown Pauli kind {key!r}")
        return cls(subsystem, _EIGENBASES[key])


def _as_density(state: State) -> DensityMatrix:
    return state.to_density() if isinstance(state, PureState) else state


def tensor(a: State, b: State) -> State:
    """Composite of two states on disjoint registers (labels concatenated)."""
    overlap = set(a.register.labels) & set(b.register.labels)
    if overlap:
        raise LabelError(f"registers share labels {sorted(overlap)}")
    reg = QubitRegister(a.register.labels + b.register.labels)
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(reg, np.kron(a.amplitudes, b.amplitudes))
    da, db = _as_density(a), _as_density(b)
    return DensityMatrix(reg, np.kron(da.entries, db.entries))


def partial_trace(state: State, keep: Iterable[str]) -> DensityMatrix:
    """Reduced state on ``keep``, which stays in the original register order."""
    rho = _as_density(state)
    sub, mat = _partial_trace_entries(rho.entries, rho.register, keep)
    return rho if mat is rho.entries else DensityMatrix(sub, mat)


def _partial_trace_entries(mat: np.ndarray, register: QubitRegister, keep: Iterable[str]):
    """(sub-register, reduced matrix) on ``keep`` of a raw matrix on ``register``.

    The kernel of :func:`partial_trace`, without its validation: the reduced
    matrix is re-Hermitized, and ``mat`` itself comes back when ``keep``
    covers the register.
    """
    keep = _label_list(keep)
    if not keep:
        raise LabelError("keep set must be nonempty")
    sub = register.subregister(keep)
    n = register.n_qubits
    kept_axes = register.axes(sub.labels)
    if len(kept_axes) == n:
        return sub, mat

    t = mat.reshape((2,) * (2 * n))
    row_sub = list(range(n))
    col_sub = [i if i not in kept_axes else n + i for i in range(n)]
    out_sub = [i for i in kept_axes] + [n + i for i in kept_axes]
    reduced = np.einsum(t, row_sub + col_sub, out_sub)
    dim = sub.dimension
    reduced = reduced.reshape(dim, dim)
    return sub, (reduced + reduced.conj().T) / 2


def dephasing_map(state: State, observable: ObservableSpec) -> DensityMatrix:
    """Nonselective measurement channel: sum of P_k rho P_k over the projectors
    onto the columns of ``observable.basis``.

    Built from the two blocks of :func:`_dephased_blocks`, rotated back out
    of the eigenbasis.  Idempotent and trace preserving; the output is
    re-Hermitized to absorb floating-point drift.
    """
    rho = _as_density(state)
    axis = rho.register.axis(observable.subsystem)
    dim = rho.register.dimension
    before, after = 2**axis, dim // 2 ** (axis + 1)
    blocks = _dephased_blocks(rho.entries, axis, observable)
    basis = observable.basis
    out = np.einsum(
        "ik,kbace,jk->biacje", basis, blocks.reshape(2, before, after, before, after), basis.conj()
    ).reshape(dim, dim)
    return DensityMatrix(rho.register, (out + out.conj().T) / 2)


def _dephased_blocks(mats: np.ndarray, axis: int, observable: ObservableSpec) -> np.ndarray:
    """Diagonal blocks of Phi(rho) for a stack of (..., d, d) states; their
    eigenvalues together are those of Phi(rho).

    Block k, of the (..., 2, d/2, d/2) result, is u_k^dagger rho u_k on
    qubit ``axis`` for column k of ``observable.basis``.
    """
    basis = observable.basis
    dim = mats.shape[-1]
    before, after = 2**axis, dim // 2 ** (axis + 1)
    t = mats.reshape(*mats.shape[:-2], before, 2, after, before, 2, after)
    if basis[0, 1] == 0 == basis[1, 0]:  # a diagonal basis needs no rotation
        blocks = np.moveaxis(np.diagonal(t, axis1=-5, axis2=-2), -1, -5)
    else:
        blocks = np.einsum("ik,...biacje,jk->...kbace", basis.conj(), t, basis)
    return blocks.reshape(*mats.shape[:-2], 2, dim // 2, dim // 2)


def _outcome_vector(outcome, m: int) -> np.ndarray:
    vec = np.asarray(outcome, dtype=complex).ravel()
    if vec.shape != (2**m,):
        raise ValueError(f"outcome vector has length {vec.size}, expected {2**m}")
    if not abs(_norm(vec) - 1.0) <= NORM_ATOL:
        raise InvalidStateError("post-selection outcome must be a unit vector")
    return vec


def _label_axes(register: QubitRegister, on: Iterable[str]) -> tuple[tuple, tuple]:
    """The distinct labels ``on`` as a tuple, and their axes in ``register``."""
    on = _label_list(on)
    axes = register.axes(on)
    if len(set(on)) != len(on):
        raise LabelError(f"labels {on} are not distinct")
    return on, axes


def _contract(tensor: np.ndarray, op: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Contract the last len(axes) axes of ``op`` with ``axes`` of ``tensor``.

    The leading axes of ``op`` (one per contracted axis for a gate, none for
    an outcome bra) take the places of the contracted axes; without them the
    contracted axes are gone and the others keep their order.
    """
    k = op.ndim - len(axes)
    moved = np.tensordot(op, tensor, axes=(list(range(k, op.ndim)), list(axes)))
    return np.moveaxis(moved, list(range(k)), list(axes[:k]))


def _act(state: State, op: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """The tensor of ``op`` acting on the qubits at ``axes``: on a ket's
    amplitudes, or on a density matrix's rows and then, with ``op.conj()``,
    its columns."""
    n = state.register.n_qubits
    if isinstance(state, PureState):
        return _contract(state.amplitudes.reshape((2,) * n), op, axes)
    rows = _contract(state.entries.reshape((2,) * (2 * n)), op, axes)
    return _contract(rows, op.conj(), [rows.ndim - n + a for a in axes])


def post_select(state: State, outcome, on: Iterable[str]) -> tuple[State, float]:
    """Condition on a rank-1 outcome over the ``on`` labels and renormalize.

    ``outcome`` is a unit vector of amplitudes over the ``on`` labels in the
    order they are listed.  Returns the normalized conditional state on the
    remaining labels together with the selection probability.  Probabilities
    below the fixed ``ZERO_PROBABILITY_THRESHOLD`` (1e-12) raise
    :class:`ZeroProbabilityError`.
    """
    reg = state.register
    on, axes = _label_axes(reg, on)
    if len(on) >= reg.n_qubits:
        raise LabelError("post-selection must leave at least one label")
    m = len(on)
    vec = _outcome_vector(outcome, m)
    rest = QubitRegister(tuple(lb for lb in reg.labels if lb not in on))
    res = _act(state, vec.conj().reshape((2,) * m), axes)
    if isinstance(state, PureState):
        res = res.ravel()
        prob = float(np.real(np.vdot(res, res)))
    else:
        res = res.reshape(rest.dimension, rest.dimension)
        prob = float(np.real(np.trace(res)))
    if prob < ZERO_PROBABILITY_THRESHOLD:
        raise ZeroProbabilityError(
            f"outcome on {on} has probability {prob:.3e} "
            f"below threshold {ZERO_PROBABILITY_THRESHOLD:.0e}"
        )
    if isinstance(state, PureState):
        return PureState(rest, res / np.sqrt(prob)), prob
    return DensityMatrix(rest, (res + res.conj().T) / 2 / prob), prob


def apply_unitary(state: State, u: np.ndarray, on: Iterable[str]) -> State:
    """Apply a unitary acting on the ``on`` labels (listed order = matrix order)."""
    reg = state.register
    on, axes = _label_axes(reg, on)
    m = len(on)
    u = _finite(np.asarray(u, dtype=complex))
    dim = 2**m
    if u.shape != (dim, dim):
        raise ValueError(f"unitary shape {u.shape} does not match {m} qubits")
    if not _is_unitary(u):
        raise ValueError("matrix is not unitary within tolerance")
    t = _act(state, u.reshape((2,) * (2 * m)), axes)
    if isinstance(state, PureState):
        return PureState(reg, t.ravel())
    mat = t.reshape(reg.dimension, reg.dimension)
    return DensityMatrix(reg, (mat + mat.conj().T) / 2)


# The Pauli matrices (read-only): the blocks of the controlled gates and
# the terms of the tomographic inversion map.
_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
for _matrix in _PAULI.values():
    _matrix.flags.writeable = False


def _controlled(block0: np.ndarray, block1: np.ndarray) -> np.ndarray:
    """Gate on (control, *targets): ``block0`` acts on the targets when the
    control reads 0, ``block1`` when it reads 1."""
    dim = len(block0)
    gate = np.zeros((2 * dim, 2 * dim), dtype=complex)
    gate[:dim, :dim] = block0
    gate[dim:, dim:] = block1
    return gate


def purity(state: State) -> float:
    """Tr(rho^2); equals 1 exactly on pure inputs."""
    rho = _as_density(state)
    return float(np.real(np.vdot(rho.entries, rho.entries)))


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(a: State, b: State) -> float:
    """Uhlmann fidelity, squared convention: equals |<psi|phi>|^2 on pure pairs."""
    if a.register.labels != b.register.labels:
        raise ValueError(
            f"register mismatch: {a.register.labels} vs {b.register.labels}"
        )
    if isinstance(a, PureState) and isinstance(b, PureState):
        return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    if isinstance(a, PureState):
        val = np.real(np.vdot(a.amplitudes, _as_density(b).entries @ a.amplitudes))
        return float(min(max(val, 0.0), 1.0))
    if isinstance(b, PureState):
        return fidelity(b, a)
    sa = _psd_sqrt(a.entries)
    inner = sa @ b.entries @ sa
    lam = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    val = float(np.sqrt(lam).sum() ** 2)
    return min(max(val, 0.0), 1.0)
