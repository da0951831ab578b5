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
        return tuple(self.axis(lb) for lb in labels)

    def subregister(self, labels: Iterable[str]) -> "QubitRegister":
        """Sub-register containing ``labels``, kept in this register's order."""
        wanted = set(labels)
        missing = wanted - set(self.labels)
        if missing:
            raise LabelError(f"labels {sorted(missing)} not in register {self.labels}")
        return QubitRegister(tuple(lb for lb in self.labels if lb in wanted))

    def index_of(self, bits: str | Sequence[int]) -> int:
        """Basis index of a bit assignment given in register order."""
        if len(bits) != self.n_qubits:
            raise ValueError(f"expected {self.n_qubits} bits, got {len(bits)}")
        idx = 0
        for b in bits:
            b = int(b)
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            idx = (idx << 1) | b
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
    ``==`` is identity.
    """

    subsystem: str
    basis: np.ndarray

    def __post_init__(self):
        basis = _finite(np.array(self.basis, dtype=complex))
        if basis.shape != (2, 2):
            raise InvalidStateError("basis must be a 2x2 unitary")
        if not _is_unitary(basis):
            raise InvalidStateError("basis is not unitary within tolerance")
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @classmethod
    def pauli(cls, subsystem: str, kind: str) -> "ObservableSpec":
        kind = kind.upper()
        if kind not in _EIGENBASES:
            raise ValueError(f"unknown Pauli kind {kind!r}")
        return cls(subsystem, _EIGENBASES[kind])


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
    keep = tuple(keep)
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


def post_select(state: State, outcome, on: Iterable[str]) -> tuple[State, float]:
    """Condition on a rank-1 outcome over the ``on`` labels and renormalize.

    ``outcome`` is a unit vector of amplitudes over the ``on`` labels in the
    order they are listed.  Returns the normalized conditional state on the
    remaining labels together with the selection probability.  Probabilities
    below the fixed ``ZERO_PROBABILITY_THRESHOLD`` (1e-12) raise
    :class:`ZeroProbabilityError`.
    """
    on = tuple(on)
    reg = state.register
    axes = reg.axes(on)
    if len(set(on)) != len(on):
        raise LabelError("post-selection labels must be distinct")
    if len(on) >= reg.n_qubits:
        raise LabelError("post-selection must leave at least one label")
    m = len(on)
    n = reg.n_qubits
    vec = _outcome_vector(outcome, m)
    out_t = vec.reshape((2,) * m)
    rest = QubitRegister(tuple(lb for lb in reg.labels if lb not in on))

    if isinstance(state, PureState):
        psi_t = state.amplitudes.reshape((2,) * n)
        res = np.tensordot(out_t.conj(), psi_t, axes=(list(range(m)), list(axes)))
        prob = float(np.real(np.vdot(res, res)))
    else:
        rho_t = state.entries.reshape((2,) * (2 * n))
        row_sub = list(range(n))
        col_sub = [n + i for i in range(n)]
        out_rows = [row_sub[a] for a in axes]
        out_cols = [col_sub[a] for a in axes]
        keep_rows = [row_sub[i] for i in range(n) if i not in axes]
        keep_cols = [col_sub[i] for i in range(n) if i not in axes]
        res = np.einsum(
            rho_t,
            row_sub + col_sub,
            out_t.conj(),
            out_rows,
            out_t,
            out_cols,
            keep_rows + keep_cols,
        ).reshape(rest.dimension, rest.dimension)
        prob = float(np.real(np.trace(res)))
    if prob < ZERO_PROBABILITY_THRESHOLD:
        raise ZeroProbabilityError(
            f"outcome on {on} has probability {prob:.3e} "
            f"below threshold {ZERO_PROBABILITY_THRESHOLD:.0e}"
        )
    if isinstance(state, PureState):
        return PureState(rest, res.ravel() / np.sqrt(prob)), prob
    return DensityMatrix(rest, (res + res.conj().T) / 2 / prob), prob


def apply_unitary(state: State, u: np.ndarray, on: Iterable[str]) -> State:
    """Apply a unitary acting on the ``on`` labels (listed order = matrix order)."""
    on = tuple(on)
    reg = state.register
    axes = reg.axes(on)
    if len(set(on)) != len(on):
        raise LabelError("unitary labels must be distinct")
    m = len(on)
    u = _finite(np.asarray(u, dtype=complex))
    dim = 2**m
    if u.shape != (dim, dim):
        raise ValueError(f"unitary shape {u.shape} does not match {m} qubits")
    if not _is_unitary(u):
        raise ValueError("matrix is not unitary within tolerance")
    u_t = u.reshape((2,) * (2 * m))
    contract = list(range(m, 2 * m))

    def transform(tensor, axes_here, mat_t):
        moved = np.tensordot(mat_t, tensor, axes=(contract, list(axes_here)))
        return np.moveaxis(moved, list(range(m)), list(axes_here))

    n = reg.n_qubits
    if isinstance(state, PureState):
        psi_t = transform(state.amplitudes.reshape((2,) * n), axes, u_t)
        return PureState(reg, psi_t.ravel())
    t = state.entries.reshape((2,) * (2 * n))
    t = transform(t, axes, u_t)
    t = transform(t, tuple(a + n for a in axes), u_t.conj())
    mat = t.reshape(reg.dimension, reg.dimension)
    mat = (mat + mat.conj().T) / 2
    return DensityMatrix(reg, mat)


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
