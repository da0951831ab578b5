"""Simulated projective tomography with shot noise and Monte Carlo error bars.

The measurement scheme is the full set of 3^n Pauli-basis settings, each a
tuple of basis letters (Z, X or Y per qubit) that records all 2^n joint
outcomes.  Counts are drawn multinomially from the (3^n, 2^n) table of Born
probabilities, row k for setting k, and the Monte Carlo bootstrap redraws
each row the same way, at its observed total and observed frequencies.
Linear inversion over the Pauli basis is one fixed linear map from the
3^n x 2^n frequencies to the 4^n matrix entries, built once per
n <= MAX_QUBITS, so a stack of estimates takes one matrix product;
physicality is restored by clipping negative eigenvalues and redistributing
the deficit.  Every stochastic step takes an explicit seed and is
bit-reproducible: one generator seeded by the caller draws all counts of a
call, the whole stack of Monte Carlo resamples included.

The single-qubit eigenbases are the Pauli table of :mod:`qreality.core`.
A :class:`TomographyDataset` carries the register its counts were taken on:
:func:`simulate_counts` records the state's register, and the loader names
a file's qubits q0 ... q{n-1}.  :func:`reconstruct`, the one pipeline for
simulated and file data alike, and :func:`monte_carlo_irreality` read it
from the dataset.  A simulated run's fidelity to its true state is one
``fidelity(result.rho_physical, truth)`` call after :func:`reconstruct`.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass

import numpy as np

from .core import _EIGENBASES, DensityMatrix, ObservableSpec, QubitRegister
from .measures import _irreality_values

SETTING_BASES = ("Z", "X", "Y")

MAX_QUBITS = 4  # the dense inversion map takes 5.3 MB here, 24x more per qubit

MAX_COUNT = int(np.iinfo(np.int64).max)  # counts are stored as int64

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _shown(value) -> str:
    """``repr(value)`` for an error message, cut to 80 characters around "..."."""
    text = repr(value)
    return text if len(text) <= 80 else f"{text[:38]}...{text[-39:]}"


class IncompleteDataError(ValueError):
    """The dataset does not contain every required measurement setting."""


class DatasetFormatError(ValueError):
    """A dataset file or payload is malformed."""


def all_settings(n_qubits: int) -> tuple[tuple[str, ...], ...]:
    """The 3^n settings, each a tuple of per-qubit basis letters, in a fixed order."""
    return tuple(itertools.product(SETTING_BASES, repeat=n_qubits))


class _LongInt(str):
    """The digits of a JSON integer past Python's int-string conversion limit."""


def _is_int(where: str, value) -> bool:
    """Whether ``value`` is an ``int``; a :class:`_LongInt` raises, naming ``where``."""
    if isinstance(value, _LongInt):
        digits = len(value.lstrip("-"))
        raise DatasetFormatError(f"{where}: integer of {digits} digits is too long to convert")
    return type(value) is int


def _check_qubit_count(n_qubits: int) -> None:
    if n_qubits > MAX_QUBITS:
        raise DatasetFormatError(
            f"n_qubits: {_shown(n_qubits)} exceeds the maximum of {MAX_QUBITS}"
        )


def _check_header(n_qubits, shots, seed) -> None:
    """The rules on a dataset's scalar fields, checked in the order of the file's fields."""
    if not _is_int("n_qubits", n_qubits) or n_qubits < 1:
        raise DatasetFormatError(f"n_qubits: expected positive integer, got {_shown(n_qubits)}")
    _check_qubit_count(n_qubits)
    if not _is_int("shots_per_setting", shots) or shots < 1:
        raise DatasetFormatError(
            f"shots_per_setting: expected positive integer, got {_shown(shots)}"
        )
    if shots > MAX_COUNT:  # bounds every count too, since a row sums to at most shots
        raise DatasetFormatError(
            f"shots_per_setting: {_shown(shots)} exceeds the maximum of {MAX_COUNT}"
        )
    if not _is_int("seed", seed):
        raise DatasetFormatError(f"seed: expected integer, got {_shown(seed)}")


@dataclass(frozen=True, eq=False)
class TomographyDataset:
    """Counts for every setting on a named register, plus the budget and
    seed that produced them.

    Row k of ``counts`` holds the 2^n outcome counts of setting k of
    :func:`all_settings`, qubit i measured in letter i of the setting and
    named ``register.labels[i]``.  The counts must have an integer dtype, be
    nonnegative, and sum per row to between 1 and ``shots_per_setting``;
    they are stored as a read-only int64 array.  ``==`` is identity.
    """

    register: QubitRegister
    shots_per_setting: int
    seed: int
    counts: np.ndarray  # shape (3**n_qubits, 2**n_qubits)

    @property
    def n_qubits(self) -> int:
        return self.register.n_qubits

    def __post_init__(self):
        if not isinstance(self.register, QubitRegister):
            raise DatasetFormatError(f"register: expected QubitRegister, got {_shown(self.register)}")
        _check_header(self.n_qubits, self.shots_per_setting, self.seed)
        counts = np.array(self.counts)
        shape = (3**self.n_qubits, 2**self.n_qubits)
        if counts.shape != shape:
            raise DatasetFormatError(
                f"counts shape {counts.shape} does not match "
                f"{shape[0]} settings x {shape[1]} outcomes"
            )
        if not np.issubdtype(counts.dtype, np.integer):
            raise DatasetFormatError(f"counts must be integers, got dtype {counts.dtype}")
        if np.any(counts < 0):
            raise DatasetFormatError("counts must be nonnegative")
        totals = counts.sum(axis=-1, dtype=object)  # Python ints: no int64 wrap
        if min(totals) == 0:
            raise IncompleteDataError("a setting has zero total counts")
        if max(totals) > self.shots_per_setting:
            raise DatasetFormatError(
                f"counts: a row total of {_shown(max(totals))} exceeds "
                f"shots_per_setting {self.shots_per_setting}"
            )
        counts = counts.astype(np.int64, copy=False)  # exact: no count exceeds MAX_COUNT
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)


@functools.lru_cache(maxsize=MAX_QUBITS)
def _setting_matrices(n_qubits: int) -> np.ndarray:
    """The (3^n, 2^n, 2^n) stack of :func:`all_settings`' eigenvector matrices,
    whose columns are the joint outcomes (read-only)."""
    stack = np.stack(
        [
            functools.reduce(np.kron, (_EIGENBASES[b] for b in bases))
            for bases in all_settings(n_qubits)
        ]
    )
    stack.flags.writeable = False
    return stack


def born_probabilities(rho: DensityMatrix) -> np.ndarray:
    """The (3^n, 2^n) table of outcome probabilities Tr(rho P), row k for
    setting k of :func:`all_settings`, each row clipped and normalized.

    Registers above MAX_QUBITS are rejected: no larger dataset can be
    loaded or reconstructed.
    """
    n = rho.register.n_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"register has {n} qubits, maximum supported is {MAX_QUBITS}")
    v = _setting_matrices(n)
    p = np.einsum("...io,ij,...jo->...o", v.conj(), rho.entries, v).real
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


def _index(name: str, value) -> int:
    """``operator.index(value)``, raising ValueError for a non-integer such as 2.5."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name}: expected integer, got {_shown(value)}") from None


def _seed(value) -> int:
    """A generator seed: an integer that numpy's seeding accepts, i.e. nonnegative."""
    seed = _index("seed", value)
    if seed < 0:
        raise ValueError(f"seed: expected nonnegative integer, got {_shown(seed)}")
    return seed


def simulate_counts(
    rho: DensityMatrix, shots_per_setting: int, seed: int
) -> TomographyDataset:
    """Multinomial counts drawn from :func:`born_probabilities`; identical
    seeds give identical counts."""
    shots, seed = _index("shots_per_setting", shots_per_setting), _seed(seed)
    probabilities = born_probabilities(rho)
    # bounds shots before numpy's draw overflows on them
    _check_header(rho.register.n_qubits, shots, seed)
    counts = np.random.default_rng(seed).multinomial(shots, probabilities)
    return TomographyDataset(rho.register, shots, seed, counts)


@functools.lru_cache(maxsize=MAX_QUBITS)
def _inversion_map(n_qubits: int) -> np.ndarray:
    """The (3^n * 2^n, 2 * 4^n) real matrix taking flattened frequencies to
    matrix entries, as interleaved real and imaginary parts.

    Summed over all Pauli strings, the inversion term of setting s and
    outcome o factorizes over qubits into prod_q (I/3 + (-1)^o_q sigma_s_q):
    a qubit outside a string's support contributes I/3, the average over
    its three compatible settings.  The identity string is dropped here,
    since its coefficient is fixed to 1.
    """
    _check_qubit_count(n_qubits)
    local = np.array(
        [[_PAULI["I"] / 3 + sign * _PAULI[b] for sign in (1, -1)] for b in SETTING_BASES]
    )  # (setting, outcome, row, column)
    full = np.ones((1, 1, 1, 1), dtype=complex)
    for _ in range(n_qubits):
        s, o, d, _ = full.shape
        full = np.einsum("soij,tpkl->stopikjl", full, local)
        full = full.reshape(3 * s, 2 * o, 2 * d, 2 * d)
    dim = 2**n_qubits
    full -= np.eye(dim) / 3**n_qubits
    inversion = (full / dim).reshape(-1, dim * dim).view(float)
    inversion.flags.writeable = False
    return inversion


def reconstruct_from_frequencies(freqs: np.ndarray) -> np.ndarray:
    """Linear inversion from per-setting outcome frequencies.

    ``freqs`` has shape (..., 3^n, 2^n) for some n >= 1, rows in
    :func:`all_settings` order; leading axes are a stack of independent
    estimates.  The identity coefficient is fixed to 1, so each estimate has
    unit trace by construction; it may still fail to be positive semidefinite.
    """
    freqs = np.asarray(freqs, dtype=float)
    n = freqs.shape[-1].bit_length() - 1 if freqs.ndim >= 2 else 0
    dim = 2**n
    if n < 1 or freqs.shape[-2:] != (3**n, dim):
        raise ValueError(f"frequencies of shape {freqs.shape} are not (3^n, 2^n) for an n >= 1")
    lead = freqs.shape[:-2]
    flat = (freqs.reshape(*lead, -1) @ _inversion_map(n)).view(complex)
    return flat.reshape(*lead, dim, dim) + np.eye(dim) / dim


def _project(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue clipping of every matrix in a (..., d, d) stack of
    Hermitian matrices.

    Each matrix is trace-normalized, then negative eigenvalues are zeroed
    from the most negative up while the deficit is spread evenly over the
    remaining ones, keeping the eigenvectors fixed (Smolin, Gambetta and
    Smith, PRL 108, 070502, 2012).  Returns the (..., d, d) states and their
    (..., d) eigenvalues, in new arrays: ``mats`` is left as it is.  Linear
    estimates are Hermitian to the bit, as the inversion map's columns for
    entries (i, j) and (j, i) are equal in their real parts and opposite in
    their imaginary parts; :func:`project_to_physical` Hermitizes any other
    input first.
    """
    tr = np.trace(mats, axis1=-2, axis2=-1).real
    if np.any(np.abs(tr) < 1e-12):
        raise ValueError("matrix has (near-)zero trace; cannot normalize")
    w, v = np.linalg.eigh(mats / tr[..., None, None])  # ascending
    # Clipping the k smallest eigenvalues leaves deficit_k = their sum
    # (accumulated smallest first) to spread over the d - k others; the
    # rule stops at the first k whose eigenvalue survives that share.
    dim = w.shape[-1]
    deficit = np.zeros_like(w)
    np.cumsum(w[..., :-1], axis=-1, out=deficit[..., 1:])
    share = deficit / (dim - np.arange(dim))
    k = np.argmin(w + share < 0.0, axis=-1)[..., None]
    kept = np.arange(dim) >= k
    w_fixed = np.where(kept, w + np.take_along_axis(share, k, axis=-1), 0.0)
    w_fixed /= w_fixed.sum(axis=-1, keepdims=True)  # absorb float drift
    out = (v * w_fixed[..., None, :]) @ v.conj().swapaxes(-1, -2)
    out += out.conj().swapaxes(-1, -2)
    out /= 2
    return out, w_fixed


def project_to_physical(rho_hat: np.ndarray, register: QubitRegister) -> DensityMatrix:
    """Nearest density matrix by eigenvalue clipping and redistribution.

    ``rho_hat`` is Hermitized first, so any square matrix of nonzero trace
    is accepted.
    """
    mat = np.asarray(rho_hat, dtype=complex)
    return DensityMatrix(register, _project((mat + mat.conj().swapaxes(-1, -2)) / 2)[0])


# Rows of the Monte Carlo stack drawn and processed together.  A row of the
# 3-qubit omega state holds about 9.7 KiB of temporaries (the int64 draws,
# the frequencies, the linear and projected states, their eigenvectors), so
# a block peaks near 0.6 MiB.  Each block pays the fixed cost of its numpy
# calls again: blocks of 32 rows ran 100 resamples about 10% slower than
# one whole stack, while from 64 rows up the block size made no difference
# beyond the host's noise, at 100 to 10 000 resamples on one BLAS thread.
_BLOCK = 64


def monte_carlo_irreality(
    data: TomographyDataset,
    observable: ObservableSpec,
    n_resamples: int,
    seed: int,
) -> tuple[float, float]:
    """Estimate and bootstrap standard deviation of the reconstructed irreality.

    The estimate is the irreality of the state reconstructed from the
    observed counts (plug-in), on ``data.register``, which names the qubit
    ``observable`` reads.  The standard deviation is over ``n_resamples``
    parametric bootstrap resamples: each setting's row is redrawn as a
    multinomial at its observed total and observed frequencies, all from one
    generator seeded with ``seed``.  The observed frequencies and the
    resamples form a stack of 1 + ``n_resamples`` rows, which is drawn,
    reconstructed, projected to physical states and measured in near-equal
    blocks of at most 64 rows, so memory grows only by the 8 bytes of each
    row's irreality.  The result does not depend on the split.
    """
    n_resamples, seed = _index("n_resamples", n_resamples), _seed(seed)
    if n_resamples < 2:
        raise ValueError("n_resamples must be at least 2")
    # exact in int64: no row total exceeds shots_per_setting
    totals = data.counts.sum(axis=-1, keepdims=True)
    observed = data.counts / totals
    rng = np.random.default_rng(seed)
    rows = 1 + n_resamples
    n_blocks = -(-rows // _BLOCK)
    # every block holds at least rows // n_blocks >= 3 rows: numpy inverts a
    # one-row block by a matrix-vector product, whose bits differ
    bounds = [rows * i // n_blocks for i in range(n_blocks + 1)]
    values = np.empty(rows)
    for start, stop in zip(bounds, bounds[1:]):
        first = int(start == 0)  # block 0 opens with the observed row
        freqs = np.empty((stop - start, *observed.shape))
        freqs[:first] = observed
        draws = rng.multinomial(totals[:, 0], observed, size=(stop - start - first, len(totals)))
        np.divide(draws, totals, out=freqs[first:])
        del draws  # before the inversion allocates
        rho, eigenvalues = _project(reconstruct_from_frequencies(freqs))
        values[start:stop] = _irreality_values(rho, data.register, observable, eigenvalues)
    return float(values[0]), float(values[1:].std(ddof=1))


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Linear estimate, its physical projection, and quality diagnostics.

    The same for simulated and file datasets: a fidelity to a known true
    state is the caller's ``fidelity(result.rho_physical, truth)``.  ``==``
    is identity.
    """

    rho_linear: np.ndarray
    rho_physical: DensityMatrix
    diagnostics: dict


def reconstruct(data: TomographyDataset) -> ReconstructionResult:
    """Linear estimate, its physical projection and diagnostics.

    The one reconstruction pipeline for simulated and file datasets alike.
    The physical state is on ``data.register``.
    """
    freqs = data.counts / data.counts.sum(axis=-1, keepdims=True)
    rho_linear = reconstruct_from_frequencies(freqs)
    eigs = np.linalg.eigvalsh((rho_linear + rho_linear.conj().T) / 2)
    return ReconstructionResult(
        rho_linear=rho_linear,
        rho_physical=project_to_physical(rho_linear, data.register),
        diagnostics={
            "min_eigenvalue_linear": float(eigs.min()),
            "clipped_negative_mass": float(abs(eigs[eigs < 0].sum())),  # 0.0, not -0.0
            "n_settings": len(data.counts),
            "shots_per_setting": data.shots_per_setting,
            "seed": data.seed,
        },
    )


def dataset_to_dict(data: TomographyDataset) -> dict:
    return {
        "n_qubits": data.n_qubits,
        "shots_per_setting": data.shots_per_setting,
        "seed": data.seed,
        "settings": [
            {"bases": list(bases), "counts": [int(c) for c in row]}
            for bases, row in zip(all_settings(data.n_qubits), data.counts)
        ],
    }


def save_dataset(data: TomographyDataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataset_to_dict(data), fh, indent=2)
        fh.write("\n")


def dataset_from_dict(payload: dict) -> TomographyDataset:
    """Build a dataset from the JSON schema, with field-level diagnostics.

    The settings may be listed in any order; they are sorted into
    :func:`all_settings` order, and one left out raises IncompleteDataError.
    The file names no qubits, so they are labelled q0 ... q{n-1}.
    """
    if not isinstance(payload, dict):
        raise DatasetFormatError("top-level JSON value must be an object")
    for field in ("n_qubits", "shots_per_setting", "seed", "settings"):
        if field not in payload:
            raise DatasetFormatError(f"missing required field {field!r}")
    n, shots, seed = (payload[field] for field in ("n_qubits", "shots_per_setting", "seed"))
    _check_header(n, shots, seed)
    raw_settings = payload["settings"]
    if not isinstance(raw_settings, list) or not raw_settings:
        raise DatasetFormatError("settings: expected a nonempty list")

    settings = []
    counts = []
    for i, item in enumerate(raw_settings):
        where = f"settings[{i}]"
        if not isinstance(item, dict):
            raise DatasetFormatError(f"{where}: expected an object")
        bases = item.get("bases")
        if not isinstance(bases, list) or len(bases) != n:
            raise DatasetFormatError(f"{where}.bases: expected {n} basis letters")
        for b in bases:
            if b not in SETTING_BASES:
                raise DatasetFormatError(f"{where}.bases: unknown measurement basis {_shown(b)}")
        row = item.get("counts")
        if not isinstance(row, list) or len(row) != 2**n:
            raise DatasetFormatError(f"{where}.counts: expected {2**n} integers")
        for j, c in enumerate(row):
            if not _is_int(f"{where}.counts[{j}]", c) or c < 0:
                raise DatasetFormatError(
                    f"{where}.counts[{j}]: expected nonnegative integer, got {_shown(c)}"
                )
        if sum(row) > shots:
            raise DatasetFormatError(
                f"{where}.counts: total {_shown(sum(row))} exceeds shots_per_setting {shots}"
            )
        settings.append(tuple(bases))
        counts.append(row)

    first_index = {}
    for i, bases in enumerate(settings):
        j = first_index.setdefault(bases, i)
        if j != i:
            raise DatasetFormatError(f"settings[{i}]: bases {list(bases)} repeat settings[{j}]")
    expected = all_settings(n)
    missing = [bases for bases in expected if bases not in first_index]
    if missing:
        raise IncompleteDataError(
            f"dataset is missing {len(missing)} of {len(expected)} settings, "
            f"first missing: {missing[0]}"
        )
    rows = [counts[first_index[bases]] for bases in expected]
    register = QubitRegister(tuple(f"q{i}" for i in range(n)))
    return TomographyDataset(register, shots, seed, np.array(rows, dtype=np.int64))


def load_dataset(path) -> TomographyDataset:
    too_long = []

    def parse_int(digits: str):
        # past Python's digit limit, keep the digits, so that the field
        # checks of dataset_from_dict name the field the integer is in
        try:
            return int(digits)
        except ValueError:
            too_long.append(_LongInt(digits))
            return too_long[-1]

    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh, parse_int=parse_int)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(
                f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
        except RecursionError:
            raise DatasetFormatError("invalid JSON: nested too deeply") from None
    data = dataset_from_dict(payload)
    if too_long:  # only in fields that dataset_from_dict does not read
        _is_int("a field the dataset does not use", too_long[0])
    return data
