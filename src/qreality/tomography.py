"""Simulated projective tomography with shot noise and Monte Carlo error bars.

The measurement scheme is the full set of 3^n Pauli-basis settings (Z, X or
Y per qubit), each recording all 2^n joint outcomes.  Counts are drawn
multinomially from Born probabilities.  Linear inversion over the Pauli basis
is one fixed linear map from the 3^n x 2^n frequencies to the 4^n matrix
entries, built once per n <= MAX_QUBITS, so a stack of estimates takes one
matrix product; physicality is restored by clipping negative eigenvalues and
redistributing the deficit.  Every stochastic step takes an explicit seed and
is bit-reproducible: one generator seeded by the caller draws all counts of
a call, the whole stack of Monte Carlo resamples included.

The single-qubit eigenbases are the Pauli table of :mod:`qreality.core`.
:func:`reconstruct` is the one pipeline for simulated and file data alike, and
the only step that labels an unnamed register q0 ... q{n-1};
:func:`project_to_physical` and :func:`monte_carlo_irreality` take the
register from their caller.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import _EIGENBASES, DensityMatrix, ObservableSpec, QubitRegister, fidelity
from .measures import _irreality_values

SETTING_BASES = ("Z", "X", "Y")

MAX_QUBITS = 4  # the dense inversion map takes 5.3 MB here, 24x more per qubit

MAX_COUNT = int(np.iinfo(np.int64).max)  # counts are stored as int64

# numpy's Poisson draw rejects lam above int64 max - 10 sqrt(int64 max), so
# the Monte Carlo resampling takes observed counts up to this value.
MAX_POISSON_COUNT = int(MAX_COUNT - 10 * np.sqrt(MAX_COUNT))

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


@dataclass(frozen=True)
class MeasurementSetting:
    """Per-qubit basis choice; the joint projectors are rank-1 and complete."""

    bases: tuple[str, ...]

    def __post_init__(self):
        bases = tuple(self.bases)
        object.__setattr__(self, "bases", bases)
        for b in bases:
            if b not in SETTING_BASES:
                raise DatasetFormatError(f"unknown measurement basis {_shown(b)}")

    @property
    def n_qubits(self) -> int:
        return len(self.bases)

    def eigenvector_matrix(self) -> np.ndarray:
        """2^n x 2^n matrix whose columns are the joint-outcome eigenvectors (read-only)."""
        v = functools.reduce(np.kron, (_EIGENBASES[b] for b in self.bases))
        v.flags.writeable = False
        return v

    def projectors(self) -> list[np.ndarray]:
        v = self.eigenvector_matrix()
        return [np.outer(v[:, k], v[:, k].conj()) for k in range(v.shape[1])]


@functools.lru_cache(maxsize=MAX_QUBITS, typed=True)  # typed: 3.0 still raises TypeError
def all_settings(n_qubits: int) -> tuple[MeasurementSetting, ...]:
    """The 3^n settings in a fixed, deterministic order, built once per n."""
    return tuple(
        MeasurementSetting(bases)
        for bases in itertools.product(SETTING_BASES, repeat=n_qubits)
    )


@dataclass(frozen=True)
class TomographyDataset:
    """Counts for every setting, plus the budget and seed that produced them."""

    n_qubits: int
    shots_per_setting: int
    seed: int
    settings: tuple[MeasurementSetting, ...]
    counts: np.ndarray  # shape (n_settings, 2**n_qubits)

    def __post_init__(self):
        counts = np.array(self.counts)
        if counts.shape != (len(self.settings), 2**self.n_qubits):
            raise DatasetFormatError(
                f"counts shape {counts.shape} does not match "
                f"{len(self.settings)} settings x {2**self.n_qubits} outcomes"
            )
        if np.any(counts < 0):
            raise DatasetFormatError("counts must be nonnegative")
        first_index = {}
        for i, setting in enumerate(self.settings):
            j = first_index.setdefault(setting.bases, i)
            if j != i:
                raise DatasetFormatError(
                    f"settings[{i}]: bases {list(setting.bases)} repeat settings[{j}]"
                )
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "settings", tuple(self.settings))


@functools.lru_cache(maxsize=MAX_QUBITS)
def _setting_matrices(n_qubits: int) -> np.ndarray:
    """The (3^n, 2^n, 2^n) eigenvector matrices of :func:`all_settings` (read-only)."""
    stack = np.stack([s.eigenvector_matrix() for s in all_settings(n_qubits)])
    stack.flags.writeable = False
    return stack


def _born(rho: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Outcome probabilities for each eigenvector matrix in ``v`` (..., d, d),
    clipped and normalized."""
    p = np.einsum("...io,ij,...jo->...o", v.conj(), rho, v).real
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


def born_probabilities(rho: DensityMatrix, setting: MeasurementSetting) -> np.ndarray:
    """Outcome probabilities Tr(rho P_k) for one setting, clipped and normalized."""
    return _born(rho.entries, setting.eigenvector_matrix())


def simulate_counts(
    rho: DensityMatrix, shots_per_setting: int, seed: int
) -> TomographyDataset:
    """Multinomial counts for all 3^n settings; identical seeds give identical counts.

    Registers above MAX_QUBITS are rejected: no larger dataset can be
    loaded or reconstructed.
    """
    if shots_per_setting < 1:
        raise ValueError("shots_per_setting must be at least 1")
    n = rho.register.n_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"register has {n} qubits, maximum supported is {MAX_QUBITS}")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots_per_setting, _born(rho.entries, _setting_matrices(n)))
    return TomographyDataset(
        n_qubits=n,
        shots_per_setting=int(shots_per_setting),
        seed=int(seed),
        settings=all_settings(n),
        counts=counts,
    )


def _check_qubit_count(n_qubits: int) -> None:
    if n_qubits > MAX_QUBITS:
        raise DatasetFormatError(
            f"n_qubits: {_shown(n_qubits)} exceeds the maximum of {MAX_QUBITS}"
        )


@functools.lru_cache(maxsize=None)
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


def reconstruct_from_frequencies(freqs: np.ndarray, n_qubits: int) -> np.ndarray:
    """Linear inversion from per-setting outcome frequencies.

    ``freqs`` has shape (..., 3^n, 2^n), rows in :func:`all_settings` order;
    leading axes are a stack of independent estimates.  The identity
    coefficient is fixed to 1, so each estimate has unit trace by
    construction; it may still fail to be positive semidefinite.
    """
    freqs = np.asarray(freqs, dtype=float)
    dim = 2**n_qubits
    if freqs.shape[-2:] != (3**n_qubits, dim):
        raise ValueError(f"frequencies of shape {freqs.shape} do not fit {n_qubits} qubits")
    lead = freqs.shape[:-2]
    flat = (freqs.reshape(*lead, -1) @ _inversion_map(n_qubits)).view(complex)
    return flat.reshape(*lead, dim, dim) + np.eye(dim) / dim


def _frequencies(data: TomographyDataset, counts: np.ndarray) -> np.ndarray:
    """Frequencies in :func:`all_settings` order from counts stacked like ``data.counts``."""
    _check_qubit_count(data.n_qubits)
    expected = all_settings(data.n_qubits)
    by_bases = {s.bases: i for i, s in enumerate(data.settings)}
    missing = [s.bases for s in expected if s.bases not in by_bases]
    if missing:
        raise IncompleteDataError(
            f"dataset is missing {len(missing)} of {len(expected)} settings, "
            f"first missing: {missing[0]}"
        )
    ordered = counts[..., [by_bases[s.bases] for s in expected], :]
    totals = ordered.sum(axis=-1, keepdims=True)
    if np.any(totals == 0):
        raise IncompleteDataError("a setting has zero total counts")
    return ordered / totals


def reconstruct_linear(data: TomographyDataset) -> np.ndarray:
    """Linear-inversion estimate from a complete dataset (possibly non-PSD)."""
    return reconstruct_from_frequencies(_frequencies(data, data.counts), data.n_qubits)


def _project(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue clipping of every matrix in a (..., d, d) stack.

    Each matrix is Hermitized and trace-normalized, then negative eigenvalues
    are zeroed from the most negative up while the deficit is spread evenly
    over the remaining ones, keeping the eigenvectors fixed (Smolin,
    Gambetta and Smith, PRL 108, 070502, 2012).  Returns the (..., d, d)
    states and their (..., d) eigenvalues.
    """
    mat = np.asarray(mats, dtype=complex)
    mat = (mat + mat.conj().swapaxes(-1, -2)) / 2
    tr = np.trace(mat, axis1=-2, axis2=-1).real
    if np.any(np.abs(tr) < 1e-12):
        raise ValueError("matrix has (near-)zero trace; cannot normalize")
    mat = mat / tr[..., None, None]
    w, v = np.linalg.eigh(mat)  # ascending
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
    w_fixed = w_fixed / w_fixed.sum(axis=-1, keepdims=True)  # absorb float drift
    out = (v * w_fixed[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (out + out.conj().swapaxes(-1, -2)) / 2, w_fixed


def project_to_physical(rho_hat: np.ndarray, register: QubitRegister) -> DensityMatrix:
    """Nearest density matrix by eigenvalue clipping and redistribution."""
    return DensityMatrix(register, _project(rho_hat)[0])


def _default_register(n_qubits: int) -> QubitRegister:
    return QubitRegister(tuple(f"q{i}" for i in range(n_qubits)))


def monte_carlo_irreality(
    data: TomographyDataset,
    observable: ObservableSpec,
    n_resamples: int,
    seed: int,
    register: QubitRegister,
) -> tuple[float, float]:
    """Estimate and bootstrap standard deviation of the reconstructed irreality.

    The estimate is the irreality of the state reconstructed from the
    observed counts (plug-in).  The standard deviation is over
    ``n_resamples`` Poisson resamples of those counts (parametric
    bootstrap), all drawn from one generator seeded with ``seed``.  The
    observed counts and the resamples form one stack, which is
    reconstructed, projected to physical states and measured at once.
    """
    if n_resamples < 2:
        raise ValueError("n_resamples must be at least 2")
    stack = np.empty((1 + n_resamples, *data.counts.shape), dtype=np.int64)
    stack[0] = data.counts
    stack[1:] = np.random.default_rng(seed).poisson(data.counts, size=stack[1:].shape)
    # A degenerate resample row (only possible at tiny counts) keeps the
    # observed row rather than dividing by zero.
    empty = np.nonzero(stack.sum(axis=-1) == 0)
    stack[empty] = data.counts[empty[1]]
    rho, eigenvalues = _project(
        reconstruct_from_frequencies(_frequencies(data, stack), data.n_qubits)
    )
    values = _irreality_values(rho, register, observable, eigenvalues)
    return float(values[0]), float(values[1:].std(ddof=1))


@dataclass(frozen=True)
class ReconstructionResult:
    """Linear estimate, its physical projection, and quality diagnostics.

    ``fidelity_to_truth`` is None unless the true state is known.
    """

    rho_linear: np.ndarray
    rho_physical: DensityMatrix
    fidelity_to_truth: Optional[float]
    diagnostics: dict


def reconstruct(
    data: TomographyDataset, register: Optional[QubitRegister] = None
) -> ReconstructionResult:
    """Linear estimate, its physical projection and diagnostics; no fidelity.

    The one reconstruction pipeline for simulated and file datasets alike.
    Without ``register`` the qubits are labelled q0 ... q{n-1}.
    """
    rho_linear = reconstruct_linear(data)
    eigs = np.linalg.eigvalsh((rho_linear + rho_linear.conj().T) / 2)
    register = register or _default_register(data.n_qubits)
    return ReconstructionResult(
        rho_linear=rho_linear,
        rho_physical=project_to_physical(rho_linear, register),
        fidelity_to_truth=None,
        diagnostics={
            "min_eigenvalue_linear": float(eigs.min()),
            "clipped_negative_mass": float(abs(eigs[eigs < 0].sum())),  # 0.0, not -0.0
            "n_settings": len(data.settings),
            "shots_per_setting": data.shots_per_setting,
            "seed": data.seed,
        },
    )


def tomography_end_to_end(rho_true: DensityMatrix, shots: int, seed: int) -> ReconstructionResult:
    """Simulate counts, reconstruct, restore physicality, report fidelity."""
    result = reconstruct(simulate_counts(rho_true, shots, seed), rho_true.register)
    return dataclasses.replace(
        result, fidelity_to_truth=fidelity(result.rho_physical, rho_true)
    )


def dataset_to_dict(data: TomographyDataset) -> dict:
    return {
        "n_qubits": data.n_qubits,
        "shots_per_setting": data.shots_per_setting,
        "seed": data.seed,
        "settings": [
            {"bases": list(s.bases), "counts": [int(c) for c in row]}
            for s, row in zip(data.settings, data.counts)
        ],
    }


def save_dataset(data: TomographyDataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataset_to_dict(data), fh, indent=2)
        fh.write("\n")


class _LongInt(str):
    """The digits of a JSON integer past Python's int-string conversion limit."""


def _is_int(where: str, value) -> bool:
    """Whether ``value`` is an ``int``; a :class:`_LongInt` raises, naming ``where``."""
    if isinstance(value, _LongInt):
        digits = len(value.lstrip("-"))
        raise DatasetFormatError(f"{where}: integer of {digits} digits is too long to convert")
    return type(value) is int


def dataset_from_dict(payload: dict) -> TomographyDataset:
    """Build a dataset from the JSON schema, with field-level diagnostics."""
    if not isinstance(payload, dict):
        raise DatasetFormatError("top-level JSON value must be an object")
    for field in ("n_qubits", "shots_per_setting", "seed", "settings"):
        if field not in payload:
            raise DatasetFormatError(f"missing required field {field!r}")
    n = payload["n_qubits"]
    if not _is_int("n_qubits", n) or n < 1:
        raise DatasetFormatError(f"n_qubits: expected positive integer, got {_shown(n)}")
    _check_qubit_count(n)
    shots = payload["shots_per_setting"]
    if not _is_int("shots_per_setting", shots) or shots < 1:
        raise DatasetFormatError(
            f"shots_per_setting: expected positive integer, got {_shown(shots)}"
        )
    if shots > MAX_COUNT:  # bounds every count too, since a row sums to at most shots
        raise DatasetFormatError(
            f"shots_per_setting: {_shown(shots)} exceeds the maximum of {MAX_COUNT}"
        )
    seed = payload["seed"]
    if not _is_int("seed", seed):
        raise DatasetFormatError(f"seed: expected integer, got {_shown(seed)}")
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
        try:
            setting = MeasurementSetting(tuple(bases))
        except DatasetFormatError as exc:
            raise DatasetFormatError(f"{where}.bases: {exc}") from None
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
        settings.append(setting)
        counts.append(row)

    return TomographyDataset(
        n_qubits=n,
        shots_per_setting=shots,
        seed=seed,
        settings=tuple(settings),
        counts=np.array(counts, dtype=np.int64),
    )


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
