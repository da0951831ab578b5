"""Entropy-based quantifiers of realism, coherence, and correlations.

All quantities use the base-2 logarithm and are reported in bits.  The
irreality of an observable is the entropy cost of its nonselective
measurement; it vanishes exactly when the dephasing channel leaves the
state invariant, and it splits into a local coherence part plus a
correlation (discord) part.  The dephased state is block diagonal in the
observable's eigenbasis (``ObservableSpec.basis``), so its entropy is
read from the two diagonal blocks of ``core._dephased_blocks``, the same
kernel that ``core.dephasing_map`` rotates back into a full state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import (
    PSD_ATOL,
    DensityMatrix,
    InvalidStateError,
    LabelError,
    ObservableSpec,
    PureState,
    QubitRegister,
    State,
    _as_density,
    _dephased_blocks,
    _finite,
    _hermitian,
    _label_list,
    _partial_trace_entries,
    purity,
)

ENTROPY_EIGENVALUE_FLOOR = 1e-14
MIXEDNESS_TOLERANCE = 1e-8
COMPLEMENTARITY_SLACK = 1e-9


def _eigenvalue_entropies(eigs: np.ndarray) -> np.ndarray:
    """Von Neumann entropies in bits from a (..., d) stack of state eigenvalues."""
    if not np.isfinite(eigs).all():
        raise InvalidStateError("an eigenvalue is not finite; not a valid state")
    if eigs.min() < -PSD_ATOL:
        raise InvalidStateError(
            f"eigenvalue {eigs.min():.3e} below the PSD tolerance; not a valid state"
        )
    # Eigenvalues in [-1e-10, 1e-14) count as exact zeros: 1 in their place adds 1 log 1 = 0.
    # One dropped eigenvalue below the floor f carries at most f log2(1/f) < 5e-13 bits.
    p = np.where(eigs >= ENTROPY_EIGENVALUE_FLOOR, eigs, 1.0)
    return 0.0 - (p * np.log2(p)).sum(axis=-1)  # +0.0, not -0.0, for a pure state


def von_neumann_entropy(state: Union[State, np.ndarray]) -> float:
    """Von Neumann entropy in bits.  Accepts a state, whose validated
    spectrum it reads, or a raw Hermitian matrix: InvalidStateError unless
    the matrix is square and Hermitian within HERMITICITY_ATOL."""
    if isinstance(state, (PureState, DensityMatrix)):
        return float(_eigenvalue_entropies(_as_density(state).eigenvalues))
    return _entropy(_hermitian(_finite(np.asarray(state, dtype=complex))))


def _entropy(mat: np.ndarray) -> float:
    """Von Neumann entropy in bits of a raw Hermitian matrix, unvalidated."""
    return float(_eigenvalue_entropies(np.linalg.eigvalsh(mat)))


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p) for 0 <= p <= 1, with the 0 log 0 = 0
    convention; ValueError for any other p, NaN and non-numbers included."""
    try:
        inside = 0.0 <= p <= 1.0
    except TypeError:  # a string, None or a complex number orders against no float
        inside = False
    if not inside:
        raise ValueError(f"binary entropy needs 0 <= p <= 1, got {p}")
    # 0.0 minus the sum, so that H(0) = H(1) = +0.0 rather than -0.0
    return float(0.0 - sum(q * np.log2(q) for q in (p, 1.0 - p) if q > 0.0))


@dataclass(frozen=True)
class IrrealityReport:
    """Irreality of one observable, split into coherence and discord parts."""

    irreality: float
    coherence: float
    discord: float


def irreality(state: State, observable: ObservableSpec) -> IrrealityReport:
    """Entropy increase under the nonselective measurement of ``observable``.

    The coherence part is the same quantity evaluated on the reduced state
    of the measured subsystem alone (relative entropy of coherence); the
    discord part is the remainder.
    """
    rho = _as_density(state)
    total = float(_irreality_values(rho.entries, rho.register, observable, rho.eigenvalues))
    sub, reduced = _partial_trace_entries(rho.entries, rho.register, (observable.subsystem,))
    local = float(_irreality_values(reduced, sub, observable))
    return IrrealityReport(irreality=total, coherence=local, discord=total - local)


def _irreality_values(
    mats: np.ndarray,
    register: QubitRegister,
    observable: ObservableSpec,
    eigenvalues: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Irreality of ``observable`` for every state in a (..., d, d) stack on
    ``register``; its callers guarantee that d is ``register.dimension``.

    ``eigenvalues``, when given, are those of ``mats`` (a caller that has
    just diagonalised the stack passes them), so S(rho) costs no second
    decomposition.  S(Phi(rho)) comes from the two diagonal blocks of the
    stack in the observable's eigenbasis, where Phi(rho) is block diagonal.
    """
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvalsh(mats)
    blocks = _dephased_blocks(mats, register.axis(observable.subsystem), observable)
    dephased = np.linalg.eigvalsh(blocks).reshape(eigenvalues.shape)
    return _eigenvalue_entropies(dephased) - _eigenvalue_entropies(eigenvalues)


def _split_partition(state: State, partition) -> tuple[tuple[str, ...], tuple[str, ...]]:
    part_a, part_b = _label_list(partition[0]), _label_list(partition[1])
    labels = state.register.labels
    if sorted(part_a + part_b) != sorted(labels) or set(part_a) & set(part_b):
        raise LabelError(
            f"partition {part_a} | {part_b} does not cover register {labels}"
        )
    return part_a, part_b


def mutual_information(state: State, partition) -> float:
    """S(A) + S(B) - S(AB) across a bipartition covering the register."""
    part = _split_partition(state, partition)
    s_a, s_b, s_ab = _bipartite_entropies(_as_density(state), part)
    return s_a + s_b - s_ab


def _bipartite_entropies(rho: DensityMatrix, partition):
    """S(A), S(B) and S(AB) of a validated state, S(AB) from its stored
    spectrum; ``partition`` is (A, B), a checked bipartition of its register.
    Marginals of one size share one stacked eigvalsh."""
    rho_a, rho_b = (_partial_trace_entries(rho.entries, rho.register, p)[1] for p in partition)
    if rho_a.shape == rho_b.shape:
        s_a, s_b = _eigenvalue_entropies(np.linalg.eigvalsh(np.stack([rho_a, rho_b]))).tolist()
    else:
        s_a, s_b = _entropy(rho_a), _entropy(rho_b)
    return s_a, s_b, float(_eigenvalue_entropies(rho.eigenvalues))


def entanglement_entropy(state: State, partition) -> float:
    """Entropy of the reduced state across a bipartition of a pure state."""
    part_a, _ = _split_partition(state, partition)
    if isinstance(state, DensityMatrix) and purity(state) < 1.0 - MIXEDNESS_TOLERANCE:
        raise InvalidStateError(
            f"entanglement entropy needs a pure input; purity is {purity(state):.6f}"
        )
    rho = _as_density(state)
    return _entropy(_partial_trace_entries(rho.entries, rho.register, part_a)[1])


def _partial_transpose(mats: np.ndarray, n: int, axes) -> np.ndarray:
    """Partial transpose on the qubits at ``axes`` of every matrix in a
    (..., 2^n, 2^n) stack: the row and column bits of those qubits swap.

    A two-qubit state is separable exactly when its partial transpose has
    no negative eigenvalue (Peres, PRL 77, 1413, 1996).
    """
    lead = mats.ndim - 2
    order = list(range(lead + 2 * n))
    for a in axes:
        order[lead + a], order[lead + n + a] = lead + n + a, lead + a
    return mats.reshape(*mats.shape[:-2], *(2,) * (2 * n)).transpose(order).reshape(mats.shape)


@dataclass(frozen=True)
class ComplementarityResult:
    lhs: float
    rhs: float
    holds: bool


def complementarity_check(
    state: State, observable: ObservableSpec, other: ObservableSpec
) -> ComplementarityResult:
    """Check irreality(X) + irreality(X') >= correlation bound for two
    observables on the same subsystem, up to ``COMPLEMENTARITY_SLACK``."""
    if observable.subsystem != other.subsystem:
        raise LabelError(
            f"observables act on different subsystems: "
            f"{observable.subsystem!r} vs {other.subsystem!r}"
        )
    lhs = irreality(state, observable).irreality + irreality(state, other).irreality
    rest = tuple(
        lb for lb in state.register.labels if lb != observable.subsystem
    )
    rhs = mutual_information(state, ((observable.subsystem,), rest))
    return ComplementarityResult(lhs=lhs, rhs=rhs, holds=lhs >= rhs - COMPLEMENTARITY_SLACK)
