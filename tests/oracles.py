"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written against raw numpy arrays with
explicit index loops or full-space kron products, so it shares no code
path with the library implementations it checks.  The exceptions are the
references at the end: they rebuild one device state per grid point or
phase with the library's single-state operations (stage states, unitaries,
post-selection, partial trace), the path that the stacked grid kernels and
the one-pass marker analysis replace.
"""

import dataclasses
import functools
import itertools
import math

import numpy as np

from qreality import (
    DensityMatrix,
    ObservableSpec,
    PureState,
    QubitRegister,
    apply_unitary,
    irreality,
    mzi_state,
    partial_trace,
    post_select,
    purity,
    tensor,
    von_neumann_entropy,
)
from qreality.eraser import apply_beam_displacers, build_psi0, evolve_to_psi1


def kron_all(mats):
    return functools.reduce(np.kron, mats)


def embed(op, axis, n):
    mats = [np.eye(2, dtype=complex)] * n
    mats[axis] = op
    return kron_all(mats)


def bits_of(index, n):
    return [(index >> (n - 1 - q)) & 1 for q in range(n)]


def partial_trace_index_sum(rho, n, keep_axes):
    """Reduced matrix by explicit summation over traced-out bitstrings."""
    keep_axes = list(keep_axes)
    traced = [q for q in range(n) if q not in keep_axes]
    k = len(keep_axes)
    out = np.zeros((2**k, 2**k), dtype=complex)
    for r in range(2**k):
        rbits = bits_of(r, k)
        for c in range(2**k):
            cbits = bits_of(c, k)
            for t in range(2 ** len(traced)):
                tbits = bits_of(t, len(traced)) if traced else []
                row = [0] * n
                col = [0] * n
                for axis, b in zip(keep_axes, rbits):
                    row[axis] = b
                for axis, b in zip(keep_axes, cbits):
                    col[axis] = b
                for axis, b in zip(traced, tbits):
                    row[axis] = b
                    col[axis] = b
                i = int("".join(map(str, row)), 2)
                j = int("".join(map(str, col)), 2)
                out[r, c] += rho[i, j]
    return out


def partial_transpose_index_swap(rho, n, axes):
    """Partial transpose by explicit loops: entry (i, j) moves to the index
    pair whose bits at ``axes`` are exchanged between row and column."""
    dim = 2**n
    out = np.zeros_like(rho)
    for i in range(dim):
        for j in range(dim):
            rbits, cbits = bits_of(i, n), bits_of(j, n)
            for axis in axes:
                rbits[axis], cbits[axis] = cbits[axis], rbits[axis]
            out[int("".join(map(str, rbits)), 2), int("".join(map(str, cbits)), 2)] = rho[i, j]
    return out


def wootters_concurrence(rho):
    """Two-qubit concurrence from Wootters' definition (PRL 80, 2245, 1998).

    With the spin-flipped state rho~ = (Y x Y) rho* (Y x Y), the l_i are the
    square roots of the eigenvalues of rho rho~ in decreasing order, and
    C = max(0, l1 - l2 - l3 - l4).  Those eigenvalues are real and
    nonnegative in exact arithmetic; the rounding residue (imaginary parts,
    tiny negatives) is dropped before the square root.  A zero eigenvalue
    that comes out as 1e-17 still adds a root of about 3e-9, so compare
    with a tolerance of 1e-7.
    """
    yy = np.kron(PAULI["Y"], PAULI["Y"])
    flipped = yy @ rho.conj() @ yy
    eigs = np.linalg.eigvals(rho @ flipped)
    lam = np.sort(np.sqrt(np.clip(eigs.real, 0.0, None)))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def dephase_projector_sum(rho, axis, basis, n):
    """Dephasing as sum_k P_k rho P_k with full-space projectors.

    ``basis`` is the 2x2 unitary whose columns are the measured-qubit
    eigenvectors; P_k is the outer product of column k, embedded on qubit
    ``axis`` of ``n`` by a kron product with identities.
    """
    projectors = [embed(np.outer(basis[:, k], basis[:, k].conj()), axis, n) for k in range(2)]
    return sum(p @ rho @ p for p in projectors)


def dephase_block_zero(rho, axis, basis, n):
    """Dephasing by zeroing off-diagonal blocks in the measurement basis.

    ``basis`` is the 2x2 unitary whose columns are the measured-qubit
    eigenvectors.  The state is rotated so that basis becomes computational,
    entries connecting different eigenvalues of the measured qubit are
    zeroed, and the rotation is undone.
    """
    v = embed(basis, axis, n)
    rot = v.conj().T @ rho @ v
    dim = rho.shape[0]
    for i in range(dim):
        for j in range(dim):
            if bits_of(i, n)[axis] != bits_of(j, n)[axis]:
                rot[i, j] = 0.0
    return v @ rot @ v.conj().T


def entropy_bits(mat):
    """-sum p log2 p over eigenvalues, dropping numerical zeros."""
    eigs = np.linalg.eigvalsh(mat)
    p = eigs[eigs > 1e-12]
    return float(-(p * np.log2(p)).sum()) if p.size else 0.0


def binary_entropy_exact(p):
    total = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            total -= q * np.log2(q)
    return total


def projection_probability(psi, projector_full):
    """<psi| P |psi> with an explicitly built full-space projector."""
    return float(np.real(np.vdot(psi, projector_full @ psi)))


def random_pure(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def random_density(rng, n, rank=None):
    dim = 2**n
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    mat = g @ g.conj().T
    return mat / np.trace(mat)


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


EIGENBASIS = {
    "Z": np.eye(2, dtype=complex),
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
}


def simulate_counts_per_setting(rho, shots, seed):
    """Multinomial counts drawn one setting at a time from a single generator.

    Settings follow the product order of "ZXY" per qubit; each setting's
    Born probabilities come from its own eigenvector matrix, clipped at 0
    and normalized.
    """
    n = int(np.log2(len(rho)))
    rng = np.random.default_rng(seed)
    rows = []
    for bases in itertools.product("ZXY", repeat=n):
        v = kron_all([EIGENBASIS[b] for b in bases])
        p = np.clip(np.einsum("io,ij,jo->o", v.conj(), rho, v).real, 0.0, None)
        rows.append(rng.multinomial(shots, p / p.sum()))
    return np.stack(rows)


def one_qubit_datasets(state, shots):
    """Every one-qubit dataset at ``shots`` per setting, with its exact probability.

    ``state`` is a 2x2 density matrix, or the outcome-0 probabilities of the
    three settings in "ZXY" order; a matrix's are p = <v_0| rho |v_0> for
    each setting's first eigenvector.  Returns the ((shots + 1)^3, 3, 2)
    counts, rows in "ZXY" order, and their weights.  A setting's outcome-0
    count k has the binomial weight C(shots, k) p^k (1 - p)^(shots - k); the
    three settings draw independently, so a dataset's weight is the product
    of its three, and the weights sum to 1.
    """
    state = np.asarray(state)
    if state.shape == (2, 2):
        v0s = [EIGENBASIS[basis][:, 0] for basis in "ZXY"]
        state = [np.vdot(v0, state @ v0).real for v0 in v0s]
    ks = range(shots + 1)
    binomials = []
    for p in state:
        p = float(np.clip(p, 0.0, 1.0))
        binomials.append([math.comb(shots, k) * p**k * (1.0 - p) ** (shots - k) for k in ks])
    zero_counts = np.stack(np.meshgrid(ks, ks, ks, indexing="ij"), axis=-1).reshape(-1, 3)
    counts = np.stack([zero_counts, shots - zero_counts], axis=-1)
    weights = functools.reduce(np.multiply.outer, [np.array(b) for b in binomials]).ravel()
    return counts, weights


@functools.lru_cache(maxsize=8)
def _pauli_strings(n):
    """Per non-identity Pauli string on ``n`` qubits: its kron-product
    operator, the settings that measure every qubit of its support in the
    string's own basis (indices in the product order of "ZXY" per qubit),
    and its sign on each outcome.  Built once per ``n``."""
    settings = list(itertools.product("ZXY", repeat=n))
    table = []
    for string in itertools.product("IXYZ", repeat=n):
        support = [q for q in range(n) if string[q] != "I"]
        if not support:
            continue
        matching = [
            s for s, bases in enumerate(settings) if all(bases[q] == string[q] for q in support)
        ]
        signs = np.array([(-1) ** sum(bits_of(o, n)[q] for q in support) for o in range(2**n)], float)
        table.append((kron_all([PAULI[ch] for ch in string]), matching, signs))
    return tuple(table)


def pauli_inversion(freqs, n):
    """Linear inversion with one loop per Pauli string.

    ``freqs`` is one dataset's (3^n, 2^n) rows, in the product order of
    "ZXY" per qubit, or a (..., 3^n, 2^n) stack of them; the estimates come
    back as (..., 2^n, 2^n).  Each expectation is the mean over the settings
    that measure every qubit of the string's support in the string's own
    basis.
    """
    freqs = np.asarray(freqs, dtype=float)
    dim = 2**n
    rho = np.zeros((*freqs.shape[:-2], dim, dim), dtype=complex) + np.eye(dim)
    for op, matching, signs in _pauli_strings(n):
        expectation = np.mean([freqs[..., s, :] @ signs for s in matching], axis=0)
        rho = rho + expectation[..., None, None] * op
    return rho / dim


def sgs_clip(mat):
    """Eigenvalue clipping of one matrix, one eigenvalue at a time."""
    mat = (mat + mat.conj().T) / 2
    mat = mat / np.trace(mat).real
    w, v = np.linalg.eigh(mat)
    lam = list(w[::-1])
    deficit = 0.0
    for i in range(len(lam) - 1, -1, -1):
        if lam[i] + deficit / (i + 1) < 0.0:
            deficit += lam[i]
            lam[i] = 0.0
        else:
            for j in range(i + 1):
                lam[j] += deficit / (i + 1)
            break
    lam = np.array(lam[::-1])
    lam = lam / lam.sum()
    out = v @ np.diag(lam) @ v.conj().T
    return (out + out.conj().T) / 2


def simplex_projection(values):
    """Euclidean projection onto the probability simplex (Duchi et al. 2008)."""
    u = np.sort(values)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, len(u) + 1)
    rho = ks[u - (css - 1.0) / ks > 0][-1]
    theta = (css[rho - 1] - 1.0) / rho
    return np.maximum(values - theta, 0.0)


def monte_carlo_irreality_reference(counts, n, axis, basis, n_resamples, seed):
    """Per-resample Monte Carlo irreality; returns (estimate, std).

    ``counts`` rows follow the product order of "ZXY" per qubit; ``basis``
    columns are the measured qubit's eigenvectors.  The estimate is the
    irreality of the observed counts; the std is over the resamples, each
    of which redraws every setting's row as a multinomial at its observed
    total and observed frequencies, one row after another from a single
    generator seeded with ``seed``.
    """
    counts = np.asarray(counts)

    def irreality_of(rho):
        rho = sgs_clip(rho)
        return entropy_bits(dephase_projector_sum(rho, axis, basis, n)) - entropy_bits(rho)

    rng = np.random.default_rng(seed)
    stack = [counts]
    for _ in range(n_resamples):
        stack.append([rng.multinomial(int(row.sum()), row / row.sum()) for row in counts])
    stack = np.array(stack)
    values = [irreality_of(rho) for rho in pauli_inversion(stack / stack.sum(axis=-1, keepdims=True), n)]
    return values[0], float(np.std(values[1:], ddof=1))


def stage_state(cfg, stage):
    """The six-qubit state at stage 1 (Psi1) or 2 (Psi2) for one theta."""
    psi = evolve_to_psi1(build_psi0(cfg))
    return apply_beam_displacers(psi, cfg) if stage == 2 else psi


def omega_per_theta(cfg, target, *, bob_sign="plus"):
    """Omega state and selection probability of one theta, by two post-selections.

    Alice projects (A, a) on her polarization outcome times |0>_a: |0> or |1>
    under Cz, |+> or |-> under Cx, for the plus or minus branch.  Then Bob
    projects B on |+> (or |->); path targets are read at stage 1, marker
    targets at stage 2.
    """
    z_basis = {"plus": np.array([1.0, 0.0]), "minus": np.array([0.0, 1.0])}
    x_basis = {
        "plus": np.array([1.0, 1.0]) / np.sqrt(2),
        "minus": np.array([1.0, -1.0]) / np.sqrt(2),
    }
    alice = (z_basis if cfg.alice_config == "Cz" else x_basis)[cfg.alice_branch]
    state = stage_state(cfg, 1 if target == "b" else 2)
    state, p_alice = post_select(state, np.kron(alice, [1.0, 0.0]), ("A", "a"))
    state, p_bob = post_select(state, x_basis[bob_sign], ("B",))
    return state.to_density(), p_alice * p_bob


def irreality_per_theta(cfg, target):
    """(irreality, selection probability) of one theta, as the sweep rows were built."""
    omega, prob = omega_per_theta(cfg, target)
    return irreality(omega, ObservableSpec.pauli(target, "Z")).irreality, prob


def detector_probabilities_per_phi(cfg, phis):
    """(p0, p1) per phase from the whole device state at that phase."""
    out = []
    for phi in phis:
        state = mzi_state(dataclasses.replace(cfg, phi=float(phi)), "s3" if cfg.closed else "s2")
        rho = partial_trace(state, ("Q",)).entries
        out.append((float(rho[0, 0].real), float(rho[1, 1].real)))
    return out


MZI_BS = np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2)
MZI_MIRROR = np.array([[0, 1j], [1j, 0]], dtype=complex)
# Q = 0 flips d1, Q = 1 flips d2
MZI_MARKER_WRITE = (
    kron_all([np.diag([1, 0]), PAULI["X"], PAULI["I"]])
    + kron_all([np.diag([0, 1]), PAULI["I"], PAULI["X"]])
)


def mzi_s1_reference(cfg):
    """The device at s1, gate by gate: the probe after the first beam splitter
    (maximally mixed when decohered) and, when extended, the marker pair |11>
    after the marker write."""
    probe_reg = QubitRegister(("Q",))
    if cfg.decohere_after_first_bs:
        probe = DensityMatrix.maximally_mixed(probe_reg)
    else:
        probe = apply_unitary(PureState(probe_reg, [1.0, 0.0]), MZI_BS, ("Q",))
    if not cfg.extended:
        return probe
    markers = PureState.from_bits(QubitRegister(("d1", "d2")), "11")
    return apply_unitary(tensor(probe, markers), MZI_MARKER_WRITE, ("Q", "d1", "d2"))


def extended_report_reference(cfg, detector):
    """The fields of ``extended_output_analysis`` by the single-state chain.

    From the device at s1 (:func:`mzi_s1_reference`), three ``apply_unitary``
    calls (mirrors, phase shifter, second beam splitter; two when open),
    ``post_select`` on the probe, then ``partial_trace`` and
    ``von_neumann_entropy``; the PPT test on an index-loop partial transpose.
    """
    state = mzi_s1_reference(cfg)
    phase = np.diag([1.0, np.exp(1j * cfg.phi)])
    for gate in (MZI_MIRROR, phase, MZI_BS)[: 3 if cfg.closed else 2]:
        state = apply_unitary(state, gate, ("Q",))
    selected, prob = post_select(state, np.eye(2)[detector], ("Q",))
    rho = selected.to_density() if isinstance(selected, PureState) else selected
    s_d1 = von_neumann_entropy(partial_trace(rho, ("d1",)))
    s_d2 = von_neumann_entropy(partial_trace(rho, ("d2",)))
    transposed = partial_transpose_index_swap(rho.entries, 2, [1])
    probe = mzi_s1_reference(dataclasses.replace(cfg, extended=False))
    return {
        "postselected_state": rho,
        "selection_probability": prob,
        "entanglement_entropy": s_d1 if purity(rho) >= 1.0 - 1e-8 else 0.0,
        "mutual_information": s_d1 + s_d2 - von_neumann_entropy(rho),
        "ppt_separable": bool(np.linalg.eigvalsh(transposed).min() >= -1e-10),
        "irreality_sigma_z_at_s1": irreality(probe, ObservableSpec.pauli("Q", "Z")).irreality,
    }
