"""Mach-Zehnder interferometer with optional path markers on two extra qubits.

The single probe qubit Q carries the spatial mode (|0> horizontal, |1>
vertical).  Stages: s0 input, s1 after the first beam splitter (plus the
marker write in the extended device), s2 after the mirrors and the phase
shifter, s3 after the second beam splitter (closed configuration only).

Conventions: the beam splitter is [[1, i], [i, 1]]/sqrt(2); mirrors swap
the modes and add a factor i; the phase shifter multiplies the |1> arm by
exp(i*phi).  Stage s3 then matches cos(phi/2)|0> + sin(phi/2)|1> up to a
global phase, which no reported probability or measure depends on.

``decohere_after_first_bs`` replaces the s1 probe state by the maximally
mixed qubit before any marker interaction, turning the extended output into
a merely classically correlated marker pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    _PAULI,
    ConfigurationError,
    DensityMatrix,
    ObservableSpec,
    PureState,
    QubitRegister,
    State,
    _as_density,
    _controlled,
    _grid,
    _partial_trace_entries,
    _real,
    apply_unitary,
    purity,
    tensor,
)
from .measures import MIXEDNESS_TOLERANCE, _bipartite_entropies, _partial_transpose, irreality

STAGES = ("s0", "s1", "s2", "s3")

_BS = np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2)
_MIRROR = np.array([[0, 1j], [1j, 0]], dtype=complex)
# the arm-dependent marker flip: Q=0 writes d1, Q=1 writes d2
_MARKER_WRITE = _controlled(np.kron(_PAULI["X"], _PAULI["I"]), np.kron(_PAULI["I"], _PAULI["X"]))

_PPT_TOL = 1e-10
_MARKERS = QubitRegister(("d1", "d2"))


@dataclass(frozen=True)
class MziConfig:
    phi: float
    closed: bool = True
    extended: bool = False
    decohere_after_first_bs: bool = False

    def __post_init__(self):
        if not np.isfinite(_real(self.phi, "phi")):
            raise ConfigurationError("phi must be finite")


def _markers() -> PureState:
    return PureState.from_bits(_MARKERS, "11")


def _input_state(extended: bool) -> PureState:
    probe = PureState(QubitRegister(("Q",)), [1.0, 0.0])
    return tensor(probe, _markers()) if extended else probe


@functools.lru_cache(maxsize=2)
def _s1_probe_irreality(decohere: bool) -> float:
    """Irreality of sigma_z on the probe at s1, which depends on the decohere flag alone."""
    cfg = MziConfig(phi=0.0, decohere_after_first_bs=decohere)
    return irreality(mzi_state(cfg, "s1"), ObservableSpec.pauli("Q", "Z")).irreality


@functools.lru_cache(maxsize=4)
def _s2_density(extended: bool, decohere: bool) -> DensityMatrix:
    """The device at s2 for phi = 0, which ``closed`` does not change, as a
    density matrix; built once per flag pair."""
    cfg = MziConfig(phi=0.0, extended=extended, decohere_after_first_bs=decohere)
    return _as_density(mzi_state(cfg, "s2"))


def _probe_at_s2(cfg: MziConfig) -> np.ndarray:
    """Entries of the probe Q at s2 for phi = 0, the markers traced out."""
    s2 = _s2_density(bool(cfg.extended), bool(cfg.decohere_after_first_bs))
    return _partial_trace_entries(s2.entries, s2.register, ("Q",))[1]


def mzi_state(cfg: MziConfig, stage: str) -> State:
    """State of the device at the requested stage.

    Returns a :class:`PureState` unless ``decohere_after_first_bs`` is set,
    in which case stages s1 and later are density matrices.
    """
    if stage not in STAGES:
        raise ConfigurationError(f"stage must be one of {STAGES}")
    if stage == "s3" and not cfg.closed:
        raise ConfigurationError("stage s3 requires the closed configuration")

    if stage == "s0":
        return _input_state(cfg.extended)

    if cfg.decohere_after_first_bs:
        state = DensityMatrix.maximally_mixed(QubitRegister(("Q",)))
        if cfg.extended:
            state = tensor(state, _markers())
    else:
        state = apply_unitary(_input_state(cfg.extended), _BS, ("Q",))
    if cfg.extended:
        state = apply_unitary(state, _MARKER_WRITE, ("Q", "d1", "d2"))
    if stage == "s1":
        return state

    state = apply_unitary(state, _MIRROR, ("Q",))
    state = apply_unitary(state, np.diag([1, np.exp(1j * cfg.phi)]), ("Q",))  # phase shifter
    if stage == "s2":
        return state

    return apply_unitary(state, _BS, ("Q",))


def detector_probabilities(cfg: MziConfig, phi_grid) -> np.ndarray:
    """Click probabilities over a phase grid, as a (G, 2) array whose columns
    are p0 and p1.

    Closed device: p0 = cos^2(phi/2).  Open device: the detectors see the
    arms directly and p0 = 1/2 for every phase.

    The phase shifter and second beam splitter act on the probe Q alone,
    so the whole grid is diag(V rho_Q V^+) with V = BS P(phi) (closed) or
    P(phi) (open), and rho_Q is the probe at s2 for phi = 0.
    """
    phis = _grid(phi_grid, "phi")
    if not np.isfinite(phis).all():
        raise ConfigurationError("phi must be finite")
    rho_q = _probe_at_s2(cfg)
    shift = np.stack([np.ones_like(phis), np.exp(1j * phis)], axis=-1)  # diag of P(phi)
    bs2 = _BS if cfg.closed else np.eye(2)  # the second beam splitter, if present
    return np.einsum("ki,gi,ij,gj,kj->gk", bs2, shift, rho_q, shift.conj(), bs2.conj()).real


def visibility(cfg: MziConfig) -> float:
    """Fringe visibility (max - min) / (max + min) of p0 over all phases, in
    closed form.

    With rho_Q the probe at s2 for phi = 0, the closed device has
    p0(phi) = tr(rho_Q)/2 + |rho_01| cos(phi + delta), so its visibility is
    2 |rho_01| / tr(rho_Q), the probe's coherence in Englert's duality
    relation: 1 for the coherent, unmarked probe and 0 once markers record
    the path or the probe is decohered.  The open device's p0 is rho_00 at
    every phase, so its visibility is 0.
    """
    if not cfg.closed:
        return 0.0
    rho_q = _probe_at_s2(cfg)
    return float(2 * abs(rho_q[0, 1]) / np.trace(rho_q).real)


@dataclass(frozen=True)
class ExtendedOutputReport:
    """Marker pair left behind after post-selecting one detector.

    ``==`` compares ``postselected_state`` by identity, as
    :class:`DensityMatrix` does.
    """

    postselected_state: DensityMatrix
    selection_probability: float
    entanglement_entropy: float
    mutual_information: float
    ppt_separable: bool
    irreality_sigma_z_at_s1: float


def extended_output_analysis(cfg: MziConfig, *, detector: int = 0) -> ExtendedOutputReport:
    """Post-select a detector and characterize the marker pair (d1, d2).

    A coherent probe leaves the markers entangled (unit entanglement
    entropy); a probe decohered after the first beam splitter leaves only
    the classical mixture of |10> and |01>.

    After the mirrors every gate acts on the probe alone, as in
    :func:`detector_probabilities`: the unnormalized marker block is
    v rho v^+ over the probe indices, with v row ``detector`` of
    BS P(phi) (closed) or P(phi) (open) and rho the device at s2 for
    phi = 0.  Its trace is the selection probability, 1/2 for either
    detector since the markers record the path.  The normalized block is
    validated once, as ``postselected_state``; S(d1 d2) reads the spectrum
    that validation kept, and S(d1), S(d2) and the positive-partial-transpose
    test (tolerance 1e-10) read its entries.
    """
    if not cfg.extended:
        raise ConfigurationError("extended_output_analysis needs extended=True")
    # an integer index: a bool or a float equal to 0 or 1 is not one
    is_index = isinstance(detector, (int, np.integer)) and not isinstance(detector, bool)
    if not (is_index and detector in (0, 1)):
        raise ConfigurationError("detector must be 0 or 1")

    decohere = bool(cfg.decohere_after_first_bs)
    rho = _s2_density(True, decohere).entries  # axes Q, d1, d2
    shift = np.array([1.0, np.exp(1j * cfg.phi)])  # diag of P(phi)
    row = (_BS if cfg.closed else np.eye(2))[detector]  # of the second beam splitter, if present
    block = np.einsum(
        "imjn,i,j,i,j->mn", rho.reshape(2, 4, 2, 4), shift, shift.conj(), row, row.conj()
    )
    prob = float(np.real(np.trace(block)))
    rho_markers = DensityMatrix(_MARKERS, (block + block.conj().T) / 2 / prob)

    s_d1, s_d2, s_pair = _bipartite_entropies(rho_markers, (("d1",), ("d2",)))
    # a mixed marker output carries no pure-state entanglement entropy
    ee = s_d1 if purity(rho_markers) >= 1.0 - MIXEDNESS_TOLERANCE else 0.0
    transposed = _partial_transpose(rho_markers.entries, 2, (1,))

    return ExtendedOutputReport(
        postselected_state=rho_markers,
        selection_probability=prob,
        entanglement_entropy=ee,
        mutual_information=s_d1 + s_d2 - s_pair,
        ppt_separable=bool(np.linalg.eigvalsh(transposed).min() >= -_PPT_TOL),
        irreality_sigma_z_at_s1=_s1_probe_irreality(decohere),
    )
