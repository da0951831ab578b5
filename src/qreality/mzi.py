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
import numbers
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    DensityMatrix,
    ObservableSpec,
    PureState,
    QubitRegister,
    State,
    _as_density,
    _partial_trace_entries,
    apply_unitary,
    purity,
    tensor,
)
from .measures import MIXEDNESS_TOLERANCE, _bipartite_entropies, _partial_transpose, irreality

STAGES = ("s0", "s1", "s2", "s3")

_BS = np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2)
_MIRROR = np.array([[0, 1j], [1j, 0]], dtype=complex)

_PPT_TOL = 1e-10
_MARKERS = QubitRegister(("d1", "d2"))

VISIBILITY_GRID = 256  # phases on [0, 2*pi) that visibility samples


class UndefinedVisibilityError(ValueError):
    """Visibility is undefined because the click probability vanishes."""


@dataclass(frozen=True)
class MziConfig:
    phi: float
    closed: bool = True
    extended: bool = False
    decohere_after_first_bs: bool = False

    def __post_init__(self):
        if not isinstance(self.phi, numbers.Real):
            raise ConfigurationError(f"phi {self.phi!r} is not a real number")
        if not np.isfinite(self.phi):
            raise ConfigurationError("phi must be finite")


def _phases(size: int) -> np.ndarray:
    """``size`` phases evenly spaced on [0, 2*pi): the grid of :func:`visibility`
    and of ``mzi --grid size``."""
    return np.linspace(0.0, 2 * np.pi, size, endpoint=False)


def _marker_write() -> np.ndarray:
    """Arm-dependent marker flip: Q=0 writes d1, Q=1 writes d2."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    gate = np.zeros((8, 8), dtype=complex)
    gate[:4, :4] = np.kron(x, eye2)
    gate[4:, 4:] = np.kron(eye2, x)
    return gate


def _markers() -> PureState:
    return PureState.from_bits(_MARKERS, "11")


def _input_state(extended: bool) -> PureState:
    probe = PureState(QubitRegister(("Q",)), [1.0, 0.0])
    return tensor(probe, _markers()) if extended else probe


@functools.lru_cache(maxsize=4)
def _s1_state(extended: bool, decohere: bool) -> State:
    """The device at s1, before any phase; built once per flag pair."""
    if decohere:
        state = DensityMatrix.maximally_mixed(QubitRegister(("Q",)))
        if extended:
            state = tensor(state, _markers())
    else:
        state = apply_unitary(_input_state(extended), _BS, ("Q",))
    if extended:
        state = apply_unitary(state, _marker_write(), ("Q", "d1", "d2"))
    return state


@functools.lru_cache(maxsize=2)
def _s1_probe_irreality(decohere: bool) -> float:
    """Irreality of sigma_z on the probe at s1, which depends on the decohere flag alone."""
    return irreality(_s1_state(False, decohere), ObservableSpec.pauli("Q", "Z")).irreality


@functools.lru_cache(maxsize=4)
def _s2_density(extended: bool, decohere: bool) -> DensityMatrix:
    """The device at s2 for phi = 0, which ``closed`` does not change, as a
    density matrix; built once per flag pair."""
    cfg = MziConfig(phi=0.0, extended=extended, decohere_after_first_bs=decohere)
    return _as_density(mzi_state(cfg, "s2"))


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

    state = _s1_state(bool(cfg.extended), bool(cfg.decohere_after_first_bs))
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
    phis = np.atleast_1d(np.asarray(phi_grid, dtype=np.float64))  # no copy of a float64 grid
    if phis.ndim != 1:
        raise ConfigurationError("phi grid must be one-dimensional")
    if not phis.size:
        raise ConfigurationError("phi grid must be nonempty")
    if not np.isfinite(phis).all():
        raise ConfigurationError("phi must be finite")
    s2 = _s2_density(bool(cfg.extended), bool(cfg.decohere_after_first_bs))
    rho_q = _partial_trace_entries(s2.entries, s2.register, ("Q",))[1]
    shift = np.stack([np.ones_like(phis), np.exp(1j * phis)], axis=-1)  # diag of P(phi)
    bs2 = _BS if cfg.closed else np.eye(2)  # the second beam splitter, if present
    return np.einsum("ki,gi,ij,gj,kj->gk", bs2, shift, rho_q, shift.conj(), bs2.conj()).real


def visibility(cfg: MziConfig) -> float:
    """(max - min) / (max + min) of p0 over VISIBILITY_GRID phases on [0, 2*pi)."""
    return _visibility(detector_probabilities(cfg, _phases(VISIBILITY_GRID))[:, 0])


def _visibility(p0: np.ndarray) -> float:
    """Visibility of the p0 fringe sampled at the given phases."""
    top, bottom = float(p0.max()), float(p0.min())
    if top + bottom < 1e-15:
        raise UndefinedVisibilityError("click probability vanishes on the whole grid")
    return (top - bottom) / (top + bottom)


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
    if detector not in (0, 1):
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
