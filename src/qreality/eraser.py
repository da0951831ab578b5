"""Six-qubit optical protocol in which a remote projective choice erases realism.

The register is ``(A, B, a, b, d1, d2)``: Alice's polarization and path,
Bob's polarization and interferometer path, and two auxiliary modes written
by beam displacers inside Bob's Sagnac loop.  A polarization-entangled pair
cos(theta/2)|00> + sin(theta/2)|11> feeds the device.  Stage Psi1 is the
state after the Sagnac's polarizing beam splitter has written B onto b;
stage Psi2 is the state after the beam displacers have written onto d1, d2.

Alice measures her polarization in the Z basis (configuration Cz) or the X
basis (configuration Cx), always with her path on |0>; ``alice_branch`` is
the sign of the eigenvalue she records: "plus" is |0> under Cz and |+>
under Cx, "minus" is |1> under Cz and |-> under Cx.  Bob projects his
polarization onto |+> (or |->).  The conditional state on (b, d1, d2) is an
omega state.  Under Cx its irreality in the path basis, and at the default
displacer settings in either marker basis, equals the binary entropy
H(cos^2(theta/2)).  Under Cz it is zero when gamma1 delta1 = 0 and gamma2
delta2 = 0, as at the default settings; otherwise, at theta = pi/2, marker
d1 reads H(gamma1^2) on Alice's plus outcome and d2 reads H(gamma2^2) on her
minus outcome.  Path b is read at stage Psi1, markers d1 and d2 at stage
Psi2.  No message passes from Alice to Bob, so his state averaged over her
outcomes is the same under Cz and Cx.

Reflection phases inside the loop are dropped (assumed compensated by the
displacer alignment), so all protocol amplitudes are real.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .core import (
    _EIGENBASES,
    _PAULI,
    ZERO_PROBABILITY_THRESHOLD,
    ConfigurationError,
    DensityMatrix,
    PureState,
    QubitRegister,
    ZeroProbabilityError,
    _controlled,
    _grid,
    _real,
    apply_unitary,
)
from .measures import _eigenvalue_entropies

ERASER_LABELS = ("A", "B", "a", "b", "d1", "d2")
OMEGA_REGISTER = QubitRegister(("b", "d1", "d2"))

ALICE_CONFIGS = ("Cz", "Cx")
BRANCH_SIGNS = ("plus", "minus")
TARGETS = OMEGA_REGISTER.labels  # a target is the label of the qubit read

_BD_NORM_ATOL = 1e-10


def eraser_register() -> QubitRegister:
    return QubitRegister(ERASER_LABELS)


def _check_theta(theta) -> None:
    """The pair angle must be a real number in [0, pi], to 1e-12; NaN fails."""
    if not (-1e-12 <= _real(theta, "theta") <= np.pi + 1e-12):
        raise ConfigurationError(f"theta {theta} outside [0, pi]")


@dataclass(frozen=True)
class ProtocolConfig:
    """One run configuration: pair angle, Alice's choice, displacer settings.

    ``bd_settings`` holds the real displacer amplitudes (gamma1, delta1,
    gamma2, delta2); each (delta_k, gamma_k) pair must be normalized.  The
    default (0, 1, 1, 0) is the standard operating point where the first
    displacer deviates horizontal polarization and the second deviates
    vertical polarization with unit amplitude.
    """

    theta: float
    alice_config: str
    alice_branch: str = "plus"
    bd_settings: tuple[float, float, float, float] = (0.0, 1.0, 1.0, 0.0)

    def __post_init__(self):
        _check_theta(self.theta)
        if self.alice_config not in ALICE_CONFIGS:
            raise ConfigurationError(f"alice_config must be one of {ALICE_CONFIGS}")
        if self.alice_branch not in BRANCH_SIGNS:
            raise ConfigurationError(f"alice_branch must be one of {BRANCH_SIGNS}")
        if not hasattr(self.bd_settings, "__len__") or len(self.bd_settings) != 4:
            raise ConfigurationError("bd_settings must hold exactly four real amplitudes")
        for amplitude in self.bd_settings:
            _real(amplitude, "displacer amplitude")
        gamma1, delta1, gamma2, delta2 = self.bd_settings
        for k, (delta, gamma) in enumerate(((delta1, gamma1), (delta2, gamma2)), start=1):
            if not abs(delta**2 + gamma**2 - 1.0) <= _BD_NORM_ATOL:  # NaN fails too
                raise ConfigurationError(
                    f"displacer {k} amplitudes (delta, gamma) = ({delta}, {gamma}) "
                    "are not normalized"
                )


def build_psi0(cfg: ProtocolConfig) -> PureState:
    """Initial state: entangled polarizations, paths at |0>, markers at |11>."""
    reg = eraser_register()
    amps = np.zeros(reg.dimension, dtype=complex)
    amps[reg.index_of("000011")] = np.cos(cfg.theta / 2)
    amps[reg.index_of("110011")] = np.sin(cfg.theta / 2)
    return PureState(reg, amps)


_CNOT = _controlled(_PAULI["I"], _PAULI["X"])


def evolve_to_psi1(psi0: PureState) -> PureState:
    """Sagnac entry: the polarizing beam splitter writes B onto the path b."""
    return apply_unitary(psi0, _CNOT, ("B", "b"))


def apply_beam_displacers(psi1: PureState, cfg: ProtocolConfig) -> PureState:
    """Write the path markers d1, d2.

    The displacer in the b=0 arm rotates B by (delta1, gamma1) and deviates
    the horizontal component into d1=0; the one in the b=1 arm rotates B by
    (delta2, gamma2) and deviates the vertical component into d2=0.  At the
    default settings this flips d1 in the B=0 branch and d2 in the B=1
    branch, leaving the other marker untouched.
    """
    gamma1, delta1, gamma2, delta2 = cfg.bd_settings
    rot1 = np.array([[delta1, -gamma1], [gamma1, delta1]], dtype=complex)
    rot2 = np.array([[gamma2, delta2], [-delta2, gamma2]], dtype=complex)
    # on (B, marker): rotate B, then flip the marker when B = 0 (d1) or B = 1 (d2)
    u1 = _controlled(_PAULI["X"], _PAULI["I"]) @ np.kron(rot1, _PAULI["I"])
    u2 = _controlled(_PAULI["I"], _PAULI["X"]) @ np.kron(rot2, _PAULI["I"])
    eye4 = np.eye(4, dtype=complex)
    state = apply_unitary(psi1, _controlled(u1, eye4), ("b", "B", "d1"))
    return apply_unitary(state, _controlled(eye4, u2), ("b", "B", "d2"))


class IrrealityCurve(NamedTuple):
    """An irreality-versus-theta sweep as columns, one row per grid point.

    ``omega`` is the (T, 8, 8) stack of states on ``OMEGA_REGISTER``.  A row
    with a zero-probability projection (under Cz, the plus branch at theta =
    pi and the minus branch at theta = 0) has no state: its probability is
    0.0, its irreality NaN and its omega the zero matrix, so
    ``probability > 0`` marks the defined rows.
    """

    theta: np.ndarray
    irreality: np.ndarray
    probability: np.ndarray
    omega: np.ndarray


def stage_for_target(target: str) -> int:
    """Path irreality is probed at stage 1 (Psi1), marker irreality at stage 2 (Psi2)."""
    if target not in TARGETS:
        raise ConfigurationError(f"target must be one of {list(TARGETS)}")
    return 1 if target == "b" else 2


def _normalize_rows(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized rows and their squared norms; rows below the threshold become 0."""
    probs = (amps.real**2 + amps.imag**2).sum(axis=-1)
    defined = probs >= ZERO_PROBABILITY_THRESHOLD
    out = np.divide(amps, np.sqrt(probs)[:, None], out=np.zeros_like(amps), where=defined[:, None])
    return out, np.where(defined, probs, 0.0)


@functools.lru_cache(maxsize=64)
def _basis_kets(bd_settings: tuple, stage: int) -> np.ndarray:
    """The basis kets |000011> and |110011> evolved to ``stage`` (1 or 2), read-only.

    Bob's devices never act on Alice's polarization A, so each evolved ket
    stays in its own A block; Alice's configuration does not enter the
    stages.  Axes: A (which ket), B, a, then (b, d1, d2) flattened.  Built
    once per displacer setting and stage.
    """
    cfg = ProtocolConfig(theta=0.0, alice_config="Cz", bd_settings=bd_settings)
    blocks = []
    for a, bits in enumerate(("000011", "110011")):
        psi = evolve_to_psi1(PureState.from_bits(eraser_register(), bits))
        if stage == 2:
            psi = apply_beam_displacers(psi, cfg)
        blocks.append(psi.amplitudes.reshape(2, 32)[a])
    kets = np.stack(blocks).reshape(2, 2, 2, 8)
    kets.flags.writeable = False
    return kets


def _alice_outcome(alice_config: str, alice_branch: str) -> np.ndarray:
    """Alice's outcome vector on (A, a), from the Pauli eigenbases.

    Her polarization is projected on the ``alice_branch`` eigenvector of Z
    (Cz) or X (Cx) and her path on |0>: the Kronecker product of the two,
    bit for bit.
    """
    alice_basis = _EIGENBASES["Z" if alice_config == "Cz" else "X"]
    return (alice_basis[:, BRANCH_SIGNS.index(alice_branch), None] * np.array([1.0, 0.0])).ravel()


def _omega_stack(cfg, configs: tuple, target: str, thetas: np.ndarray, *, bob_sign="plus"):
    """Omega states (C T, 8, 8) and selection probabilities (C T,) over a theta grid.

    ``configs`` lists Alice's configurations (C of them) in row order; ``cfg``
    supplies her branch and the displacer settings.  Rows are config-major:
    the T grid rows of ``configs[0]``, then those of ``configs[1]``.  The
    evolved basis kets (:func:`_basis_kets`), projected on each of Alice's
    outcomes once, give r0, r1, and row t is cos(theta_t/2) r0 +
    sin(theta_t/2) r1, then normalized, projected on Bob's outcome and
    normalized again, as by two :func:`post_select` calls (bit for bit at
    the default displacer settings).  Undefined rows are zero matrices with
    probability 0.
    """
    if bob_sign not in BRANCH_SIGNS:
        raise ConfigurationError(f"bob_sign must be one of {BRANCH_SIGNS}")
    alice = np.stack([_alice_outcome(config, cfg.alice_branch) for config in configs])
    bob_outcome = _EIGENBASES["X"][:, BRANCH_SIGNS.index(bob_sign)]
    kets = _basis_kets(tuple(cfg.bd_settings), stage_for_target(target))
    r = np.einsum("cAa,ABaj->cABj", alice.reshape(-1, 2, 2).conj(), kets)
    amps = np.stack([np.cos(thetas / 2), np.sin(thetas / 2)], axis=-1) @ r.reshape(-1, 2, 16)
    amps, p_alice = _normalize_rows(amps.reshape(-1, 16))
    amps = np.einsum("B,tBj->tj", bob_outcome.conj(), amps.reshape(-1, 2, 8))
    amps, p_bob = _normalize_rows(amps)
    omegas = amps[:, :, None] * amps[:, None, :].conj()
    omegas.flags.writeable = False
    return omegas, p_alice * p_bob


def omega_state(
    cfg: ProtocolConfig, target: str, *, bob_sign: str = "plus"
) -> tuple[DensityMatrix, float]:
    """Omega state and selection probability for the stage probing ``target``.

    The one-point case of :func:`irreality_curve`'s kernel.  Alice's outcome
    is ``cfg.alice_branch``; Bob's is ``bob_sign`` ("plus" for |+>, "minus"
    for |->).  A projection with zero probability raises
    :class:`ZeroProbabilityError`: under Cz the plus branch is undefined at
    theta = pi and the minus branch at theta = 0.
    """
    omegas, probs = _omega_stack(
        cfg, (cfg.alice_config,), target, np.array([cfg.theta]), bob_sign=bob_sign
    )
    if probs[0] == 0.0:
        raise ZeroProbabilityError(f"a projection at theta {cfg.theta} has zero probability")
    return DensityMatrix(OMEGA_REGISTER, omegas[0]), float(probs[0])


def _irreality_curves(cfg, configs: tuple, target: str, thetas: np.ndarray) -> IrrealityCurve:
    """:func:`irreality_curve` for each of Alice's ``configs``, as one stack.

    ``thetas`` is a nonempty float array.  Rows are config-major, as
    :func:`_omega_stack` lays them out, and the theta column repeats the
    grid once per configuration.
    """
    for theta in (thetas.min(), thetas.max()):  # NaN propagates to both ends
        _check_theta(theta)
    omegas, probs = _omega_stack(cfg, configs, target, thetas)  # checks the target
    axis = OMEGA_REGISTER.axis(target)
    diag = np.diagonal(omegas, axis1=-2, axis2=-1).real
    outcome_probs = diag.reshape(len(probs), 2**axis, 2, -1).sum(axis=(1, 3))
    values = np.where(probs > 0.0, _eigenvalue_entropies(outcome_probs), np.nan)
    return IrrealityCurve(np.tile(thetas, len(configs)), values, probs, omegas)


def irreality_curve(
    cfg_template: ProtocolConfig,
    target: str,
    theta_grid: Iterable[float],
) -> IrrealityCurve:
    """Analytic irreality of the chosen degree of freedom over a theta grid.

    The grid is one stack of omega states.  Each is pure, so S(omega) = 0,
    and the Z measurement of the target leaves two nonzero eigenvalues,
    p_k = the total of diag(omega) over the basis states whose target bit
    is k; the irreality is the Shannon entropy of (p_0, p_1).  At the default
    displacer settings the Cx curve is the binary entropy of cos^2(theta/2)
    for every target and the Cz curve is zero (see the module docstring for
    other settings).  Returns one column per quantity; undefined rows are
    described on :class:`IrrealityCurve`.
    """
    thetas = _grid(theta_grid, "theta")
    return _irreality_curves(cfg_template, (cfg_template.alice_config,), target, thetas)
