import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qreality import (
    ConfigurationError,
    ObservableSpec,
    PureState,
    QubitRegister,
    ZeroProbabilityError,
    binary_entropy,
    entanglement_entropy,
    fidelity,
    irreality,
)
from qreality.eraser import (
    OMEGA_REGISTER,
    TARGETS,
    ProtocolConfig,
    apply_beam_displacers,
    build_psi0,
    eraser_register,
    evolve_to_psi1,
    irreality_curve,
    omega_state,
)

from oracles import binary_entropy_exact

BDT_REG = QubitRegister(("b", "d1", "d2"))


def psi1_closed_form(theta):
    """(c|000> + s|111>)_ABb |0>_a |11>_d1d2 assembled by direct indexing."""
    reg = eraser_register()
    amps = np.zeros(64, dtype=complex)
    amps[reg.index_of("000011")] = np.cos(theta / 2)
    amps[reg.index_of("110111")] = np.sin(theta / 2)
    return PureState(reg, amps)


def psi2_closed_form(theta):
    """(c|000>|01> + s|111>|10>)|0>_a assembled by direct indexing."""
    reg = eraser_register()
    amps = np.zeros(64, dtype=complex)
    amps[reg.index_of("000001")] = np.cos(theta / 2)
    amps[reg.index_of("110110")] = np.sin(theta / 2)
    return PureState(reg, amps)


class TestBuildPsi0:
    def test_theta_zero_single_ket(self):
        psi = build_psi0(ProtocolConfig(theta=0.0, alice_config="Cz"))
        expected = PureState.from_bits(eraser_register(), "000011")
        assert fidelity(psi, expected) == pytest.approx(1.0, abs=1e-12)

    def test_theta_half_pi_balanced(self):
        psi = build_psi0(ProtocolConfig(theta=np.pi / 2, alice_config="Cz"))
        reg = eraser_register()
        nz = np.flatnonzero(np.abs(psi.amplitudes) > 1e-12)
        assert set(nz) == {reg.index_of("000011"), reg.index_of("110011")}
        np.testing.assert_allclose(
            psi.amplitudes[nz], [1 / np.sqrt(2)] * 2, atol=1e-12
        )

    def test_theta_third_pi_amplitudes(self):
        psi = build_psi0(ProtocolConfig(theta=np.pi / 3, alice_config="Cz"))
        reg = eraser_register()
        assert psi.amplitudes[reg.index_of("000011")] == pytest.approx(
            np.sqrt(3) / 2, abs=1e-12
        )
        assert psi.amplitudes[reg.index_of("110011")] == pytest.approx(0.5, abs=1e-12)

    def test_two_nonzero_real_amplitudes(self):
        psi = build_psi0(ProtocolConfig(theta=1.234, alice_config="Cx"))
        nz = psi.amplitudes[np.abs(psi.amplitudes) > 1e-12]
        assert nz.size == 2
        np.testing.assert_allclose(nz.imag, 0.0, atol=1e-15)

    def test_invalid_theta_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(theta=4.0, alice_config="Cz")

    def test_unnormalized_bd_settings_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(theta=0.5, alice_config="Cz", bd_settings=(0.5, 0.5, 1.0, 0.0))


    @pytest.mark.parametrize("position", range(4))
    def test_nan_bd_setting_rejected(self, position):
        settings = [0.0, 1.0, 1.0, 0.0]
        settings[position] = float("nan")
        with pytest.raises(ConfigurationError):
            ProtocolConfig(theta=0.5, alice_config="Cz", bd_settings=tuple(settings))

    @pytest.mark.parametrize("position", range(4))
    def test_complex_bd_setting_rejected(self, position):
        # 1j with its partner sqrt(2) passes the normalization check,
        # (1j)^2 + 2 = 1, so only the realness check can catch it
        settings = [0.0, 1.0, 1.0, 0.0]
        settings[position] = 1j
        settings[position ^ 1] = 2**0.5
        with pytest.raises(ConfigurationError, match="not a real number"):
            ProtocolConfig(theta=0.5, alice_config="Cz", bd_settings=tuple(settings))

    @pytest.mark.parametrize("theta", ["a", None, 1j, np.complex128(0.5)])
    def test_theta_that_is_not_a_real_number_is_rejected(self, theta):
        with pytest.raises(ConfigurationError, match=r"^theta .* is not a real number$"):
            ProtocolConfig(theta=theta, alice_config="Cz")

    @pytest.mark.parametrize(
        "bd_settings", [None, 1.0, (), (0.0, 1.0), (0.0, 1.0, 1.0, 0.0, 0.0)]
    )
    def test_bd_settings_of_other_than_four_values_rejected(self, bd_settings):
        message = r"^bd_settings must hold exactly four real amplitudes"
        with pytest.raises(ConfigurationError, match=message):
            ProtocolConfig(theta=0.5, alice_config="Cz", bd_settings=bd_settings)

    @pytest.mark.parametrize(
        "bd_settings", [[0.0, 1.0, 1.0, 0.0], np.array([0.6, 0.8, 1.0, 0.0]), (0, 1, 1, 0)]
    )
    def test_four_real_amplitudes_in_any_sequence_accepted(self, bd_settings):
        cfg = ProtocolConfig(theta=0.5, alice_config="Cz", bd_settings=bd_settings)
        assert cfg.bd_settings is bd_settings

    def test_range_and_normalization_messages_unchanged(self):
        with pytest.raises(ConfigurationError, match=r"^theta 4\.0 outside \[0, pi\]$"):
            ProtocolConfig(theta=4.0, alice_config="Cz")
        with pytest.raises(ConfigurationError, match=r"^displacer 1 amplitudes .* not normalized$"):
            ProtocolConfig(theta=0.5, alice_config="Cz", bd_settings=(0.5, 0.5, 1.0, 0.0))


class TestEvolveToPsi1:
    def test_theta_zero(self):
        cfg = ProtocolConfig(theta=0.0, alice_config="Cz")
        psi1 = evolve_to_psi1(build_psi0(cfg))
        expected = PureState.from_bits(eraser_register(), "000011")
        assert fidelity(psi1, expected) == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form(self):
        for theta in (0.3, np.pi / 2, 2.7):
            cfg = ProtocolConfig(theta=theta, alice_config="Cz")
            psi1 = evolve_to_psi1(build_psi0(cfg))
            assert fidelity(psi1, psi1_closed_form(theta)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_norm_preserved(self, rng):
        for theta in rng.uniform(0, np.pi, size=100):
            cfg = ProtocolConfig(theta=float(theta), alice_config="Cz")
            psi1 = evolve_to_psi1(build_psi0(cfg))
            assert np.linalg.norm(psi1.amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestBeamDisplacers:
    def test_reproduces_stage2_closed_form(self):
        for theta in (0.0, 0.9, np.pi / 2, np.pi):
            cfg = ProtocolConfig(theta=theta, alice_config="Cz")
            psi2 = apply_beam_displacers(evolve_to_psi1(build_psi0(cfg)), cfg)
            assert fidelity(psi2, psi2_closed_form(theta)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_theta_zero_single_branch(self):
        cfg = ProtocolConfig(theta=0.0, alice_config="Cz")
        psi2 = apply_beam_displacers(evolve_to_psi1(build_psi0(cfg)), cfg)
        expected = PureState.from_bits(eraser_register(), "000001")
        assert fidelity(psi2, expected) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_setting_never_flips_d1(self):
        # delta1 = 0 rotates the b=0 arm's polarization fully to vertical,
        # which the first displacer does not deviate, so d1 stays at |1>
        cfg = ProtocolConfig(
            theta=1.1, alice_config="Cz", bd_settings=(1.0, 0.0, 1.0, 0.0)
        )
        psi2 = apply_beam_displacers(evolve_to_psi1(build_psi0(cfg)), cfg)
        reg = eraser_register()
        d1_axis = reg.axis("d1")
        for idx in np.flatnonzero(np.abs(psi2.amplitudes) > 1e-12):
            bits = format(idx, "06b")
            assert bits[d1_axis] == "1"

    def test_general_settings_preserve_norm(self, rng):
        for _ in range(20):
            angle1, angle2 = rng.uniform(0, 2 * np.pi, size=2)
            cfg = ProtocolConfig(
                theta=float(rng.uniform(0, np.pi)),
                alice_config="Cz",
                bd_settings=(
                    float(np.sin(angle1)),
                    float(np.cos(angle1)),
                    float(np.cos(angle2)),
                    float(np.sin(angle2)),
                ),
            )
            psi2 = apply_beam_displacers(evolve_to_psi1(build_psi0(cfg)), cfg)
            assert np.linalg.norm(psi2.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_b0_arm_matches_controlled_map(self):
        # in the b=0 arm the write acts as |0>_B|1>_d1 -> delta1|00> + gamma1|11>
        delta1, gamma1 = 0.6, 0.8
        cfg = ProtocolConfig(
            theta=0.0, alice_config="Cz", bd_settings=(gamma1, delta1, 1.0, 0.0)
        )
        psi2 = apply_beam_displacers(evolve_to_psi1(build_psi0(cfg)), cfg)
        reg = eraser_register()
        expected = np.zeros(64, dtype=complex)
        expected[reg.index_of("000001")] = delta1  # B=0, d1 deviated to 0
        expected[reg.index_of("010011")] = gamma1  # B=1, d1 left at 1
        assert fidelity(psi2, PureState(reg, expected)) == pytest.approx(
            1.0, abs=1e-12
        )


class TestProjections:
    def test_stage1_cz_gives_definite_path(self):
        cfg = ProtocolConfig(theta=0.8, alice_config="Cz")
        omega, prob = omega_state(cfg, "b")
        expected = PureState.from_bits(BDT_REG, "011").to_density()
        assert fidelity(omega, expected) == pytest.approx(1.0, abs=1e-12)
        assert prob == pytest.approx(np.cos(0.4) ** 2 / 2, abs=1e-12)

    def test_stage2_cz_gives_shifted_marker(self):
        cfg = ProtocolConfig(theta=0.8, alice_config="Cz")
        omega, _ = omega_state(cfg, "d1")
        expected = PureState.from_bits(BDT_REG, "001").to_density()
        assert fidelity(omega, expected) == pytest.approx(1.0, abs=1e-12)

    def test_stage2_cx_bell_like(self):
        cfg = ProtocolConfig(theta=np.pi / 2, alice_config="Cx")
        omega, prob = omega_state(cfg, "d1")
        amps = np.zeros(8, dtype=complex)
        amps[BDT_REG.index_of("001")] = 1 / np.sqrt(2)
        amps[BDT_REG.index_of("110")] = 1 / np.sqrt(2)
        assert fidelity(omega, PureState(BDT_REG, amps).to_density()) == pytest.approx(
            1.0, abs=1e-12
        )
        assert prob == pytest.approx(0.25, abs=1e-12)

    def test_minus_branch_sign(self):
        theta = 1.0
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        cfg = ProtocolConfig(theta=theta, alice_config="Cx", alice_branch="minus")
        omega, prob = omega_state(cfg, "d1")
        amps = np.zeros(8, dtype=complex)
        amps[BDT_REG.index_of("001")] = c
        amps[BDT_REG.index_of("110")] = -s
        assert fidelity(omega, PureState(BDT_REG, amps).to_density()) == pytest.approx(
            1.0, abs=1e-12
        )
        assert prob == pytest.approx(0.25, abs=1e-12)

    def test_zero_probability_branch(self):
        # at theta = pi the pair is |11>, so Alice's |0> projection is empty
        cfg = ProtocolConfig(theta=np.pi, alice_config="Cz")
        with pytest.raises(ZeroProbabilityError):
            omega_state(cfg, "b")

    def test_selection_probabilities_sum_to_one(self):
        theta = 1.3
        # path b is read at stage 1, marker d1 at stage 2
        for config, target in (("Cz", "b"), ("Cz", "d1"), ("Cx", "b"), ("Cx", "d1")):
            total = 0.0
            for branch in ("plus", "minus"):
                cfg = ProtocolConfig(
                    theta=theta, alice_config=config, alice_branch=branch
                )
                for bob in ("plus", "minus"):
                    try:
                        _, p = omega_state(cfg, target, bob_sign=bob)
                    except ZeroProbabilityError:
                        p = 0.0
                    total += p
            assert total == pytest.approx(1.0, abs=1e-9)


class TestNoSignalling:
    """Bob's state averaged over Alice's outcomes cannot depend on her choice."""

    @pytest.mark.parametrize("target", ["b", "d1", "d2"])
    @pytest.mark.parametrize("bob", ["plus", "minus"])
    @pytest.mark.parametrize(
        "bd_settings", [(0.0, 1.0, 1.0, 0.0), (0.6, 0.8, 0.28, 0.96)]
    )
    def test_average_over_alice_outcomes_is_the_same_for_cz_and_cx(
        self, target, bob, bd_settings
    ):
        for theta in np.linspace(0.0, np.pi, 9):
            averaged = {}
            for config in ("Cz", "Cx"):
                total = np.zeros((8, 8), dtype=complex)
                for branch in ("plus", "minus"):
                    cfg = ProtocolConfig(theta, config, branch, bd_settings)
                    try:
                        omega, p = omega_state(cfg, target, bob_sign=bob)
                    except ZeroProbabilityError:
                        continue  # this outcome never occurs: weight 0
                    total += p * omega.entries
                averaged[config] = total
            np.testing.assert_allclose(averaged["Cz"], averaged["Cx"], atol=1e-12, rtol=0)


class TestIrrealityCurve:
    def test_endpoints(self):
        cfg = ProtocolConfig(theta=0.0, alice_config="Cx")
        lo, hi = irreality_curve(cfg, "b", [0.0, np.pi / 2]).irreality
        assert lo == pytest.approx(0.0, abs=1e-10)
        assert hi == pytest.approx(1.0, abs=1e-10)

    def test_third_pi_value(self):
        cfg = ProtocolConfig(theta=0.0, alice_config="Cx")
        (value,) = irreality_curve(cfg, "d1", [np.pi / 3]).irreality
        assert value == pytest.approx(
            binary_entropy_exact(0.75), abs=1e-9
        )

    def test_cz_curves_vanish(self):
        cfg = ProtocolConfig(theta=0.0, alice_config="Cz")
        grid = np.linspace(0.0, np.pi / 2, 21)
        for target in ("b", "d1", "d2"):
            for value in irreality_curve(cfg, target, grid).irreality:
                assert abs(value) < 1e-9

    def test_cx_matches_binary_entropy(self):
        cfg = ProtocolConfig(theta=0.0, alice_config="Cx")
        grid = np.linspace(0.0, np.pi / 2, 21)
        curve = irreality_curve(cfg, "b", grid)
        for theta, value in zip(curve.theta, curve.irreality):
            expected = binary_entropy_exact(np.cos(theta / 2) ** 2)
            assert value == pytest.approx(expected, abs=1e-9)

    def test_equality_chain_with_entanglement(self):
        grid = np.linspace(0.0, np.pi / 2, 50)
        cfg = ProtocolConfig(theta=0.0, alice_config="Cx")
        b_curve = irreality_curve(cfg, "b", grid).irreality
        d1_curve = irreality_curve(cfg, "d1", grid).irreality
        d2_curve = irreality_curve(cfg, "d2", grid).irreality
        for theta, rb, r1, r2 in zip(grid, b_curve, d1_curve, d2_curve):
            assert rb == pytest.approx(r1, abs=1e-9)
            assert r1 == pytest.approx(r2, abs=1e-10)
            cfg_t = ProtocolConfig(theta=float(theta), alice_config="Cx")
            omega, _ = omega_state(cfg_t, "d1")
            ee = entanglement_entropy(omega, (("b",), ("d1", "d2")))
            assert r1 == pytest.approx(ee, abs=1e-9)

    def test_plus_minus_branches_agree(self):
        grid = np.linspace(0.0, np.pi / 2, 11)
        plus = irreality_curve(
            ProtocolConfig(theta=0.0, alice_config="Cx", alice_branch="plus"),
            "d1",
            grid,
        )
        minus = irreality_curve(
            ProtocolConfig(theta=0.0, alice_config="Cx", alice_branch="minus"),
            "d1",
            grid,
        )
        for rp, rm in zip(plus.irreality, minus.irreality):
            assert rp == pytest.approx(rm, abs=1e-10)

    def test_mechanism_attribution(self):
        # path irreality is all coherence at stage 1, marker irreality is
        # all discord at stage 2
        theta = 1.1
        cfg = ProtocolConfig(theta=theta, alice_config="Cx")
        omega_b, _ = omega_state(cfg, "b")
        rep_b = irreality(omega_b, ObservableSpec.pauli("b", "Z"))
        assert rep_b.discord == pytest.approx(0.0, abs=1e-9)
        assert rep_b.coherence == pytest.approx(rep_b.irreality, abs=1e-9)
        omega_d, _ = omega_state(cfg, "d1")
        rep_d = irreality(omega_d, ObservableSpec.pauli("d1", "Z"))
        assert rep_d.coherence == pytest.approx(0.0, abs=1e-9)
        assert rep_d.discord == pytest.approx(rep_d.irreality, abs=1e-9)

    @pytest.mark.parametrize(
        "displacer, gamma, measured",
        [
            (1, 0.0, 0.0),
            (1, 0.259, 0.354935),
            (1, 0.5, 0.811278),
            (1, 2**-0.5, 1.0),
            (1, 1.0, 0.0),
            (2, 0.0, 0.0),
            (2, 0.259, 0.354935),
            (2, 0.5, 0.811278),
            (2, 2**-0.5, 1.0),
            (2, 1.0, 0.0),
        ],
    )
    def test_cz_is_zero_only_when_gamma_delta_vanishes(self, displacer, gamma, measured):
        # Cz at theta = pi/2 with displacer k = (gamma, delta): marker d1 on
        # Alice's plus outcome (k = 1) or d2 on her minus outcome (k = 2)
        # reads H(gamma^2); every other target and branch stays real
        delta = float(np.sqrt(1.0 - gamma**2))
        bd = (gamma, delta, 1.0, 0.0) if displacer == 1 else (0.0, 1.0, gamma, delta)
        erased = ("d1", "plus") if displacer == 1 else ("d2", "minus")
        expected = binary_entropy(gamma**2)
        assert expected == pytest.approx(measured, abs=1e-6)
        for target in ("b", "d1", "d2"):
            for branch in ("plus", "minus"):
                cfg = ProtocolConfig(0.0, "Cz", branch, bd)
                (value,) = irreality_curve(cfg, target, [np.pi / 2]).irreality
                want = expected if (target, branch) == erased else 0.0
                assert value == pytest.approx(want, abs=1e-9), (target, branch)

    def test_empty_grid_rejected(self):
        cfg = ProtocolConfig(theta=0.0, alice_config="Cx")
        with pytest.raises(ConfigurationError):
            irreality_curve(cfg, "d1", [])

    @pytest.mark.parametrize(
        "grid",
        [
            0.5, [[0.1, 0.2]], [0.1, 1j], ["a"], np.zeros((2, 2)),
            "01", ["0.5"], np.array(["0.5"]), np.array([0.5 + 2j]), [[0.0], 1.0],
        ],
    )
    def test_unreadable_grid_rejected(self, grid):
        cfg = ProtocolConfig(theta=0.0, alice_config="Cx")
        with pytest.raises(ConfigurationError, match="^theta grid must be a flat sequence"):
            irreality_curve(cfg, "d1", grid)

    def test_list_tuple_range_generator_and_array_give_one_result(self):
        cfg = ProtocolConfig(theta=0.0, alice_config="Cx")
        want = irreality_curve(cfg, "d1", [0.0, 1.0, 2.0, 3.0])
        grids = [
            (0.0, 1.0, 2.0, 3.0), range(4), (float(t) for t in range(4)),
            np.arange(4.0), np.arange(4),
        ]
        for grid in grids:
            got = irreality_curve(cfg, "d1", grid)
            assert [c.tobytes() for c in got] == [c.tobytes() for c in want]

    def test_unknown_target_rejected(self):
        cfg = ProtocolConfig(theta=0.0, alice_config="Cx")
        with pytest.raises(ConfigurationError):
            irreality_curve(cfg, "d3", [0.1])

    def test_target_is_a_qubit_label_only(self):
        # a target is a label of OMEGA_REGISTER; path_b, a name for b, is not one
        cfg = ProtocolConfig(theta=0.3, alice_config="Cx")
        assert TARGETS == OMEGA_REGISTER.labels == ("b", "d1", "d2")
        message = r"^target must be one of \['b', 'd1', 'd2'\]$"
        with pytest.raises(ConfigurationError, match=message):
            irreality_curve(cfg, "path_b", [0.3])
        with pytest.raises(ConfigurationError, match=message):
            omega_state(cfg, "path_b")


# Protocol identities over the whole parameter space: random pair angle theta,
# both displacer angles (displacer k has gamma_k = sin a_k, delta_k = cos a_k),
# target, Alice's branch and Bob's sign.
thetas = st.floats(0.0, float(np.pi))
displacer_angles = st.floats(0.0, float(2 * np.pi))
targets = st.sampled_from(["b", "d1", "d2"])
signs = st.sampled_from(["plus", "minus"])


def bd_settings_at(a1, a2):
    return (float(np.sin(a1)), float(np.cos(a1)), float(np.sin(a2)), float(np.cos(a2)))


@settings(max_examples=100, deadline=None)
@given(theta=thetas, a1=displacer_angles, a2=displacer_angles, target=targets, bob=signs)
def test_no_signalling_property(theta, a1, a2, target, bob):
    # Bob's state weighted over Alice's outcomes does not depend on her basis.
    averaged = {}
    for config in ("Cz", "Cx"):
        total = np.zeros((8, 8), dtype=complex)
        for branch in ("plus", "minus"):
            cfg = ProtocolConfig(theta, config, branch, bd_settings_at(a1, a2))
            try:
                omega, p = omega_state(cfg, target, bob_sign=bob)
            except ZeroProbabilityError:
                continue  # probability below 1e-12: its weighted entries are too
            total += p * omega.entries
        averaged[config] = total
    np.testing.assert_allclose(averaged["Cz"], averaged["Cx"], atol=1e-12, rtol=0)


@settings(max_examples=100, deadline=None)
@given(
    theta=thetas,
    a1=displacer_angles,
    a2=displacer_angles,
    config=st.sampled_from(["Cz", "Cx"]),
    target=targets,
    branch=signs,
    bob=signs,
)
def test_coherence_discord_split_property(theta, a1, a2, config, target, branch, bob):
    cfg = ProtocolConfig(theta, config, branch, bd_settings_at(a1, a2))
    try:
        omega, _ = omega_state(cfg, target, bob_sign=bob)
    except ZeroProbabilityError:
        assume(False)
    rep = irreality(omega, ObservableSpec.pauli(target, "Z"))
    assert rep.irreality == pytest.approx(rep.coherence + rep.discord, abs=1e-12)
    assert rep.coherence >= -1e-12
    assert rep.discord >= -1e-12


@settings(max_examples=100, deadline=None)
@given(a1=displacer_angles, a2=displacer_angles, bob=signs)
# gamma2^2 = 3.2e-14, so H(gamma2^2) = 1.49e-12: an entropy floor above gamma2^2
# drops that eigenvalue and reads 4.6e-14
@example(a1=0.0, a2=1.7946380419457448e-07, bob="plus")
def test_cz_erased_marker_property(a1, a2, bob):
    # Cz at theta = pi/2: d1 on Alice's plus outcome reads H(gamma1^2) and d2
    # on her minus outcome reads H(gamma2^2), whatever the other displacer is.
    bd = bd_settings_at(a1, a2)
    for target, branch, gamma in (("d1", "plus", bd[0]), ("d2", "minus", bd[2])):
        omega, _ = omega_state(ProtocolConfig(np.pi / 2, "Cz", branch, bd), target, bob_sign=bob)
        value = irreality(omega, ObservableSpec.pauli(target, "Z")).irreality
        assert value == pytest.approx(binary_entropy_exact(gamma**2), abs=1e-12)
