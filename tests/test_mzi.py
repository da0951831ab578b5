import itertools

import numpy as np
import pytest

import qreality.core
import qreality.mzi
from qreality import (
    ConfigurationError,
    DensityMatrix,
    MziConfig,
    PureState,
    QubitRegister,
    detector_probabilities,
    extended_output_analysis,
    fidelity,
    mzi_state,
    visibility,
)
from qreality.core import _partial_trace_entries, purity
from qreality.measures import _bipartite_entropies, _eigenvalue_entropies

from oracles import detector_probabilities_per_phi, extended_report_reference

MARKER_REG = QubitRegister(("d1", "d2"))
EXTENDED_CONFIGS = [
    {"closed": closed, "decohere_after_first_bs": decohere}
    for closed in (True, False)
    for decohere in (False, True)
]
REPORT_PHIS = [
    0.0, np.pi / 2, np.pi, 2 * np.pi - 1e-9, *np.random.default_rng(1414).uniform(0, 2 * np.pi, 5)
]
MARKER_PHIS = [*REPORT_PHIS, -0.0, 1e308, *np.linspace(0, 2 * np.pi, 50, endpoint=False)]


def phi_plus(phi):
    amps = np.zeros(4, dtype=complex)
    amps[MARKER_REG.index_of("10")] = 1 / np.sqrt(2)
    amps[MARKER_REG.index_of("01")] = np.exp(1j * phi) / np.sqrt(2)
    return PureState(MARKER_REG, amps)


class TestStages:
    def test_s1_exact_amplitudes(self):
        state = mzi_state(MziConfig(phi=0.3), "s1")
        np.testing.assert_allclose(
            state.amplitudes, np.array([1, 1j]) / np.sqrt(2), atol=1e-12
        )

    def test_s2_exact_amplitudes(self):
        phi = 1.3
        state = mzi_state(MziConfig(phi=phi), "s2")
        expected = np.array([-1, 1j * np.exp(1j * phi)]) / np.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_s3_matches_cos_sin_form(self):
        reg = QubitRegister(("Q",))
        for phi in (0.0, 0.7, np.pi / 2, np.pi, 5.0):
            state = mzi_state(MziConfig(phi=phi), "s3")
            expected = PureState(reg, [np.cos(phi / 2), np.sin(phi / 2)])
            assert fidelity(state, expected) == pytest.approx(1.0, abs=1e-12)

    def test_s3_at_zero_phase_exits_to_detector_zero(self):
        state = mzi_state(MziConfig(phi=0.0), "s3")
        expected = PureState.from_bits(QubitRegister(("Q",)), "0")
        assert fidelity(state, expected) == pytest.approx(1.0, abs=1e-12)

    def test_s3_requires_closed(self):
        with pytest.raises(ConfigurationError):
            mzi_state(MziConfig(phi=0.0, closed=False), "s3")

    def test_extended_s1_marker_write(self):
        state = mzi_state(MziConfig(phi=0.0, extended=True), "s1")
        reg = state.register
        amps = np.zeros(8, dtype=complex)
        amps[reg.index_of("001")] = 1 / np.sqrt(2)   # Q=0 writes d1
        amps[reg.index_of("110")] = 1j / np.sqrt(2)  # Q=1 writes d2
        expected = PureState(reg, amps)
        assert fidelity(state, expected) == pytest.approx(1.0, abs=1e-12)

    def test_decohered_s1_is_maximally_mixed_probe(self):
        state = mzi_state(MziConfig(phi=0.0, decohere_after_first_bs=True), "s1")
        assert isinstance(state, DensityMatrix)
        np.testing.assert_allclose(state.entries, np.eye(2) / 2, atol=1e-12)

    def test_global_phase_does_not_affect_probabilities(self, rng):
        cfg = MziConfig(phi=0.9)
        base = detector_probabilities(cfg, [0.9])[0]
        state = mzi_state(cfg, "s3")
        for _ in range(5):
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            rotated = PureState(state.register, phase * state.amplitudes)
            p0 = float(np.abs(rotated.amplitudes[0]) ** 2)
            assert p0 == pytest.approx(base[0], abs=1e-12)


class TestMziConfig:
    @pytest.mark.parametrize("phi", [1j, 0.5 + 0j, np.complex128(0.0), None, "0.5"])
    def test_phi_that_is_not_a_real_number_is_rejected(self, phi):
        with pytest.raises(ConfigurationError, match=r"^phi .* is not a real number$"):
            MziConfig(phi=phi, extended=True)

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    def test_non_finite_phi_is_rejected(self, phi):
        with pytest.raises(ConfigurationError, match="^phi must be finite$"):
            MziConfig(phi=phi)

    @pytest.mark.parametrize("phi", [0, 1.3, -0.0, np.float64(0.4), np.float32(0.5), np.int64(2)])
    def test_real_phi_is_accepted(self, phi):
        assert MziConfig(phi=phi, extended=True).phi is phi


class TestDetectorProbabilities:
    def test_closed_interference_fringe(self):
        grid = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        for phi, (p0, p1) in zip(grid, detector_probabilities(MziConfig(phi=0.0), grid)):
            assert p0 == pytest.approx(np.cos(phi / 2) ** 2, abs=1e-12)
            assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_closed_at_pi_all_in_detector_one(self):
        (p0, p1), = detector_probabilities(MziConfig(phi=np.pi), [np.pi])
        assert p0 == pytest.approx(0.0, abs=1e-12)
        assert p1 == pytest.approx(1.0, abs=1e-12)

    def test_open_configuration_flat(self):
        cfg = MziConfig(phi=0.0, closed=False)
        for p0, p1 in detector_probabilities(cfg, [0.0, np.pi / 3, 2.2]):
            assert p0 == pytest.approx(0.5, abs=1e-12)
            assert p1 == pytest.approx(0.5, abs=1e-12)

    def test_balanced_point(self):
        (p0, p1), = detector_probabilities(MziConfig(phi=np.pi / 2), [np.pi / 2])
        assert p0 == pytest.approx(0.5, abs=1e-12)

    def test_float_array_list_and_int_array_give_one_result(self):
        ints = np.arange(-3, 9)
        floats = ints.astype(float)
        floats.flags.writeable = False  # a read-only grid is used as it is
        for cfg in (MziConfig(phi=0.0), MziConfig(phi=0.0, closed=False, extended=True)):
            want = detector_probabilities(cfg, floats.tolist()).tobytes()
            assert detector_probabilities(cfg, floats).tobytes() == want
            assert detector_probabilities(cfg, ints).tobytes() == want
            bools = [True, False, True]
            assert (
                detector_probabilities(cfg, bools).tobytes()
                == detector_probabilities(cfg, [1.0, 0.0, 1.0]).tobytes()
            )

    @pytest.mark.parametrize(
        "grid",
        [
            np.array([np.pi + 5j, 0.0]), np.array(["1.5"]), [1 + 1j], "ab", [0.5, None],
            "01", ["0.5"], 0.5, [[0.0], 1.0], [[0.1, 0.2]],
        ],
        ids=[
            "complex-array", "string-array", "complex-list", "string", "none-entry",
            "digit-string", "string-list", "bare-number", "ragged", "nested",
        ],
    )
    def test_grid_of_non_real_numbers_is_rejected(self, grid):
        # a cast to float64 would drop the imaginary part or parse the text
        with pytest.raises(ConfigurationError, match="^phi grid must be a flat sequence of real"):
            detector_probabilities(MziConfig(phi=0.0), grid)

    @pytest.mark.parametrize(
        "grid", [np.array([]), np.array([0.5, np.nan]), np.array([np.inf]), np.zeros((2, 2))]
    )
    def test_empty_non_finite_or_2d_float_array_is_rejected(self, grid):
        with pytest.raises(ConfigurationError):
            detector_probabilities(MziConfig(phi=0.0), grid)

    def test_half_period_complement(self):
        cfg = MziConfig(phi=0.0)
        for phi in np.linspace(0, np.pi, 16):
            (a, _), (b, _) = detector_probabilities(cfg, [phi, phi + np.pi])
            assert a + b == pytest.approx(1.0, abs=1e-12)


MZI_FLAGS = list(itertools.product((True, False), repeat=3))  # closed, extended, decohere


class TestVisibility:
    # exact values: only the closed, coherent, unmarked device interferes
    def test_closed_is_unity(self):
        assert visibility(MziConfig(phi=0.0)) == 1.0

    def test_open_is_zero(self):
        assert visibility(MziConfig(phi=0.0, closed=False)) == 0.0

    def test_marked_paths_kill_interference(self):
        # markers record the path, so tracing them out flattens the fringe
        assert visibility(MziConfig(phi=0.0, extended=True)) == 0.0

    def test_decohered_probe_kills_interference(self):
        cfg = MziConfig(phi=0.0, decohere_after_first_bs=True)
        assert visibility(cfg) == 0.0

    @pytest.mark.parametrize(
        "closed, extended, decohere",
        [(True, True, True), (False, True, False), (False, False, True), (False, True, True)],
    )
    def test_other_variants_are_zero(self, closed, extended, decohere):
        cfg = MziConfig(
            phi=0.0, closed=closed, extended=extended, decohere_after_first_bs=decohere
        )
        assert visibility(cfg) == 0.0

    @pytest.mark.parametrize("closed, extended, decohere", MZI_FLAGS)
    def test_matches_the_sampled_fringe(self, closed, extended, decohere):
        # 4096 phases on [0, 2*pi) hold phi = 0 and pi, the cosine's extremes
        cfg = MziConfig(
            phi=0.0, closed=closed, extended=extended, decohere_after_first_bs=decohere
        )
        phis = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
        p0 = np.array(detector_probabilities_per_phi(cfg, phis))[:, 0]
        sampled = (p0.max() - p0.min()) / (p0.max() + p0.min())
        assert abs(visibility(cfg) - sampled) < 1e-12


class TestExtendedOutput:
    def test_coherent_markers_entangled(self):
        phi = 0.85
        report = extended_output_analysis(MziConfig(phi=phi, extended=True))
        assert report.entanglement_entropy == pytest.approx(1.0, abs=1e-9)
        assert not report.ppt_separable
        assert report.selection_probability == pytest.approx(0.5, abs=1e-10)
        assert fidelity(
            report.postselected_state, phi_plus(phi).to_density()
        ) == pytest.approx(1.0, abs=1e-10)

    def test_other_detector_gets_phi_minus(self):
        phi = 0.85
        report = extended_output_analysis(
            MziConfig(phi=phi, extended=True), detector=1
        )
        amps = np.zeros(4, dtype=complex)
        amps[MARKER_REG.index_of("10")] = 1 / np.sqrt(2)
        amps[MARKER_REG.index_of("01")] = -np.exp(1j * phi) / np.sqrt(2)
        expected = PureState(MARKER_REG, amps).to_density()
        assert fidelity(report.postselected_state, expected) == pytest.approx(
            1.0, abs=1e-10
        )
        assert report.entanglement_entropy == pytest.approx(1.0, abs=1e-9)

    def test_decohered_markers_classically_correlated(self):
        report = extended_output_analysis(
            MziConfig(phi=1.2, extended=True, decohere_after_first_bs=True)
        )
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 0.5  # |01><01|
        expected[2, 2] = 0.5  # |10><10|
        np.testing.assert_allclose(
            report.postselected_state.entries, expected, atol=1e-10
        )
        assert report.ppt_separable
        assert report.entanglement_entropy == pytest.approx(0.0, abs=1e-12)
        assert report.mutual_information == pytest.approx(1.0, abs=1e-9)

    def test_irreality_at_s1(self):
        coherent = extended_output_analysis(MziConfig(phi=0.4, extended=True))
        assert coherent.irreality_sigma_z_at_s1 == pytest.approx(1.0, abs=1e-9)
        decohered = extended_output_analysis(
            MziConfig(phi=0.4, extended=True, decohere_after_first_bs=True)
        )
        assert decohered.irreality_sigma_z_at_s1 == pytest.approx(0.0, abs=1e-9)

    def test_requires_extended(self):
        with pytest.raises(ConfigurationError):
            extended_output_analysis(MziConfig(phi=0.0))

    @pytest.mark.parametrize(
        "detector", [2, -1, 0.0, 1.0, np.float64(1.0), True, False, "0"], ids=repr
    )
    def test_detector_must_be_an_integer_zero_or_one(self, detector):
        # a float or a bool equal to 0 or 1 is not an index either
        with pytest.raises(ConfigurationError, match="^detector must be 0 or 1$"):
            extended_output_analysis(MziConfig(phi=0.0, extended=True), detector=detector)

    def test_correspondence_between_irreality_and_entanglement(self):
        # coherent probe at s1 (irreality 1) <=> entangled marker output;
        # decohered probe (irreality 0) <=> PPT-separable marker output
        for decohere in (False, True):
            cfg = MziConfig(phi=0.6, extended=True, decohere_after_first_bs=decohere)
            report = extended_output_analysis(cfg)
            if decohere:
                assert report.irreality_sigma_z_at_s1 == pytest.approx(0.0, abs=1e-9)
                assert report.ppt_separable
                assert report.entanglement_entropy == pytest.approx(0.0, abs=1e-9)
            else:
                assert report.irreality_sigma_z_at_s1 == pytest.approx(1.0, abs=1e-9)
                assert not report.ppt_separable
                assert report.entanglement_entropy == pytest.approx(1.0, abs=1e-9)


class TestExtendedOutputAgainstChain:
    @pytest.mark.parametrize("flags", EXTENDED_CONFIGS)
    @pytest.mark.parametrize("detector", [0, 1])
    @pytest.mark.parametrize("phi", REPORT_PHIS)
    def test_every_field_matches_the_single_state_chain(self, flags, detector, phi):
        cfg = MziConfig(phi=float(phi), extended=True, **flags)
        report = extended_output_analysis(cfg, detector=detector)
        want = extended_report_reference(cfg, detector)
        np.testing.assert_allclose(
            report.postselected_state.entries, want["postselected_state"].entries, rtol=0, atol=1e-12
        )
        assert report.postselected_state.register == want["postselected_state"].register
        for field in ("selection_probability", "entanglement_entropy", "mutual_information"):
            assert getattr(report, field) == pytest.approx(want[field], rel=0, abs=1e-12), field
        assert report.ppt_separable == want["ppt_separable"]
        assert report.irreality_sigma_z_at_s1 == want["irreality_sigma_z_at_s1"]

    def test_one_validated_state_and_no_unitary_per_call(self, monkeypatch):
        for flags in EXTENDED_CONFIGS:  # fill the per-flag caches first
            extended_output_analysis(MziConfig(phi=0.0, extended=True, **flags))
        built = []
        validate = DensityMatrix.__post_init__

        def counted(self):
            built.append(self)
            validate(self)

        def forbidden(*args, **kwargs):
            raise AssertionError("apply_unitary called")

        monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
        monkeypatch.setattr(qreality.core, "apply_unitary", forbidden)
        monkeypatch.setattr(qreality.mzi, "apply_unitary", forbidden)
        for flags in EXTENDED_CONFIGS:
            for detector in (0, 1):
                built.clear()
                cfg = MziConfig(phi=1.3, extended=True, **flags)
                report = extended_output_analysis(cfg, detector=detector)
                assert len(built) == 1 and built[0] is report.postselected_state

    @pytest.mark.parametrize("flags", EXTENDED_CONFIGS)
    @pytest.mark.parametrize("detector", [0, 1])
    def test_entropies_read_the_validated_spectrum(self, flags, detector):
        # bit for bit the formulas with every spectrum recomputed by eigvalsh,
        # and bit for bit the marginal entropies of _bipartite_entropies
        def entropy(mat):
            return float(_eigenvalue_entropies(np.linalg.eigvalsh(mat)))

        for phi in MARKER_PHIS:
            report = extended_output_analysis(
                MziConfig(phi=float(phi), extended=True, **flags), detector=detector
            )
            rho = report.postselected_state
            s_d1, s_d2, s_pair = _bipartite_entropies(rho, (("d1",), ("d2",)))
            recomputed = [
                entropy(_partial_trace_entries(rho.entries, MARKER_REG, (label,))[1])
                for label in ("d1", "d2")
            ]
            recomputed.append(entropy(rho.entries))
            assert np.array(recomputed).tobytes() == np.array([s_d1, s_d2, s_pair]).tobytes()
            ee = s_d1 if purity(rho) >= 1.0 - 1e-8 else 0.0
            want = np.array([ee, s_d1 + s_d2 - s_pair])
            got = np.array([report.entanglement_entropy, report.mutual_information])
            assert got.tobytes() == want.tobytes(), phi

    def test_three_eigvalsh_calls_per_call(self, eigvalsh_calls):
        for flags in EXTENDED_CONFIGS:  # fill the per-flag caches first
            extended_output_analysis(MziConfig(phi=0.0, extended=True, **flags))
        for flags in EXTENDED_CONFIGS:
            eigvalsh_calls.clear()
            extended_output_analysis(MziConfig(phi=0.9, extended=True, **flags))
            # validation, one stack for S(d1) and S(d2), and the partial
            # transpose; S(d1 d2) reads the spectrum that validation kept
            assert eigvalsh_calls == [(4, 4), (2, 2, 2), (4, 4)]
