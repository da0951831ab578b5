"""Stacked grid kernels against per-point references.

``irreality_curve`` and ``omega_state`` evaluate a whole theta grid as one
stack, and ``detector_probabilities`` a whole phase grid; the references in
``oracles`` rebuild the device at every point.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreality import (
    ConfigurationError,
    MziConfig,
    ZeroProbabilityError,
    detector_probabilities,
)
from qreality.eraser import ProtocolConfig, irreality_curve, omega_state

from oracles import (
    detector_probabilities_per_phi,
    irreality_per_theta,
    omega_per_theta,
)

ATOL = 1e-12
# (gamma1, delta1, gamma2, delta2): the default and two rotated displacer pairs
BD_SETTINGS = [
    (0.0, 1.0, 1.0, 0.0),
    (0.8, 0.6, float(np.cos(0.3)), float(np.sin(0.3))),
    (float(np.sin(1.1)), float(np.cos(1.1)), 0.28, 0.96),
]
MZI_VARIANTS = [
    MziConfig(phi=0.0, closed=closed, extended=extended, decohere_after_first_bs=decohere)
    for closed in (True, False)
    for extended in (False, True)
    for decohere in (False, True)
]


def assert_curve_matches(cfg, target, thetas):
    curve = irreality_curve(cfg, target, thetas)
    assert curve.theta.tolist() == [float(t) for t in thetas]
    for theta, irreality, prob, omega in zip(*curve):
        point = dataclasses.replace(cfg, theta=float(theta))
        try:
            ref_irreality, ref_prob = irreality_per_theta(point, target)
        except ZeroProbabilityError:
            assert np.isnan(irreality) and not omega.any()
            assert prob == 0.0
            continue
        assert irreality == pytest.approx(ref_irreality, abs=ATOL)
        assert prob == pytest.approx(ref_prob, abs=ATOL)
        ref_omega, _ = omega_per_theta(point, target)
        np.testing.assert_allclose(omega, ref_omega.entries, atol=ATOL, rtol=0)


class TestIrrealityCurve:
    @pytest.mark.parametrize("target", ["path_b", "b", "d1", "d2"])
    @pytest.mark.parametrize("config", ["Cz", "Cx"])
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    @pytest.mark.parametrize("bd_settings", BD_SETTINGS)
    def test_matches_per_theta_reference(self, target, config, branch, bd_settings):
        cfg = ProtocolConfig(
            theta=0.0, alice_config=config, alice_branch=branch, bd_settings=bd_settings
        )
        assert_curve_matches(cfg, target, np.linspace(0.0, np.pi, 13))

    def test_theta_pi_rows_are_undefined_only_for_cz(self):
        for config in ("Cz", "Cx"):
            cfg = ProtocolConfig(theta=0.0, alice_config=config)
            (_, (irreality,), (prob,), (omega,)) = irreality_curve(cfg, "d1", [np.pi])
            if config == "Cz":
                assert np.isnan(irreality) and not omega.any()
                assert prob == 0.0
            else:
                assert irreality == pytest.approx(0.0, abs=1e-9)
                assert prob == pytest.approx(0.25, abs=1e-12)

    def test_needs_no_eigendecomposition(self, monkeypatch):
        # every omega row is pure, so the curve is an outcome entropy of diag(omega)
        def refuse(*args, **kwargs):
            raise AssertionError("irreality_curve diagonalised a matrix")

        thetas = np.linspace(0.0, np.pi, 5)
        cfgs = [ProtocolConfig(theta=0.0, alice_config=c) for c in ("Cz", "Cx")]
        with monkeypatch.context() as patch:
            for name in ("eigvalsh", "eigh", "eigvals", "eig"):
                patch.setattr(np.linalg, name, refuse)
            curves = [irreality_curve(cfg, "d2", thetas) for cfg in cfgs]
        for cfg, curve in zip(cfgs, curves):
            for got, want in zip(curve, irreality_curve(cfg, "d2", thetas)):
                np.testing.assert_array_equal(got, want)
            assert_curve_matches(cfg, "d2", thetas)

    def test_out_of_range_and_nan_theta_rejected(self):
        cfg = ProtocolConfig(theta=0.0, alice_config="Cx")
        for grid in ([0.1, 4.0], [-0.5, 0.1], [0.1, float("nan")]):
            with pytest.raises(ConfigurationError):
                irreality_curve(cfg, "d1", grid)


class TestOmegaState:
    @pytest.mark.parametrize("target", ["b", "d1", "d2"])
    @pytest.mark.parametrize("bd_settings", BD_SETTINGS)
    @pytest.mark.parametrize(
        "config, variants",
        [
            ("Cz", {}),
            ("Cz", {"bob_sign": "minus"}),
            ("Cx", {}),
            ("Cx", {"bob_sign": "minus"}),
        ],
    )
    def test_matches_per_theta_reference(self, target, bd_settings, config, variants):
        for branch in ("plus", "minus"):
            for theta in (0.0, 0.4, np.pi / 2, 2.9, np.pi):
                cfg = ProtocolConfig(
                    theta=theta, alice_config=config, alice_branch=branch,
                    bd_settings=bd_settings,
                )
                try:
                    ref, ref_prob = omega_per_theta(cfg, target, **variants)
                except ZeroProbabilityError:
                    with pytest.raises(ZeroProbabilityError):
                        omega_state(cfg, target, **variants)
                    continue
                omega, prob = omega_state(cfg, target, **variants)
                assert omega.register.labels == ("b", "d1", "d2")
                np.testing.assert_allclose(omega.entries, ref.entries, atol=ATOL, rtol=0)
                assert prob == pytest.approx(ref_prob, abs=ATOL)

    def test_theta_pi_cz_raises(self):
        cfg = ProtocolConfig(theta=np.pi, alice_config="Cz")
        for target in ("b", "d1"):
            with pytest.raises(ZeroProbabilityError):
                omega_state(cfg, target)

    def test_bad_variants_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(theta=0.5, alice_config="Cz", alice_branch="sideways")
        cfg = ProtocolConfig(theta=0.5, alice_config="Cz")
        with pytest.raises(ConfigurationError):
            omega_state(cfg, "d1", bob_sign="sideways")

    def test_is_the_one_point_curve(self):
        cfg = ProtocolConfig(theta=1.2, alice_config="Cx")
        omega, prob = omega_state(cfg, "d2")
        curve = irreality_curve(cfg, "d2", [1.2])
        assert np.array_equal(omega.entries, curve.omega[0])
        assert prob == curve.probability[0]


class TestDetectorProbabilities:
    @pytest.mark.parametrize("cfg", MZI_VARIANTS)
    def test_matches_per_phi_reference(self, cfg):
        grid = np.concatenate([np.linspace(0.0, 2 * np.pi, 32, endpoint=False), [-1.3, 9.0]])
        got = detector_probabilities(cfg, grid)
        want = detector_probabilities_per_phi(cfg, grid)
        np.testing.assert_allclose(got, want, atol=ATOL, rtol=0)

    def test_nonfinite_phase_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                detector_probabilities(MziConfig(phi=0.0), [0.1, bad])


# Grids of 1 to 8 points with repeats: a drawn pool of values sampled with replacement.
def grids(low, high):
    values = st.floats(low, high, allow_nan=False, allow_infinity=False)
    return st.lists(values, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=8)
    )


@settings(max_examples=40, deadline=None)
@given(
    thetas=grids(0.0, float(np.pi)),
    config=st.sampled_from(["Cz", "Cx"]),
    target=st.sampled_from(["b", "d1", "d2"]),
    branch=st.sampled_from(["plus", "minus"]),
)
def test_curve_property(thetas, config, target, branch):
    cfg = ProtocolConfig(theta=0.0, alice_config=config, alice_branch=branch)
    assert_curve_matches(cfg, target, thetas)


@settings(max_examples=40, deadline=None)
@given(phis=grids(-20.0, 20.0), variant=st.sampled_from(range(len(MZI_VARIANTS))))
def test_detector_property(phis, variant):
    cfg = MZI_VARIANTS[variant]
    got = detector_probabilities(cfg, phis)
    assert len(got) == len(phis)
    np.testing.assert_allclose(got, detector_probabilities_per_phi(cfg, phis), atol=ATOL, rtol=0)
