"""Per-process tables of the protocol's fixed pieces.

The evolved basis kets, Alice's outcome vectors, the Z observables with
their eigenbases, the eigenvector matrices of the Pauli measurement settings
stacked per register size, and the MZI s1 state and probe marginal are each
built once and served from a bounded ``functools`` cache.  Every table entry
must equal, bit for bit, an uncached build through the reference path, be
read-only, and the tables must stay within their size bound however many
keys pass through them.
"""

import dataclasses
import functools
import itertools

import numpy as np
import pytest

from qreality import ObservableSpec, mzi_state, partial_trace
from qreality.core import _EIGENBASES, _as_density, _pauli_z
from qreality.eraser import (
    ALICE_CONFIGS, BRANCH_SIGNS, ProtocolConfig, _alice_outcome, _basis_kets, irreality_curve,
    omega_state,
)
from qreality.mzi import (
    MziConfig, _probe_marginal, _s1_state, _s2_density, detector_probabilities,
)
from qreality.tomography import _setting_matrices, all_settings

from oracles import stage_state

# (gamma1, delta1, gamma2, delta2): the default and two rotated displacer pairs
BD_SETTINGS = [
    (0.0, 1.0, 1.0, 0.0),
    (0.8, 0.6, float(np.cos(0.3)), float(np.sin(0.3))),
    (float(np.sin(1.1)), float(np.cos(1.1)), 0.28, 0.96),
]
FLAGS = list(itertools.product((True, False), repeat=3))  # (closed, extended, decohere)
EIGENBASES = {
    "Z": np.eye(2, dtype=complex),
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
}


def assert_read_only(array):
    with pytest.raises(ValueError):
        array[(0,) * array.ndim] = 1.0


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestBasisKets:
    @pytest.mark.parametrize("bd_settings", BD_SETTINGS)
    @pytest.mark.parametrize("stage", [1, 2])
    def test_matches_stage_states(self, bd_settings, stage):
        cfg = ProtocolConfig(theta=0.0, alice_config="Cx", bd_settings=bd_settings)
        irreality_curve(cfg, "b" if stage == 1 else "d1", [0.2, 1.3])
        cached = _basis_kets(bd_settings, stage)
        assert _basis_kets(bd_settings, stage) is cached

        # theta = 0 prepares |000011> and theta = pi |110011> in the A block it fills
        want = [
            stage_state(dataclasses.replace(cfg, theta=theta), stage).amplitudes.reshape(2, 32)[a]
            for a, theta in enumerate((0.0, np.pi))
        ]
        assert_bits_equal(cached, np.stack(want).reshape(2, 2, 2, 8))
        assert_read_only(cached)

    def test_bounded_over_many_displacer_settings(self):
        for a in np.linspace(0.0, 2 * np.pi, 1000, endpoint=False):
            bd = (float(np.sin(a)), float(np.cos(a)), float(np.cos(2 * a)), float(np.sin(2 * a)))
            irreality_curve(ProtocolConfig(theta=0.0, alice_config="Cx", bd_settings=bd), "d2", [0.7])
        info = _basis_kets.cache_info()
        assert info.currsize <= info.maxsize


class TestAliceOutcome:
    @pytest.mark.parametrize("config", ALICE_CONFIGS)
    @pytest.mark.parametrize("branch", BRANCH_SIGNS)
    def test_matches_kron_of_eigenvector(self, config, branch):
        cfg = ProtocolConfig(theta=0.0, alice_config=config, alice_branch=branch)
        irreality_curve(cfg, "d1", [0.2, 1.3])
        cached = _alice_outcome(config, branch)
        assert _alice_outcome(config, branch) is cached

        # Alice's polarization on her branch's eigenvector, her path on |0>
        column = _EIGENBASES["Z" if config == "Cz" else "X"][:, BRANCH_SIGNS.index(branch)]
        assert_bits_equal(cached, np.kron(column, [1.0, 0.0]))
        assert_read_only(cached)

    def test_bounded_over_every_configuration_and_branch(self):
        for config, branch, theta in itertools.product(ALICE_CONFIGS, BRANCH_SIGNS, (0.3, 1.2)):
            cfg = ProtocolConfig(theta=theta, alice_config=config, alice_branch=branch)
            irreality_curve(cfg, "b", [theta])
            omega_state(cfg, "d2")
        info = _alice_outcome.cache_info()
        assert info.currsize <= info.maxsize == len(ALICE_CONFIGS) * len(BRANCH_SIGNS)


class TestZObservable:
    @pytest.mark.parametrize("label", ["b", "d1", "d2", "Q"])
    def test_matches_pauli_and_is_read_only(self, label):
        cached = _pauli_z(label)
        assert _pauli_z(label) is cached
        want = ObservableSpec.pauli(label, "Z")
        assert cached.subsystem == label
        assert_bits_equal(cached.basis, want.basis)
        assert_bits_equal(cached.basis, np.eye(2, dtype=complex))
        assert_read_only(cached.basis)

    def test_bounded_over_many_labels(self):
        for k in range(1000):
            _pauli_z(f"label{k}")
        info = _pauli_z.cache_info()
        assert info.currsize <= info.maxsize


class TestEigenvectorMatrices:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_match_kron_of_single_qubit_bases(self, n):
        settings = all_settings(n)
        assert settings == tuple(itertools.product("ZXY", repeat=n))
        stack = _setting_matrices(n)
        assert _setting_matrices(n) is stack
        want = [functools.reduce(np.kron, (EIGENBASES[b] for b in bases)) for bases in settings]
        assert_bits_equal(stack, np.stack(want))
        assert_read_only(stack)

    @pytest.mark.parametrize("kind", ["Z", "X", "Y"])
    def test_one_pauli_table_serves_observables_and_settings(self, kind):
        assert_bits_equal(_EIGENBASES[kind], EIGENBASES[kind])
        assert_read_only(_EIGENBASES[kind])
        assert_bits_equal(_setting_matrices(1)[all_settings(1).index((kind,))], EIGENBASES[kind])
        assert_bits_equal(ObservableSpec.pauli("q", kind.lower()).basis, EIGENBASES[kind])

    def test_unknown_pauli_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown Pauli kind 'W'"):
            ObservableSpec.pauli("q", "w")

    def test_float_register_size_still_rejected(self):
        with pytest.raises(TypeError):
            all_settings(3.0)


class TestMziTables:
    @pytest.mark.parametrize("closed, extended, decohere", FLAGS)
    def test_probe_marginal_matches_fresh_build(self, closed, extended, decohere):
        cfg = MziConfig(
            phi=0.0, closed=closed, extended=extended, decohere_after_first_bs=decohere
        )
        detector_probabilities(cfg, [0.0, 1.0])
        cached = _probe_marginal(extended, decohere)
        assert _probe_marginal(extended, decohere) is cached
        s2 = _s2_density(extended, decohere)
        assert _s2_density(extended, decohere) is s2
        s1 = _s1_state(extended, decohere)

        _probe_marginal.cache_clear()
        _s2_density.cache_clear()
        _s1_state.cache_clear()
        fresh_s2 = mzi_state(cfg, "s2")
        assert_bits_equal(s2.entries, _as_density(fresh_s2).entries)
        assert_read_only(s2.entries)
        want = partial_trace(fresh_s2, ("Q",))
        assert_bits_equal(cached.entries, want.entries)
        assert_read_only(cached.entries)
        fresh_s1 = mzi_state(cfg, "s1")
        array = "entries" if decohere else "amplitudes"
        assert_bits_equal(getattr(s1, array), getattr(fresh_s1, array))
        assert_read_only(getattr(s1, array))

    def test_tables_stay_at_four_flag_pairs(self):
        for closed, extended, decohere in FLAGS:
            cfg = MziConfig(
                phi=0.3, closed=closed, extended=extended, decohere_after_first_bs=decohere
            )
            detector_probabilities(cfg, [0.3])
            mzi_state(cfg, "s1")
        assert _probe_marginal.cache_info().currsize <= 4
        assert _s2_density.cache_info().currsize <= 4
        assert _s1_state.cache_info().currsize <= 4
