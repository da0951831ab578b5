"""Per-process tables of the protocol's fixed pieces, and the cheap pieces
rebuilt on each call.

The evolved basis kets, the eigenvector matrices of the Pauli measurement
settings stacked per register size, and the MZI s1 and s2 states are each
built once and served from a bounded ``functools`` cache.  Every table entry
must equal, bit for bit, an uncached build through the reference path, be
read-only, and the tables must stay within their size bound however many
keys pass through them; every ``functools`` cache in the package declares a
finite bound.  Alice's outcome vectors, the Z observables and the MZI probe
marginal cost a few microseconds to build, so they are rebuilt on each call
and must match the reference build bit for bit.
"""

import dataclasses
import functools
import importlib
import inspect
import itertools
import pkgutil

import numpy as np
import pytest

import qreality
import qreality.cli
from qreality import ObservableSpec, mzi_state, partial_trace
from qreality.core import _EIGENBASES, _as_density, _partial_trace_entries
from qreality.eraser import (
    ALICE_CONFIGS, BRANCH_SIGNS, ProtocolConfig, _alice_outcome, _basis_kets, irreality_curve,
)
from qreality.mzi import (
    MziConfig, _phases, _s1_state, _s2_density, detector_probabilities,
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
        # Alice's polarization on her branch's eigenvector, her path on |0>;
        # -0.0 entries included, so compare bits, not values
        column = _EIGENBASES["Z" if config == "Cz" else "X"][:, BRANCH_SIGNS.index(branch)]
        assert_bits_equal(_alice_outcome(config, branch), np.kron(column, [1.0, 0.0]))


class TestZObservable:
    @pytest.mark.parametrize("label", ["b", "d1", "d2", "Q"])
    def test_matches_pauli_and_is_read_only(self, label):
        z = ObservableSpec.pauli(label, "Z")
        assert z.subsystem == label
        assert_bits_equal(z.basis, np.eye(2, dtype=complex))
        assert_read_only(z.basis)


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
        s2 = _s2_density(extended, decohere)
        assert _s2_density(extended, decohere) is s2
        s1 = _s1_state(extended, decohere)
        # the probe marginal as detector_probabilities reads it
        rho_q = _partial_trace_entries(s2.entries, s2.register, ("Q",))[1]

        _s2_density.cache_clear()
        _s1_state.cache_clear()
        fresh_s2 = mzi_state(cfg, "s2")
        assert_bits_equal(s2.entries, _as_density(fresh_s2).entries)
        assert_read_only(s2.entries)
        assert_bits_equal(rho_q, partial_trace(fresh_s2, ("Q",)).entries)
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
        assert _s2_density.cache_info().currsize <= 4
        assert _s1_state.cache_info().currsize <= 4

    @pytest.mark.parametrize("size", [1, 255, 256, 257])
    def test_the_cli_shares_the_one_phase_grid(self, size):
        assert qreality.cli._phases is _phases
        want = np.linspace(0.0, 2 * np.pi, size, endpoint=False)
        assert_bits_equal(_phases(size), want)


def _lru_caches():
    """Every ``functools.lru_cache`` wrapper at module or class level in qreality."""
    for info in pkgutil.iter_modules(qreality.__path__):
        if info.name == "__main__":  # running it would start the CLI
            continue
        module = importlib.import_module(f"qreality.{info.name}")
        scopes = [module, *(c for c in vars(module).values() if inspect.isclass(c))]
        for scope in scopes:
            for name, value in vars(scope).items():
                if hasattr(value, "cache_parameters"):
                    yield f"{module.__name__}.{name}", value


def test_every_cache_declares_a_finite_bound():
    caches = dict(_lru_caches())
    assert "qreality.tomography._inversion_map" in caches
    unbounded = [name for name, fn in caches.items() if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []
