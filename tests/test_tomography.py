import itertools
import json
import tracemalloc

import numpy as np
import pytest

from qreality import (
    DensityMatrix,
    IncompleteDataError,
    ObservableSpec,
    PureState,
    QubitRegister,
    TomographyDataset,
    all_settings,
    born_probabilities,
    fidelity,
    irreality,
    load_dataset,
    monte_carlo_irreality,
    project_to_physical,
    reconstruct,
    reconstruct_from_frequencies,
    save_dataset,
    simulate_counts,
)
from qreality.eraser import ProtocolConfig, omega_state
from qreality.measures import _eigenvalue_entropies, _irreality_values
from qreality.tomography import (
    MAX_COUNT,
    MAX_QUBITS,
    DatasetFormatError,
    _BLOCK,
    _project,
    _setting_matrices,
    _stack,
    dataset_from_dict,
    dataset_to_dict,
)

from oracles import (
    EIGENBASIS,
    binary_entropy_exact,
    dephase_block_zero,
    entropy_bits,
    kron_all,
    monte_carlo_irreality_reference,
    one_qubit_datasets,
    pauli_inversion,
    random_density,
    random_pure,
    sgs_clip,
    simplex_projection,
    simulate_counts_per_setting,
)

BDT_REG = QubitRegister(("b", "d1", "d2"))
Q1 = QubitRegister(("q",))


def omega2x(theta=np.pi / 2):
    omega, _ = omega_state(ProtocolConfig(theta=theta, alice_config="Cx"), "d1")
    return omega


def omega2z(theta=np.pi / 3):
    omega, _ = omega_state(ProtocolConfig(theta=theta, alice_config="Cz"), "d1")
    return omega


def row_of(bases):
    """The counts row of a setting: its position in :func:`all_settings`."""
    return all_settings(len(bases)).index(bases)


class TestSettings:
    def test_enumeration_size(self):
        assert len(all_settings(1)) == 3
        assert len(all_settings(3)) == 27

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_eigenvector_matrices_are_unitary(self, n):
        # unitary columns: the joint outcomes are complete and orthogonal
        stack = _setting_matrices(n)
        assert stack.shape == (3**n, 2**n, 2**n)
        for v in stack:
            np.testing.assert_allclose(v @ v.conj().T, np.eye(2**n), atol=1e-10)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(2**n), atol=1e-10)


class TestBornProbabilities:
    def test_matches_per_setting_trace_oracle(self, rng):
        for k in range(40):
            n = 1 + k % 4
            reg = QubitRegister(tuple(f"q{i}" for i in range(n)))
            rho = DensityMatrix(reg, random_density(rng, n, rank=1 + k % 2**n))
            want = []
            for bases in itertools.product("ZXY", repeat=n):
                v = kron_all([EIGENBASIS[b] for b in bases])
                want.append(
                    [np.trace(rho.entries @ np.outer(col, col.conj())).real for col in v.T]
                )
            table = born_probabilities(rho)
            assert table.shape == (3**n, 2**n)
            np.testing.assert_allclose(table, want, rtol=0, atol=1e-12)

    def test_register_above_cap_rejected(self):
        reg = QubitRegister(tuple(f"q{i}" for i in range(MAX_QUBITS + 1)))
        with pytest.raises(ValueError, match="maximum supported is 4"):
            born_probabilities(DensityMatrix.maximally_mixed(reg))


class TestSimulateCounts:
    def test_z_eigenstate_is_deterministic(self):
        rho = PureState.from_bits(QubitRegister(("q",)), "0").to_density()
        data = simulate_counts(rho, 1000, seed=1)
        np.testing.assert_array_equal(data.counts[row_of(("Z",))], [1000, 0])

    def test_plus_state_in_x_basis(self):
        reg = QubitRegister(("q",))
        plus = PureState(reg, np.array([1, 1]) / np.sqrt(2)).to_density()
        data = simulate_counts(plus, 1000, seed=2)
        np.testing.assert_array_equal(data.counts[row_of(("X",))], [1000, 0])

    def test_mixed_state_outcome_fraction(self):
        reg = QubitRegister(("q",))
        data = simulate_counts(DensityMatrix.maximally_mixed(reg), 1_000_000, seed=3)
        frac = data.counts[row_of(("Z",))][0] / 1_000_000
        assert abs(frac - 0.5) <= 0.002  # three binomial standard errors

    def test_counts_sum_to_shots(self):
        data = simulate_counts(omega2x(), 500, seed=4)
        np.testing.assert_array_equal(data.counts.sum(axis=1), 500)

    def test_stack_matches_per_setting_oracle_bit_for_bit(self, rng):
        for k in range(60):
            n = 1 + k % 4
            reg = QubitRegister(tuple(f"q{i}" for i in range(n)))
            if k % 3 == 0:  # pure; a basis ket has zero Born probabilities
                psi = random_pure(rng, n) if k % 2 else np.eye(2**n)[rng.integers(2**n)]
                mat = np.outer(psi, psi.conj())
            else:
                mat = random_density(rng, n, rank=1 + k % 2**n)
            rho = DensityMatrix(reg, mat)
            shots, seed = int(rng.integers(1, 100_000)), int(rng.integers(2**32))
            counts = simulate_counts(rho, shots, seed).counts
            expected = simulate_counts_per_setting(rho.entries, shots, seed)
            assert counts.dtype == expected.dtype
            np.testing.assert_array_equal(counts, expected)

    def test_register_above_cap_rejected(self):
        reg = QubitRegister(tuple(f"q{i}" for i in range(MAX_QUBITS + 1)))
        with pytest.raises(ValueError, match="maximum supported is 4"):
            simulate_counts(DensityMatrix.maximally_mixed(reg), 10, seed=1)

    def test_identical_seeds_identical_counts(self):
        a = simulate_counts(omega2x(), 2000, seed=11)
        b = simulate_counts(omega2x(), 2000, seed=11)
        np.testing.assert_array_equal(a.counts, b.counts)
        c = simulate_counts(omega2x(), 2000, seed=12)
        assert not np.array_equal(a.counts, c.counts)


class TestReconstruction:
    def test_exact_frequencies_invert_exactly(self, rng):
        for n in (1, 2, 3, 4):
            reg = QubitRegister(tuple(f"q{i}" for i in range(n)))
            rho = DensityMatrix(reg, random_density(rng, n))
            rho_hat = reconstruct_from_frequencies(born_probabilities(rho))
            np.testing.assert_allclose(rho_hat, rho.entries, atol=1e-10)
            assert fidelity(project_to_physical(rho_hat, reg), rho) > 1 - 1e-9

    def test_matches_per_pauli_string_inversion(self, rng):
        for n in (1, 2, 3):
            freqs = rng.dirichlet(np.ones(2**n), size=3**n)
            np.testing.assert_allclose(
                reconstruct_from_frequencies(freqs), pauli_inversion(freqs, n), atol=1e-14
            )

    def test_stack_equals_slice_by_slice(self, rng):
        for n in (1, 2, 3, 4):
            stack = rng.dirichlet(np.ones(2**n), size=(2, 5, 3**n))
            batched = reconstruct_from_frequencies(stack)
            assert batched.shape == (2, 5, 2**n, 2**n)
            # Hermitian to the bit, stacked or not, so _project and reconstruct
            # take linear estimates as they are
            np.testing.assert_array_equal(batched, batched.conj().swapaxes(-1, -2))
            for idx in np.ndindex(2, 5):
                single = reconstruct_from_frequencies(stack[idx])
                np.testing.assert_array_equal(single, single.conj().T)
                np.testing.assert_allclose(batched[idx], single, atol=1e-15)

    def test_wrong_frequency_shape_rejected(self):
        message = r"^frequencies of shape \(9, 2\) are not \(3\^n, 2\^n\) for an n >= 1$"
        with pytest.raises(ValueError, match=message):
            reconstruct_from_frequencies(np.full((9, 2), 0.5))

    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (27, 7), (3, 4), (2, 3), (5, 0), (8,), (3,), ()],
        ids=["n=0", "27x7", "3x4", "transposed", "no-outcomes", "1-D", "1-D-3", "0-D"],
    )
    def test_frequencies_must_be_settings_by_outcomes(self, shape):
        # n is read from the last axis, 2^n outcomes, which then needs 3^n settings
        with pytest.raises(ValueError, match=r"are not \(3\^n, 2\^n\) for an n >= 1$"):
            reconstruct_from_frequencies(np.full(shape, 0.5))

    def test_frequencies_above_the_qubit_cap_rejected(self):
        n = MAX_QUBITS + 1
        with pytest.raises(DatasetFormatError, match="^n_qubits: 5 exceeds the maximum of 4$"):
            reconstruct_from_frequencies(np.full((3**n, 2**n), 2.0**-n))

    def test_register_above_cap_rejected(self):
        # no dataset above the cap can be built, so none reaches the inversion
        n = MAX_QUBITS + 1
        reg = QubitRegister(tuple(f"q{i}" for i in range(n)))
        with pytest.raises(DatasetFormatError, match="^n_qubits: 5 exceeds the maximum of 4$"):
            TomographyDataset(reg, 2**n, 0, np.ones((3**n, 2**n), dtype=np.int64))

    def test_simulated_counts_keep_the_state_labels(self, rng):
        for labels in (("b", "d1", "d2"), ("x",), ("left", "right")):
            reg = QubitRegister(labels)
            rho = DensityMatrix(reg, random_density(rng, len(labels)))
            data = simulate_counts(rho, 500, seed=3)
            assert data.register == reg and data.n_qubits == len(labels)
            assert reconstruct(data).rho_physical.register == reg

    def test_trace_one_by_construction(self, rng):
        data = simulate_counts(omega2x(), 100, seed=5)
        rho_hat = reconstruct(data).rho_linear
        assert np.trace(rho_hat).real == pytest.approx(1.0, abs=1e-12)

    def test_single_qubit_ground_state(self):
        rho = PureState.from_bits(QubitRegister(("q",)), "0").to_density()
        data = simulate_counts(rho, 20_000, seed=6)
        rho_hat = reconstruct(data).rho_linear
        np.testing.assert_allclose(rho_hat, np.diag([1.0, 0.0]), atol=0.02)

    def test_finite_shots_can_go_negative(self):
        reg = QubitRegister(("p", "q"))
        bell = PureState(reg, np.array([1, 0, 0, 1]) / np.sqrt(2)).to_density()
        min_eigs = []
        for seed in range(10):
            data = simulate_counts(bell, 100, seed=seed)
            rho_hat = reconstruct(data).rho_linear
            min_eigs.append(np.linalg.eigvalsh((rho_hat + rho_hat.conj().T) / 2).min())
        assert min(min_eigs) < 0

    def test_missing_setting_rejected(self):
        # a dataset holds every setting, so a file that leaves one out fails to load
        payload = dataset_to_dict(simulate_counts(omega2x(), 100, seed=7))
        del payload["settings"][0]
        with pytest.raises(IncompleteDataError, match="missing 1 of 27 settings"):
            dataset_from_dict(payload)


class TestProjectToPhysical:
    def test_psd_input_unchanged(self, rng):
        mat = random_density(rng, 2)
        reg = QubitRegister(("p", "q"))
        out = project_to_physical(mat, reg)
        np.testing.assert_allclose(out.entries, mat, atol=1e-10)

    def test_clipping_reference_case(self):
        out = project_to_physical(np.diag([1.1, -0.1]), QubitRegister(("q",)))
        np.testing.assert_allclose(out.entries, np.diag([1.0, 0.0]), atol=1e-12)

    def test_trace_preserved_on_random_hermitian(self, rng):
        reg = QubitRegister(("p", "q"))
        for _ in range(1000):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            herm = (g + g.conj().T) / 2
            herm = herm / np.trace(herm).real
            out = project_to_physical(herm, reg)
            assert np.trace(out.entries).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.eigvalsh(out.entries).min() >= -1e-12

    def test_keeps_eigenvectors(self):
        # only eigenvalues move; the eigenbasis of the input is retained
        vecs = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        mat = vecs @ np.diag([1.2, -0.2]) @ vecs.T
        out = project_to_physical(mat, QubitRegister(("q",)))
        expected = vecs @ np.diag([1.0, 0.0]) @ vecs.T
        np.testing.assert_allclose(out.entries, expected, atol=1e-12)

    def test_stacked_clipping_is_simplex_projection(self, rng):
        for n in (1, 2, 3):
            dim = 2**n
            g = rng.normal(size=(200, dim, dim)) + 1j * rng.normal(size=(200, dim, dim))
            herm = (g + g.conj().swapaxes(-1, -2)) / 2
            trace = np.trace(herm, axis1=-2, axis2=-1).real
            herm = herm + ((1 - trace) / dim)[:, None, None] * np.eye(dim)
            out, _ = _project(herm)
            for mat, got in zip(herm, out):
                w, v = np.linalg.eigh(mat)
                expected = (v * simplex_projection(w)) @ v.conj().T
                np.testing.assert_allclose(got, expected, atol=1e-12)
                np.testing.assert_allclose(got, sgs_clip(mat), atol=1e-14)

    def test_single_matrix_is_the_one_element_stack(self, rng):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        herm = (g + g.conj().T) / 2
        herm = herm / np.trace(herm).real
        out = project_to_physical(herm, QubitRegister(("p", "q")))
        np.testing.assert_array_equal(out.entries, _project(herm[None])[0][0])


    def test_eigenvalue_entropy_matches_clipped_state(self, rng):
        for n in (1, 2, 3, 4):
            dim = 2**n
            g = rng.normal(size=(50, dim, dim)) + 1j * rng.normal(size=(50, dim, dim))
            herm = (g + g.conj().swapaxes(-1, -2)) / 2
            trace = np.trace(herm, axis1=-2, axis2=-1).real
            herm = herm + ((1 - trace) / dim)[:, None, None] * np.eye(dim)
            _, eigenvalues = _project(herm)
            for mat, value in zip(herm, _eigenvalue_entropies(eigenvalues)):
                assert value == pytest.approx(entropy_bits(sgs_clip(mat)), abs=1e-12)


class TestMonteCarlo:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["Z", "X"])
    def test_matches_per_resample_oracle(self, rng, n, kind):
        reg = QubitRegister(tuple(f"q{i}" for i in range(n)))
        rho = DensityMatrix(reg, random_density(rng, n, rank=1))
        data = simulate_counts(rho, 400, seed=30 + n)
        observable = ObservableSpec.pauli(f"q{n - 1}", kind)
        basis = np.eye(2) if kind == "Z" else np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        # 63, 64 and 65 resamples put the 1 + R stack rows on both sides of a
        # block boundary; fixed 64-row blocks would split 128 as 64 + 64 + 1
        for n_resamples in (12, 63, 64, 65, 128):
            mean, std = monte_carlo_irreality(data, observable, n_resamples, seed=31)
            ref_mean, ref_std = monte_carlo_irreality_reference(
                data.counts, n, n - 1, basis, n_resamples, seed=31
            )
            assert abs(mean - ref_mean) < 1e-12, n_resamples
            assert abs(std - ref_std) < 1e-12, n_resamples

    def test_matches_oracle_at_one_shot_per_setting(self):
        reg = QubitRegister(("p", "q"))
        bell = PureState(reg, np.array([1, 0, 0, 1]) / np.sqrt(2)).to_density()
        data = simulate_counts(bell, 1, seed=32)
        observable = ObservableSpec.pauli("p", "X")
        basis = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        mean, std = monte_carlo_irreality(data, observable, 20, seed=33)
        ref_mean, ref_std = monte_carlo_irreality_reference(
            data.counts, 2, 0, basis, 20, seed=33
        )
        assert abs(mean - ref_mean) < 1e-12
        assert abs(std - ref_std) < 1e-12
        # a row of one shot redraws itself, so no resample row is empty and
        # every resample is the observed dataset
        assert ref_std == 0.0

    def test_peak_memory_does_not_grow_with_the_resample_stack(self):
        # beyond one block of the stack, a resample keeps only its 8-byte
        # irreality (a whole stack would hold about 9.7 KiB per resample)
        data = simulate_counts(omega2x(), 10_000, seed=3)
        obs = ObservableSpec.pauli("d1", "Z")
        monte_carlo_irreality(data, obs, 100, 1)  # fills the inversion cache
        peaks = {}
        for n_resamples in (1_000, 10_000):
            tracemalloc.start()
            try:
                monte_carlo_irreality(data, obs, n_resamples, 1)
                peaks[n_resamples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[10_000] - peaks[1_000] <= 8 * 9_000 + 2**20

    def test_counts_at_the_int64_limit_resample(self):
        # the largest row total a dataset admits; |0> leaves no spread in Z
        half = MAX_COUNT // 2
        counts = np.array([[MAX_COUNT, 0], [half, half], [half, half]])
        data = TomographyDataset(Q1, MAX_COUNT, 0, counts)
        assert monte_carlo_irreality(data, ObservableSpec.pauli("q", "Z"), 100, 1) == (0.0, 0.0)

    def test_numpy_integer_arguments_accepted(self):
        data = simulate_counts(omega2z(), np.int64(100), np.uint32(8))
        assert type(data.shots_per_setting) is int and type(data.seed) is int
        np.testing.assert_array_equal(data.counts, simulate_counts(omega2z(), 100, 8).counts)
        obs = ObservableSpec.pauli("d1", "Z")
        assert monte_carlo_irreality(data, obs, np.int32(5), np.int64(9)) == (
            monte_carlo_irreality(data, obs, 5, 9)
        )

    @pytest.mark.parametrize(
        "function, first, second",
        [
            ("simulate_counts", 2.5, 1),  # would draw 2 shots per setting
            ("simulate_counts", MAX_COUNT + 1, 1),  # numpy's draw overflows
            ("simulate_counts", None, 1),
            ("simulate_counts", "10", 1),
            ("simulate_counts", 10, 1.0),
            ("simulate_counts", 10, None),
            ("monte_carlo_irreality", 2.5, 1),
            ("monte_carlo_irreality", 10, None),  # would draw fresh OS entropy
            ("monte_carlo_irreality", 10, "1"),
            ("monte_carlo_irreality", 10, 1.5),
        ],
        ids=[
            "float-shots", "shots-past-int64", "none-shots", "string-shots", "float-seed",
            "none-seed", "float-resamples", "none-seed-mc", "string-seed-mc", "float-seed-mc",
        ],
    )
    def test_non_integer_arguments_rejected_before_any_draw(
        self, monkeypatch, function, first, second
    ):
        # first and second are shots and seed, or n_resamples and seed
        data = simulate_counts(omega2z(), 100, seed=8)
        obs = ObservableSpec.pauli("d1", "Z")
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew counts"))
        with pytest.raises(ValueError):
            if function == "simulate_counts":
                simulate_counts(omega2z(), first, second)
            else:
                monte_carlo_irreality(data, obs, first, second)

    @pytest.mark.parametrize("function", ["simulate_counts", "monte_carlo_irreality"])
    @pytest.mark.parametrize("seed", [-1, np.int64(-1)])
    def test_negative_seed_named_before_any_draw(self, monkeypatch, function, seed):
        data = simulate_counts(omega2z(), 100, seed=8)
        obs = ObservableSpec.pauli("d1", "Z")
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew counts"))
        with pytest.raises(ValueError, match="^seed: expected nonnegative integer, got -1$"):
            if function == "simulate_counts":
                simulate_counts(omega2z(), 100, seed)
            else:
                monte_carlo_irreality(data, obs, 10, seed)

    def test_row_totals_near_the_count_limit_do_not_wrap(self):
        # rows totalling nearly 2^63 - 1 are redrawn at their own totals; a
        # total that wrapped negative in int64 would flip its row's
        # frequencies
        reg = QubitRegister(("q", "r"))
        psi = PureState(reg, [np.cos(0.4), 0.0, 0.0, np.sin(0.4)]).to_density().entries
        probs = born_probabilities(DensityMatrix(reg, 0.9 * psi + 0.1 * np.eye(4) / 4))
        stds = []
        for scale, lowered in ((2, 4), (1, 2)):
            counts = np.array(
                [[int(p * 2**62) * scale for p in row] for row in probs.tolist()], dtype=np.int64
            )
            counts[np.arange(len(counts)), counts.argmax(axis=1)] -= lowered
            assert counts.sum(axis=1, dtype=object).max() <= MAX_COUNT
            data = TomographyDataset(reg, MAX_COUNT, 0, counts)
            _, std = monte_carlo_irreality(data, ObservableSpec.pauli("q", "Z"), 100, 5)
            stds.append(std)
        # about 2^-31 of shot noise at either scale; 0.08 when the totals wrap
        assert max(stds) < 1e-8

    def test_minimal_resample_count_runs(self):
        data = simulate_counts(omega2z(), 1000, seed=8)
        mean, std = monte_carlo_irreality(
            data, ObservableSpec.pauli("d1", "Z"), 2, seed=9
        )
        assert np.isfinite(mean) and np.isfinite(std)

    def test_resamples_below_two_rejected(self):
        data = simulate_counts(omega2z(), 1000, seed=8)
        with pytest.raises(ValueError):
            monte_carlo_irreality(
                data, ObservableSpec.pauli("d1", "Z"), 1, seed=9
            )

    def test_realistic_state_near_zero(self):
        data = simulate_counts(omega2z(), 200_000, seed=10)
        mean, std = monte_carlo_irreality(
            data, ObservableSpec.pauli("d1", "Z"), 50, seed=11
        )
        assert mean == pytest.approx(0.0, abs=0.01)
        assert 0 < std < 0.02

    def test_bell_state_mean_within_three_sigma(self):
        reg = QubitRegister(("p", "q"))
        bell = PureState(reg, np.array([1, 0, 0, 1]) / np.sqrt(2)).to_density()
        data = simulate_counts(bell, 100_000, seed=12)
        mean, std = monte_carlo_irreality(
            data, ObservableSpec.pauli("p", "Z"), 50, seed=13
        )
        assert abs(mean - 1.0) <= 3 * std

    def test_std_shrinks_with_shots(self):
        # 1/sqrt(shots) alone would make the ratio sqrt(100) = 10; over 300
        # seed pairs it had median 6.6 and 10th percentile 4.8, so one pair
        # can fall out of the band, and the check reads the median of 25
        obs = ObservableSpec.pauli("d1", "Z")
        rho = omega2x(theta=1.1)
        ratios = []
        for k in range(25):
            seeds = range(14 + 4 * k, 18 + 4 * k)
            data_small = simulate_counts(rho, 1_000, seed=seeds[0])
            data_large = simulate_counts(rho, 100_000, seed=seeds[1])
            _, std_small = monte_carlo_irreality(data_small, obs, 40, seeds[2])
            _, std_large = monte_carlo_irreality(data_large, obs, 40, seeds[3])
            ratios.append(std_small / std_large)
        assert 5 <= np.median(ratios) <= 20


class TestStack:
    """The one stack of frequencies, linear estimates and clipped states
    behind reconstruct (its one-row case) and monte_carlo_irreality."""

    @pytest.mark.parametrize("n_resamples", [2, 63, 64, 65, 127, 128, 1000])
    def test_blocks_cover_every_row_once(self, n_resamples):
        data = TomographyDataset(Q1, 10, 0, [[7, 3], [4, 6], [5, 5]])
        covered = np.zeros(1 + n_resamples, dtype=int)
        sizes = []
        for rows, linear, rho, eigenvalues in _stack(data, n_resamples, 5):
            covered[rows] += 1
            sizes.append(rows.stop - rows.start)
            assert len(linear) == len(rho) == len(eigenvalues) == sizes[-1]
        assert (covered == 1).all()
        # near-equal blocks of at most _BLOCK rows, and never fewer than 3:
        # numpy inverts a one-row block by a matrix-vector product
        assert max(sizes) <= _BLOCK and max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 3

    def test_zero_resamples_draw_nothing_and_ignore_the_seed(self, monkeypatch):
        data = simulate_counts(omega2z(), 100, seed=8)
        default_rng, generators = np.random.default_rng, []

        def recorded(seed):
            generators.append(default_rng(seed))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", recorded)
        seeds = (0, 1, 2**40)
        stacks = [list(_stack(data, 0, seed)) for seed in seeds]
        for [(rows, *arrays)] in stacks:
            assert rows == slice(0, 1)
            assert [a.tobytes() for a in arrays] == [a.tobytes() for a in stacks[0][0][1:]]
        for generator, seed in zip(generators, seeds, strict=True):
            assert generator.bit_generator.state == default_rng(seed).bit_generator.state

    def test_reconstruct_decomposes_three_times(self, eigh_calls, eigvalsh_calls):
        data = simulate_counts(omega2z(), 100, seed=8)
        eigh_calls.clear()
        eigvalsh_calls.clear()
        reconstruct(data)
        # the clipping, then the diagnostics and the state's validation
        assert eigh_calls == [(1, 8, 8)]
        assert eigvalsh_calls == [(8, 8), (8, 8)]

    def test_monte_carlo_decomposes_once_per_block(self, eigh_calls, eigvalsh_calls):
        data = simulate_counts(omega2z(), 100, seed=8)
        eigh_calls.clear()
        eigvalsh_calls.clear()
        monte_carlo_irreality(data, ObservableSpec.pauli("d1", "Z"), 100, 9)
        # 101 rows in blocks of 50 and 51: the clipping, then the dephased
        # blocks; S(rho) reads the clipped eigenvalues
        assert eigh_calls == [(50, 8, 8), (51, 8, 8)]
        assert eigvalsh_calls == [(50, 2, 4, 4), (51, 2, 4, 4)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_plug_in_estimates_differ_by_rounding_only(self, rng, n):
        # reconstruct inverts its one row by a matrix-vector product, a
        # bootstrap block by a matrix-matrix product, so the last bits differ
        reg = QubitRegister(tuple(f"q{i}" for i in range(n)))
        obs = ObservableSpec.pauli(f"q{n - 1}", "X")
        for rank in (1, None):
            data = simulate_counts(DensityMatrix(reg, random_density(rng, n, rank)), 200, n)
            plug_in = irreality(reconstruct(data).rho_physical, obs).irreality
            # 1 + R rows in one block of 64, then in two blocks
            for n_resamples in (2, 63, 64):
                mean, _ = monte_carlo_irreality(data, obs, n_resamples, seed=n)
                assert abs(mean - plug_in) <= 1e-14, (rank, n_resamples)


ONE_QUBIT_STATES = {
    "zero": np.array([1.0, 0.0]),
    "tilted": np.array([np.cos(0.15), np.sin(0.15)]),
    "plus": np.array([1.0, 1.0]) / np.sqrt(2),
}


def density(psi):
    return np.outer(psi, psi.conj())


def exact_plug_in(state, shots):
    """Every one-qubit dataset at ``shots`` per setting drawn from ``state``,
    a density matrix or three per-setting probabilities (see
    one_qubit_datasets): its frequencies, its exact probability, and its
    plug-in Z irreality through the stacked library path that
    monte_carlo_irreality runs."""
    counts, weights = one_qubit_datasets(state, shots)
    freqs = counts / counts.sum(axis=-1, keepdims=True, dtype=float)
    states, eigenvalues = _project(reconstruct_from_frequencies(freqs))
    values = _irreality_values(states, Q1, ObservableSpec.pauli("q", "Z"), eigenvalues)
    return freqs, weights, values


class TestExactOneQubitMean:
    """The plug-in estimate's exact distribution over all (s+1)^3 one-qubit
    datasets, against a brute-force path and against sampled counts."""

    @pytest.mark.parametrize("state", sorted(ONE_QUBIT_STATES))
    def test_stacked_path_matches_brute_force(self, state):
        freqs, weights, values = exact_plug_in(density(ONE_QUBIT_STATES[state]), 10)
        assert len(values) == 11**3
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        brute = []
        for f in freqs:
            rho = sgs_clip(pauli_inversion(f, 1))
            dephased = dephase_block_zero(rho, 0, EIGENBASIS["Z"], 1)
            brute.append(entropy_bits(dephased) - entropy_bits(rho))
        np.testing.assert_allclose(values, brute, rtol=0, atol=1e-12)
        assert abs(weights @ values - weights @ np.array(brute)) < 1e-12

    @pytest.mark.parametrize(
        "state, bias, std",
        [("zero", 0.14096, 0.0991), ("tilted", 0.06244, 0.1371), ("plus", -0.03111, 0.0394)],
    )
    def test_exact_bias_at_twenty_shots(self, state, bias, std):
        psi = ONE_QUBIT_STATES[state]
        _, weights, values = exact_plug_in(density(psi), 20)
        mean = weights @ values
        assert mean - binary_entropy_exact(psi[0] ** 2) == pytest.approx(bias, abs=5e-4)
        assert np.sqrt(weights @ (values - mean) ** 2) == pytest.approx(std, abs=5e-4)

    @pytest.mark.parametrize("state", sorted(ONE_QUBIT_STATES))
    def test_seed_averaged_estimate_within_clt_bound(self, state):
        psi = ONE_QUBIT_STATES[state]
        _, weights, values = exact_plug_in(density(psi), 20)
        mean = weights @ values
        std = np.sqrt(weights @ (values - mean) ** 2)
        rho = DensityMatrix(Q1, density(psi))
        obs = ObservableSpec.pauli("q", "Z")
        estimates = [
            monte_carlo_irreality(simulate_counts(rho, 20, seed), obs, 2, seed)[0]
            for seed in range(400)
        ]
        assert abs(np.mean(estimates) - mean) <= 4 * std / np.sqrt(len(estimates))


class TestExactOneQubitBootstrap:
    """The bootstrap of a one-qubit dataset at s shots per setting redraws
    each setting at its observed frequencies, so it has (s+1)^3 outcomes,
    and the std that monte_carlo_irreality reports estimates their exact std."""

    @pytest.mark.parametrize("state", sorted(ONE_QUBIT_STATES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_reported_std_matches_the_enumerated_std(self, state, seed):
        rho = DensityMatrix(Q1, density(ONE_QUBIT_STATES[state]))
        data = simulate_counts(rho, 8, seed)
        _, weights, values = exact_plug_in(data.counts[:, 0] / 8, 8)
        assert len(values) == 729
        mean = weights @ values
        var = weights @ (values - mean) ** 2
        fourth = weights @ (values - mean) ** 4
        assert var > 0
        # the sample variance of R draws has variance
        # (mu4 - sigma^4 (R - 3) / (R - 1)) / R; the delta method halves
        # its relative error for the sample std
        r = 4000
        std_error = np.sqrt((fourth - var**2 * (r - 3) / (r - 1)) / r) / (2 * np.sqrt(var))
        _, std = monte_carlo_irreality(data, ObservableSpec.pauli("q", "Z"), r, seed + 10)
        assert abs(std - np.sqrt(var)) <= 5 * std_error


def simulated_reconstruction(rho, shots, seed):
    """The physical state reconstructed from counts simulated on ``rho``,
    labelled like ``rho``, and its fidelity to ``rho``."""
    estimate = reconstruct(simulate_counts(rho, shots, seed)).rho_physical
    return estimate, fidelity(estimate, rho)


class TestEndToEnd:
    def test_bell_like_state_high_fidelity(self):
        _, fid = simulated_reconstruction(omega2x(), 100_000, seed=18)
        assert fid >= 0.99

    def test_near_deterministic_state(self):
        # only the Z..Z setting is deterministic for this state; the X/Y
        # settings still carry shot noise, so the 0.99 bar needs ~1e4 shots
        _, fid = simulated_reconstruction(omega2z(), 10_000, seed=19)
        assert fid >= 0.99
        _, coarse = simulated_reconstruction(omega2z(), 1000, seed=19)
        assert coarse >= 0.97

    def test_maximally_mixed_recovery(self):
        rho = DensityMatrix.maximally_mixed(BDT_REG)
        rec, _ = simulated_reconstruction(rho, 10_000, seed=20)
        assert np.real(np.vdot(rec.entries, rec.entries)) <= 0.15

    def test_register_size_limit(self):
        reg = QubitRegister(tuple(f"q{i}" for i in range(5)))
        rho = DensityMatrix.maximally_mixed(reg)
        with pytest.raises(ValueError):
            simulated_reconstruction(rho, 10, seed=21)

    def test_fidelity_improves_with_shots(self):
        rho = omega2x(theta=0.9)
        fids_small = [simulated_reconstruction(rho, 1_000, seed=s)[1] for s in range(20)]
        fids_large = [simulated_reconstruction(rho, 100_000, seed=s)[1] for s in range(20)]
        assert np.median(fids_large) >= np.median(fids_small)

    def test_imaginary_parts_suppressed(self):
        # protocol states have real amplitudes; reconstruction noise leaves
        # imaginary entries well below the dominant real coherence
        rec, _ = simulated_reconstruction(omega2x(), 100_000, seed=22)
        entries = rec.entries
        real_coherence = np.abs(entries.real - np.diag(np.diag(entries.real))).max()
        assert np.abs(entries.imag).max() <= real_coherence / 10


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        data = simulate_counts(omega2x(), 250, seed=23)
        path = tmp_path / "counts.json"
        save_dataset(data, path)
        loaded = load_dataset(path)
        assert loaded.n_qubits == data.n_qubits
        # a file names no qubits: the loader labels them q0 ... q{n-1}
        assert data.register == BDT_REG
        assert loaded.register == QubitRegister(("q0", "q1", "q2"))
        assert loaded.shots_per_setting == data.shots_per_setting
        assert loaded.seed == data.seed
        np.testing.assert_array_equal(loaded.counts, data.counts)
        rho_a = reconstruct(data).rho_linear
        rho_b = reconstruct(loaded).rho_linear
        np.testing.assert_allclose(rho_a, rho_b, atol=1e-14)
        # the loader sorts a file's settings into all_settings order
        payload = dataset_to_dict(data)
        payload["settings"].reverse()
        np.testing.assert_array_equal(dataset_from_dict(payload).counts, data.counts)

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DatasetFormatError, match="line"):
            load_dataset(path)

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"n_qubits": 1, "seed": 0, "settings": []}))
        with pytest.raises(DatasetFormatError, match="shots_per_setting"):
            load_dataset(path)

    def test_bad_counts_reported_with_field(self, tmp_path):
        payload = {
            "n_qubits": 1,
            "shots_per_setting": 10,
            "seed": 0,
            "settings": [
                {"bases": ["Z"], "counts": [5, -1]},
                {"bases": ["X"], "counts": [5, 5]},
                {"bases": ["Y"], "counts": [5, 5]},
            ],
        }
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DatasetFormatError, match=r"settings\[0\].counts\[1\]"):
            load_dataset(path)

    def test_overfull_counts_rejected(self, tmp_path):
        payload = {
            "n_qubits": 1,
            "shots_per_setting": 4,
            "seed": 0,
            "settings": [
                {"bases": ["Z"], "counts": [5, 5]},
                {"bases": ["X"], "counts": [2, 2]},
                {"bases": ["Y"], "counts": [2, 2]},
            ],
        }
        path = tmp_path / "overfull.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DatasetFormatError, match="exceeds"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "counts",
        [
            [[5.5, 4.5], [5, 5], [5, 5]],  # the int64 resampling stack would read 5
            [[float("nan"), 5], [5, 5], [5, 5]],  # the int64 cast would only warn
            [[1e30, 5], [5, 5], [5, 5]],
            [["5", "5"], ["5", "5"], ["5", "5"]],  # numpy's UFuncTypeError
            [[True, False], [True, False], [True, False]],
            [[2**70, 5], [5, 5], [5, 5]],  # an object array
            np.array([[2**63, 5], [5, 5], [5, 5]], dtype=np.uint64),
        ],
    )
    def test_counts_that_are_not_int64_integers_rejected(self, counts):
        with pytest.raises(DatasetFormatError, match="counts"):
            TomographyDataset(register=Q1, shots_per_setting=10, seed=0, counts=counts)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64])
    def test_integer_counts_are_stored_as_int64(self, dtype):
        counts = np.array([[5, 5], [7, 3], [10, 0]], dtype=dtype)
        data = TomographyDataset(register=Q1, shots_per_setting=10, seed=0, counts=counts)
        assert data.counts.dtype == np.int64 and not data.counts.flags.writeable
        np.testing.assert_array_equal(data.counts, counts)

    @pytest.mark.parametrize(
        "register, shots, seed, counts, error, message",
        [
            (Q1, -3, "abc", [[5, 5]] * 3, DatasetFormatError, "^shots_per_setting: expected"),
            (Q1, 10, 0, [[2**62, 2**62], [5, 5], [5, 5]], DatasetFormatError, "^counts: a row"),
            (Q1, 10, 0, [[5, 5], [0, 0], [5, 5]], IncompleteDataError,
             "^a setting has zero total counts$"),
            (Q1, 10, 0, [[6, 5], [5, 5], [5, 5]], DatasetFormatError, "^counts: a row total of 11"),
            (Q1, 10, 0, [[5, 5], [5, 5]], DatasetFormatError, "^counts shape"),
            (Q1, 10, 0, [[1, 0], [1], [1, 0]], DatasetFormatError,
             "^counts: a ragged table, expected 3 settings x 2 outcomes$"),
            (Q1, 10, 0, [[2**70, 0]] * 3, DatasetFormatError,
             f"^counts: a count of {2**70} exceeds the int64 maximum {2**63 - 1}$"),
            (Q1, 10, 0, [[2**63, 0]] * 3, DatasetFormatError,
             f"^counts: a count of {2**63} exceeds the int64 maximum {2**63 - 1}$"),
            (Q1, 10, 0, [[-(2**70), 0]] * 3, DatasetFormatError, "^counts must be nonnegative$"),
            (QubitRegister(tuple("abcde")), 10, 0, np.ones((3**5, 2**5), dtype=np.int64),
             DatasetFormatError, "^n_qubits: 5 exceeds the maximum of 4$"),
            (Q1, True, 0, [[1, 0]] * 3, DatasetFormatError, "^shots_per_setting: expected"),
            (Q1, 10.0, 0, [[5, 5]] * 3, DatasetFormatError, "^shots_per_setting: expected"),
            (Q1, 10, False, [[5, 5]] * 3, DatasetFormatError, "^seed: expected"),
            (Q1, 10, 0.0, [[5, 5]] * 3, DatasetFormatError, "^seed: expected"),
            (1, 10, 0, [[5, 5]] * 3, DatasetFormatError,
             "^register: expected QubitRegister, got 1$"),
            (("q",), 10, 0, [[5, 5]] * 3, DatasetFormatError,
             r"^register: expected QubitRegister, got \('q',\)$"),
        ],
        ids=[
            "negative-shots-string-seed", "int64-wrap", "zero-row", "overfull-row",
            "missing-row", "ragged-rows", "count-beyond-int64", "count-just-beyond-int64",
            "negative-count-beyond-int64", "five-qubits", "bool-shots", "float-shots", "bool-seed", "float-seed",
            "qubit-count-register", "label-tuple-register",
        ],
    )
    def test_invalid_dataset_rejected_by_constructor(
        self, register, shots, seed, counts, error, message
    ):
        with pytest.raises(error, match=message) as caught:
            TomographyDataset(register, shots, seed, counts)
        assert type(caught.value) is error

    def test_external_data_reconstructs(self, tmp_path):
        # hand-written dataset for |0>: the pipeline accepts counts that did
        # not come from this simulator
        payload = {
            "n_qubits": 1,
            "shots_per_setting": 100,
            "seed": 0,
            "settings": [
                {"bases": ["Z"], "counts": [100, 0]},
                {"bases": ["X"], "counts": [50, 50]},
                {"bases": ["Y"], "counts": [50, 50]},
            ],
        }
        path = tmp_path / "external.json"
        path.write_text(json.dumps(payload))
        data = load_dataset(path)
        rho = project_to_physical(reconstruct(data).rho_linear, QubitRegister(("q",)))
        np.testing.assert_allclose(rho.entries, np.diag([1.0, 0.0]), atol=1e-10)
