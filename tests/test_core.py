import dataclasses
import itertools

import numpy as np
import pytest

from qreality import (
    DensityMatrix,
    InvalidStateError,
    LabelError,
    ObservableSpec,
    PureState,
    QubitRegister,
    ZeroProbabilityError,
    apply_unitary,
    dephasing_map,
    fidelity,
    partial_trace,
    post_select,
    purity,
    tensor,
)
from qreality.core import _EIGENBASES
from qreality.eraser import ProtocolConfig, build_psi0, evolve_to_psi1

from oracles import (
    dephase_block_zero,
    embed,
    kron_all,
    partial_trace_index_sum,
    projection_probability,
    random_density,
    random_pure,
    random_unitary,
)

PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
NON_FINITE = [float("nan"), float("inf"), float("-inf"), complex(0.0, float("nan"))]


def bell_state():
    reg = QubitRegister(("A", "B"))
    return PureState(reg, np.array([1, 0, 0, 1]) / np.sqrt(2))


class TestRegister:
    def test_dimension_and_ordering(self):
        reg = QubitRegister(("A", "B", "a", "b", "d1", "d2"))
        assert reg.dimension == 64
        # leftmost label is the most significant bit
        assert reg.index_of("100000") == 32
        assert reg.index_of("000001") == 1

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LabelError):
            QubitRegister(("A", "A"))

    def test_unknown_label(self):
        reg = QubitRegister(("A", "B"))
        with pytest.raises(LabelError):
            reg.axis("c")

    # int() would truncate 0.5 to 0 and 1.9 to 1
    @pytest.mark.parametrize(
        "bits",
        [[0.5, 1], [1.9, 0], [1.0, 0], "0x", [2, 0], [None, 0]],
        ids=["half", "one-point-nine", "float-one", "letter", "two", "none"],
    )
    def test_bits_must_be_zero_or_one(self, bits):
        reg = QubitRegister(("A", "B"))
        with pytest.raises(ValueError, match="^bits must be 0 or 1$"):
            reg.index_of(bits)
        with pytest.raises(ValueError, match="^bits must be 0 or 1$"):
            PureState.from_bits(reg, bits)

    @pytest.mark.parametrize(
        "bits",
        ["10", [1, 0], (True, False), ["1", "0"], np.array([1, 0]), np.array([True, False])],
        ids=["string", "ints", "bools", "characters", "int-array", "bool-array"],
    )
    def test_every_spelling_of_a_bit_gives_one_index(self, bits):
        assert QubitRegister(("A", "B")).index_of(bits) == 2

    # a bare string is a sequence of characters: "d1" would be the register (d, 1)
    @pytest.mark.parametrize("labels", ["d1", ("a", 1), (b"a",), (None,)])
    def test_labels_must_be_a_sequence_of_strings(self, labels):
        with pytest.raises(LabelError, match="sequence of strings, got"):
            QubitRegister(labels)


class TestStateValidation:
    def test_norm_enforced(self):
        reg = QubitRegister(("q",))
        with pytest.raises(InvalidStateError):
            PureState(reg, [1.0, 1.0])

    def test_huge_amplitudes_are_invalid_not_an_overflow(self):
        # the squared norm overflows float64: still InvalidStateError, not an overflow warning
        with pytest.raises(InvalidStateError):
            PureState(QubitRegister(("q",)), [1e200, 0.0])

    def test_trace_enforced(self):
        reg = QubitRegister(("q",))
        with pytest.raises(InvalidStateError):
            DensityMatrix(reg, np.diag([0.9, 0.3]))

    def test_hermiticity_enforced(self):
        reg = QubitRegister(("q",))
        mat = np.array([[0.5, 0.5], [0.1, 0.5]])
        with pytest.raises(InvalidStateError):
            DensityMatrix(reg, mat)

    def test_psd_enforced(self):
        reg = QubitRegister(("q",))
        with pytest.raises(InvalidStateError):
            DensityMatrix(reg, np.diag([1.1, -0.1]))

    # Each NaN case below was accepted when the checks read ``x > tol``; each
    # infinity made the Hermiticity subtraction raise a RuntimeWarning instead.
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_amplitude_rejected(self, bad):
        with pytest.raises(InvalidStateError):
            PureState(QubitRegister(("q",)), [bad, 0.0])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_diagonal_rejected(self, bad):
        with pytest.raises(InvalidStateError):
            DensityMatrix(QubitRegister(("q",)), [[bad, 0.0], [0.0, bad]])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_off_diagonal_rejected(self, bad):
        with pytest.raises(InvalidStateError):
            DensityMatrix(QubitRegister(("q",)), [[0.5, bad], [bad, 0.5]])

    def test_arrays_are_read_only(self):
        psi = PureState(QubitRegister(("q",)), [1.0, 0.0])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0
        rho = psi.to_density()
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_eigenvalues_are_the_validated_spectrum(self, rng, n):
        reg = QubitRegister(tuple(f"q{i}" for i in range(n)))
        for rank in range(1, 2**n + 1):
            rho = DensityMatrix(reg, random_density(rng, n, rank=rank))
            assert rho.eigenvalues.dtype == np.float64
            assert rho.eigenvalues.tobytes() == np.linalg.eigvalsh(rho.entries).tobytes()
            with pytest.raises(ValueError):
                rho.eigenvalues[0] = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                rho.eigenvalues = np.ones(2**n)
        assert "eigenvalues" not in repr(rho)
        with pytest.raises(TypeError):
            DensityMatrix(reg, rho.entries, eigenvalues=rho.eigenvalues)


class TestTensor:
    def test_basis_concatenation(self):
        a = PureState.from_bits(QubitRegister(("p",)), "0")
        b = PureState.from_bits(QubitRegister(("q",)), "1")
        joint = tensor(a, b)
        assert joint.register.labels == ("p", "q")
        np.testing.assert_allclose(joint.amplitudes, [0, 1, 0, 0])

    def test_builds_initial_protocol_state(self):
        # (c|00> + s|11>)_AB x |00>_ab x |11>_d1d2
        theta = 1.1
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        pair = PureState(
            QubitRegister(("A", "B")), np.array([c, 0, 0, s], dtype=complex)
        )
        paths = PureState.from_bits(QubitRegister(("a", "b")), "00")
        markers = PureState.from_bits(QubitRegister(("d1", "d2")), "11")
        joint = tensor(tensor(pair, paths), markers)
        cfg = ProtocolConfig(theta=theta, alice_config="Cz")
        assert fidelity(joint, build_psi0(cfg)) == pytest.approx(1.0, abs=1e-12)

    def test_trace_multiplicative(self, rng):
        ra = DensityMatrix(QubitRegister(("x",)), random_density(rng, 1))
        rb = DensityMatrix(QubitRegister(("y", "z")), random_density(rng, 2))
        joint = tensor(ra, rb)
        assert np.trace(joint.entries) == pytest.approx(1.0, abs=1e-12)

    def test_label_collision(self):
        a = PureState.from_bits(QubitRegister(("q",)), "0")
        b = PureState.from_bits(QubitRegister(("q",)), "1")
        with pytest.raises(LabelError):
            tensor(a, b)


class TestPartialTrace:
    def test_product_state(self):
        psi = PureState.from_bits(QubitRegister(("A", "B")), "00")
        reduced = partial_trace(psi.to_density(), ("A",))
        np.testing.assert_allclose(reduced.entries, np.diag([1.0, 0.0]), atol=1e-12)

    def test_bell_state_reduces_to_mixed(self):
        reduced = partial_trace(bell_state().to_density(), ("A",))
        np.testing.assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-12)

    def test_omega2x_marker_population(self):
        # c^2 = 3/4; the d1 populations follow the two protocol branches
        theta = 2 * np.arccos(np.sqrt(3) / 2)
        cfg = ProtocolConfig(theta=theta, alice_config="Cx")
        from qreality.eraser import omega_state

        omega, _ = omega_state(cfg, "d1")
        reduced = partial_trace(omega, ("d1",))
        oracle = partial_trace_index_sum(omega.entries, 3, keep_axes=[1])
        np.testing.assert_allclose(reduced.entries, oracle, atol=1e-12)
        np.testing.assert_allclose(
            np.diag(reduced.entries).real, [0.75, 0.25], atol=1e-10
        )

    def test_matches_index_sum_oracle(self, rng):
        reg = QubitRegister(("p", "q", "r"))
        for _ in range(5):
            rho = DensityMatrix(reg, random_density(rng, 3))
            got = partial_trace(rho, ("p", "r"))
            want = partial_trace_index_sum(rho.entries, 3, keep_axes=[0, 2])
            np.testing.assert_allclose(got.entries, want, atol=1e-12)

    def test_commutes_with_mixing(self, rng):
        reg = QubitRegister(("p", "q"))
        rho = random_density(rng, 2)
        sig = random_density(rng, 2)
        p = 0.3
        mixed = DensityMatrix(reg, p * rho + (1 - p) * sig)
        direct = partial_trace(mixed, ("q",)).entries
        split = (
            p * partial_trace(DensityMatrix(reg, rho), ("q",)).entries
            + (1 - p) * partial_trace(DensityMatrix(reg, sig), ("q",)).entries
        )
        np.testing.assert_allclose(direct, split, atol=1e-12)

    def test_recovers_tensor_factor(self, rng):
        a = DensityMatrix(QubitRegister(("x",)), random_density(rng, 1))
        b = DensityMatrix(QubitRegister(("y",)), random_density(rng, 1))
        joint = tensor(a, b)
        np.testing.assert_allclose(
            partial_trace(joint, ("x",)).entries, a.entries, atol=1e-12
        )

    def test_empty_keep_rejected(self):
        with pytest.raises(LabelError):
            partial_trace(bell_state().to_density(), ())


class TestDephasing:
    def test_diagonal_state_is_fixed_point(self):
        reg = QubitRegister(("q",))
        rho = DensityMatrix(reg, np.diag([0.7, 0.3]))
        out = dephasing_map(rho, ObservableSpec.pauli("q", "Z"))
        np.testing.assert_allclose(out.entries, rho.entries, atol=1e-12)

    def test_erases_coherence_completely(self):
        reg = QubitRegister(("q",))
        plus = PureState(reg, PLUS)
        out = dephasing_map(plus.to_density(), ObservableSpec.pauli("q", "Z"))
        np.testing.assert_allclose(out.entries, np.eye(2) / 2, atol=1e-12)

    def test_innocuous_on_definite_path_state(self):
        # omega at stage 1 under Cz is |011>, diagonal in the path basis
        from qreality.eraser import omega_state

        cfg = ProtocolConfig(theta=0.9, alice_config="Cz")
        omega, _ = omega_state(cfg, "b")
        out = dephasing_map(omega, ObservableSpec.pauli("b", "Z"))
        assert fidelity(out, omega) == pytest.approx(1.0, abs=1e-12)

    def test_trace_preserving_and_idempotent(self, rng):
        reg = QubitRegister(("p", "q"))
        for _ in range(10):
            rho = DensityMatrix(reg, random_density(rng, 2))
            obs = ObservableSpec("q", random_unitary(rng, 2))
            once = dephasing_map(rho, obs)
            twice = dephasing_map(once, obs)
            assert np.trace(once.entries) == pytest.approx(1.0, abs=1e-10)
            np.testing.assert_allclose(once.entries, twice.entries, atol=1e-10)

    def test_matches_block_zero_oracle(self, rng):
        reg = QubitRegister(("p", "q", "r"))
        rho = DensityMatrix(reg, random_density(rng, 3))
        basis = random_unitary(rng, 2)
        got = dephasing_map(rho, ObservableSpec("q", basis))
        want = dephase_block_zero(rho.entries, axis=1, basis=basis, n=3)
        np.testing.assert_allclose(got.entries, want, atol=1e-12)

    def test_unknown_label(self):
        with pytest.raises(LabelError):
            dephasing_map(bell_state().to_density(), ObservableSpec.pauli("zz", "Z"))


class TestPostSelect:
    def test_stage1_cz_projection(self):
        theta = 1.2
        cfg = ProtocolConfig(theta=theta, alice_config="Cz")
        psi1 = evolve_to_psi1(build_psi0(cfg))
        selected, p_aa = post_select(psi1, [1, 0, 0, 0], ("A", "a"))
        selected, p_b = post_select(selected, PLUS, ("B",))
        # the remaining state is |011> on (b, d1, d2)
        expected = PureState.from_bits(QubitRegister(("b", "d1", "d2")), "011")
        assert fidelity(selected, expected) == pytest.approx(1.0, abs=1e-12)
        # probability oracle: full-space projector sandwich
        proj_aa = kron_all(
            [np.diag([1.0, 0.0]), np.eye(2), np.diag([1.0, 0.0]), np.eye(8)]
        )
        proj_b = embed(np.outer(PLUS, PLUS), 1, 6)
        oracle = projection_probability(psi1.amplitudes, proj_b @ proj_aa)
        assert p_aa * p_b == pytest.approx(oracle, abs=1e-12)
        assert p_aa * p_b == pytest.approx(np.cos(theta / 2) ** 2 / 2, abs=1e-12)

    def test_stage1_cx_projection_gives_path_superposition(self):
        theta = 0.8
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        cfg = ProtocolConfig(theta=theta, alice_config="Cx")
        psi1 = evolve_to_psi1(build_psi0(cfg))
        alice = np.kron(PLUS, [1.0, 0.0])
        selected, _ = post_select(psi1, alice, ("A", "a"))
        selected, _ = post_select(selected, PLUS, ("B",))
        reg = QubitRegister(("b", "d1", "d2"))
        beta = PureState(reg, np.array([0, 0, 0, c, 0, 0, 0, s], dtype=complex))
        assert fidelity(selected, beta) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_branch_raises(self):
        psi = PureState.from_bits(QubitRegister(("p", "q")), "10")
        with pytest.raises(ZeroProbabilityError):
            post_select(psi, [1.0, 0.0], ("p",))

    def test_probabilities_complete(self, rng):
        reg = QubitRegister(("p", "q", "r"))
        psi = PureState(reg, random_pure(rng, 3))
        outcomes = np.eye(4)
        total = 0.0
        for k in range(4):
            _, p = post_select(psi, outcomes[k], ("p", "q"))
            total += p
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_pure_and_density_paths_agree(self, rng):
        reg = QubitRegister(("p", "q", "r"))
        psi = PureState(reg, random_pure(rng, 3))
        out = random_pure(rng, 1)
        sel_pure, p_pure = post_select(psi, out, ("q",))
        sel_dm, p_dm = post_select(psi.to_density(), out, ("q",))
        assert p_pure == pytest.approx(p_dm, abs=1e-12)
        assert fidelity(sel_pure.to_density(), sel_dm) == pytest.approx(1.0, abs=1e-10)

    def test_huge_outcome_is_invalid_not_an_overflow(self):
        psi = PureState.from_bits(QubitRegister(("p", "q")), "00")
        with pytest.raises(InvalidStateError):
            post_select(psi, [1e200, 0.0], ("p",))

    def test_must_leave_a_remainder(self):
        psi = PureState.from_bits(QubitRegister(("p",)), "0")
        with pytest.raises(LabelError):
            post_select(psi, [1.0, 0.0], ("p",))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_outcome_rejected(self, bad):
        psi = PureState.from_bits(QubitRegister(("p", "q")), "00")
        with pytest.raises(InvalidStateError):
            post_select(psi, [bad, 0.0], ("p",))


class TestApplyUnitary:
    def test_matches_explicit_kron_noncontiguous(self, rng):
        reg = QubitRegister(("p", "q", "r"))
        psi = PureState(reg, random_pure(rng, 3))
        u = random_unitary(rng, 4)
        got = apply_unitary(psi, u, ("r", "p"))
        # oracle: permute (r, p, q), apply u x I, permute back
        perm = np.zeros((8, 8))
        for i in range(8):
            b = [(i >> 2) & 1, (i >> 1) & 1, i & 1]  # p, q, r
            j = (b[2] << 2) | (b[0] << 1) | b[1]  # r, p, q
            perm[j, i] = 1.0
        full = perm.T @ np.kron(u, np.eye(2)) @ perm
        np.testing.assert_allclose(got.amplitudes, full @ psi.amplitudes, atol=1e-12)

    def test_density_matrix_conjugation(self, rng):
        reg = QubitRegister(("p", "q"))
        rho = DensityMatrix(reg, random_density(rng, 2))
        u = random_unitary(rng, 2)
        got = apply_unitary(rho, u, ("q",))
        full = np.kron(np.eye(2), u)
        np.testing.assert_allclose(
            got.entries, full @ rho.entries @ full.conj().T, atol=1e-12
        )

    def test_rejects_nonunitary(self):
        psi = PureState.from_bits(QubitRegister(("p",)), "0")
        with pytest.raises(ValueError):
            apply_unitary(psi, np.array([[1, 0], [0, 2]]), ("p",))

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("density", [False, True])
    def test_rejects_non_finite_matrix(self, bad, density):
        state = PureState.from_bits(QubitRegister(("p",)), "0")
        if density:
            state = state.to_density()
        with pytest.raises(InvalidStateError):
            apply_unitary(state, np.full((2, 2), bad), ("p",))

    @pytest.mark.parametrize("density", [False, True])
    def test_repeated_labels_rejected(self, density):
        state = PureState.from_bits(QubitRegister(("p", "q")), "10")
        if density:
            state = state.to_density()
        cnot = np.eye(4)[[0, 1, 3, 2]]
        with pytest.raises(LabelError, match="distinct"):
            apply_unitary(state, cnot, ("q", "q"))


def _ordered_label_lists(labels):
    """Every ordered list of one or two distinct labels."""
    return [on for k in (1, 2) for on in itertools.permutations(labels, k)]


class TestKetAndDensityPathsAgree:
    """A gate or an outcome acts on a density matrix as on the ket it came from."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_apply_unitary(self, rng, n):
        psi = PureState(QubitRegister(tuple("pqrs"[:n])), random_pure(rng, n))
        for on in _ordered_label_lists(psi.register.labels):
            u = random_unitary(rng, 2 ** len(on))
            want = apply_unitary(psi, u, on).to_density()
            got = apply_unitary(psi.to_density(), u, on)
            np.testing.assert_allclose(got.entries, want.entries, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [3, 4])
    def test_post_select(self, rng, n):
        psi = PureState(QubitRegister(tuple("pqrs"[:n])), random_pure(rng, n))
        for on in _ordered_label_lists(psi.register.labels):
            outcome = random_pure(rng, len(on))
            ket, p_ket = post_select(psi, outcome, on)
            rho, p_rho = post_select(psi.to_density(), outcome, on)
            assert rho.register == ket.register
            assert abs(p_rho - p_ket) <= 1e-15
            np.testing.assert_allclose(
                rho.entries, ket.to_density().entries, rtol=0, atol=1e-14
            )


# a bare string is a sequence of characters: "d1" would be the labels d and 1
BARE_STRING_CALLS = {
    "apply_unitary": lambda state: apply_unitary(state, np.eye(4), "d1"),
    "post_select": lambda state: post_select(state, [1, 0, 0, 0], "AB"),
    "partial_trace": lambda state: partial_trace(state, "d1"),
    "subregister": lambda state: state.register.subregister("d1"),
    "axes": lambda state: state.register.axes("AB"),
}


@pytest.mark.parametrize("call", BARE_STRING_CALLS.values(), ids=BARE_STRING_CALLS.keys())
@pytest.mark.parametrize("density", [False, True])
def test_bare_string_label_list_rejected(call, density):
    state = PureState.from_bits(QubitRegister(("A", "B", "d1")), "000")
    if density:
        state = state.to_density()
    with pytest.raises(LabelError, match="got the string '(d1|AB)'$"):
        call(state)


class TestPurityFidelity:
    def test_pure_state_purity(self, rng):
        reg = QubitRegister(("p", "q"))
        psi = PureState(reg, random_pure(rng, 2))
        assert purity(psi) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_with_self(self, rng):
        reg = QubitRegister(("p", "q"))
        rho = DensityMatrix(reg, random_density(rng, 2))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed_pair(self):
        reg = QubitRegister(("q",))
        mixed = DensityMatrix.maximally_mixed(reg)
        assert fidelity(mixed, mixed) == pytest.approx(1.0, abs=1e-12)

    def test_zero_plus_overlap(self):
        reg = QubitRegister(("q",))
        zero = PureState.from_bits(reg, "0")
        plus = PureState(reg, PLUS)
        assert fidelity(zero, plus) == pytest.approx(0.5, abs=1e-12)
        assert fidelity(zero.to_density(), plus.to_density()) == pytest.approx(
            0.5, abs=1e-9
        )

    def test_symmetry(self, rng):
        reg = QubitRegister(("q",))
        a = DensityMatrix(reg, random_density(rng, 1))
        b = DensityMatrix(reg, random_density(rng, 1))
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)

    def test_register_mismatch(self):
        a = PureState.from_bits(QubitRegister(("p",)), "0")
        b = PureState.from_bits(QubitRegister(("p", "q")), "00")
        with pytest.raises(ValueError):
            fidelity(a, b)


class TestObservableSpec:
    @pytest.mark.parametrize(
        "basis",
        [
            np.eye(2) * 0.5,  # orthogonal columns, not unit
            np.array([[1.0, 1.0], [0.0, 1.0]]),  # unit first column, not orthogonal
            np.array([[1.0, 1.0], [1.0, 1.0]]) / np.sqrt(2),  # rank 1
            np.array([[1.0, 0.0], [0.0, 1.0 + 1e-9]]),  # off by more than 1e-10
        ],
        ids=["half-identity", "shear", "rank-1", "beyond-tolerance"],
    )
    def test_rejects_non_unitary_basis(self, basis):
        with pytest.raises(InvalidStateError, match="not unitary"):
            ObservableSpec("q", basis)

    @pytest.mark.parametrize(
        "basis",
        [np.eye(4), np.eye(2)[:, :1], np.ones(2), np.eye(2)[None], (np.eye(2), np.eye(2))],
        ids=["4x4", "2x1", "vector", "stack-of-one", "projector-pair"],
    )
    def test_rejects_non_2x2_basis(self, basis):
        with pytest.raises(InvalidStateError, match="2x2"):
            ObservableSpec("q", basis)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_rejects_non_finite_basis_entry(self, bad, entry):
        basis = np.eye(2, dtype=complex)
        basis[entry] = bad
        with pytest.raises(InvalidStateError):
            ObservableSpec("q", basis)

    def test_basis_is_a_read_only_copy(self, rng):
        given = random_unitary(rng, 2)
        obs = ObservableSpec("q", given)
        assert obs.basis is not given
        assert obs.basis.tobytes() == given.astype(complex).tobytes()
        given[0, 0] = 7.0
        assert obs.basis[0, 0] != 7.0
        with pytest.raises(ValueError):
            obs.basis[0, 0] = 1.0

    @pytest.mark.parametrize("kind", ["Z", "X", "Y", "x"])
    def test_pauli_keeps_the_read_only_table_entry(self, kind):
        obs = ObservableSpec.pauli("q", kind)
        assert obs.basis is _EIGENBASES[kind.upper()]
        assert not obs.basis.flags.writeable

    def test_basis_equal_to_a_table_entry_is_still_copied_and_checked(self):
        given = _EIGENBASES["X"].copy()
        assert ObservableSpec("q", given).basis is not given
        given[1, 1] = 1.0  # equal columns: not unitary
        with pytest.raises(InvalidStateError, match="not unitary"):
            ObservableSpec("q", given)
