"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import time

import numpy as np

from qreality import (
    DensityMatrix,
    ObservableSpec,
    QubitRegister,
    complementarity_check,
    dephasing_map,
    entanglement_entropy,
    irreality,
    monte_carlo_irreality,
    simulate_counts,
    tomography_end_to_end,
)
from qreality.cli import main as cli_main
from qreality.eraser import (
    ProtocolConfig,
    default_theta_grid,
    irreality_curve,
    omega_state,
)
from qreality.mzi import MziConfig, extended_output_analysis, visibility

from oracles import (
    binary_entropy_exact,
    dephase_block_zero,
    entropy_bits,
    random_density,
    random_unitary,
)

GRID = default_theta_grid(41)


def report(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:>2}: {status} - {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


def test_criterion_01_closed_form_curves():
    started = time.perf_counter()
    deviations = []
    cx = ProtocolConfig(theta=0.0, alice_config="Cx")
    cz = ProtocolConfig(theta=0.0, alice_config="Cz")
    for target in ("path_b", "d1", "d2"):
        curve = irreality_curve(cx, target, GRID)
        for theta, value in zip(curve.theta, curve.irreality):
            expected = binary_entropy_exact(np.cos(theta / 2) ** 2)
            deviations.append(abs(value - expected))
        deviations.extend(abs(irreality_curve(cz, target, GRID).irreality))
    # np.max, unlike max, propagates NaN, so an undefined row fails the bound
    worst = float(np.max(deviations))
    elapsed = time.perf_counter() - started
    report(
        1,
        "analytic curves match the binary-entropy closed form on a 41-point grid",
        worst < 1e-9 and elapsed < 1.0,
        f"max deviation {worst:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_02_endpoint_values():
    cx = ProtocolConfig(theta=0.0, alice_config="Cx")
    devs = []
    for target in ("path_b", "d1"):
        lo, hi = irreality_curve(cx, target, [0.0, np.pi / 2]).irreality
        devs.append(abs(lo - 0.0))
        devs.append(abs(hi - 1.0))
    report(
        2,
        "Cx irreality is 0 at theta=0 and 1 at theta=pi/2",
        np.max(devs) < 1e-9,  # NaN-propagating, so an undefined row fails
        f"max deviation {np.max(devs):.2e}",
    )


def test_criterion_03_decomposition_split():
    worst_discord_b = 0.0
    worst_coherence_d = 0.0
    for theta in GRID:
        cfg = ProtocolConfig(theta=float(theta), alice_config="Cx")
        omega_b, _ = omega_state(cfg, "b")
        rep_b = irreality(omega_b, ObservableSpec.pauli("b", "Z"))
        worst_discord_b = max(worst_discord_b, abs(rep_b.discord))
        for marker in ("d1", "d2"):
            omega_d, _ = omega_state(cfg, marker)
            rep_d = irreality(omega_d, ObservableSpec.pauli(marker, "Z"))
            worst_coherence_d = max(worst_coherence_d, abs(rep_d.coherence))
    report(
        3,
        "path irreality is pure coherence, marker irreality is pure discord",
        worst_discord_b < 1e-9 and worst_coherence_d < 1e-9,
        f"max |discord_b| {worst_discord_b:.2e}, max |coherence_d| {worst_coherence_d:.2e}",
    )


def test_criterion_04_entanglement_equality():
    worst = 0.0
    for theta in GRID:
        cfg = ProtocolConfig(theta=float(theta), alice_config="Cx")
        omega, _ = omega_state(cfg, "d1")
        irr = irreality(omega, ObservableSpec.pauli("d1", "Z")).irreality
        ee = entanglement_entropy(omega, (("b",), ("d1", "d2")))
        worst = max(worst, abs(irr - ee))
    report(
        4,
        "marker irreality equals the entanglement entropy across b | d1 d2",
        worst < 1e-9,
        f"max deviation {worst:.2e}",
    )


def test_criterion_05_tomography_fidelity():
    started = time.perf_counter()
    omega, _ = omega_state(ProtocolConfig(theta=np.pi / 2, alice_config="Cx"), "d1")
    fidelities = [
        tomography_end_to_end(omega, 100_000, seed).fidelity_to_truth
        for seed in range(20)
    ]
    elapsed = time.perf_counter() - started
    report(
        5,
        "end-to-end reconstruction at 1e5 shots reaches fidelity 0.99 over 20 seeds",
        min(fidelities) >= 0.99 and elapsed < 60.0,
        f"min fidelity {min(fidelities):.4f}, runtime {elapsed:.1f}s",
    )


def test_criterion_06_monte_carlo_error_bars():
    started = time.perf_counter()
    observable = ObservableSpec.pauli("d1", "Z")
    points = [GRID[i] for i in (8, 16, 24, 32, 40)]
    ok = True
    details = []
    for k, theta in enumerate(points):
        cfg = ProtocolConfig(theta=float(theta), alice_config="Cx")
        omega, _ = omega_state(cfg, "d1")
        data = simulate_counts(omega, 10_000, seed=100 + k)
        mean, std = monte_carlo_irreality(
            data, observable, 100, seed=200 + k, register=omega.register
        )
        analytic = binary_entropy_exact(np.cos(theta / 2) ** 2)
        ok = ok and np.isfinite(std) and std > 0 and abs(mean - analytic) <= 3 * std
        details.append(f"z={abs(mean - analytic) / std:.2f}")
    elapsed = time.perf_counter() - started
    report(
        6,
        "Monte Carlo means at 1e4 shots sit within 3 std of the analytic values",
        ok and elapsed < 120.0,
        f"{', '.join(details)}, runtime {elapsed:.1f}s",
    )


def test_criterion_07_mzi_visibility_and_markers():
    vis_closed = visibility(MziConfig(phi=0.0))
    vis_open = visibility(MziConfig(phi=0.0, closed=False))
    coherent = extended_output_analysis(MziConfig(phi=0.9, extended=True))
    decohered = extended_output_analysis(
        MziConfig(phi=0.9, extended=True, decohere_after_first_bs=True)
    )
    expected_mixture = np.zeros((4, 4), dtype=complex)
    expected_mixture[1, 1] = 0.5
    expected_mixture[2, 2] = 0.5
    mixture_dev = np.abs(decohered.postselected_state.entries - expected_mixture).max()
    passed = (
        abs(vis_closed - 1.0) < 1e-9
        and abs(vis_open) < 1e-9
        and abs(coherent.entanglement_entropy - 1.0) < 1e-9
        and decohered.ppt_separable
        and mixture_dev < 1e-10
    )
    report(
        7,
        "MZI visibilities and marker outputs match the interferometer analysis",
        passed,
        f"vis=({vis_closed:.3f}, {vis_open:.3f}), mixture deviation {mixture_dev:.1e}",
    )


def test_criterion_08_dephasing_oracle_equivalence():
    rng = np.random.default_rng(821)
    worst = 0.0
    for n, count in ((2, 250), (3, 250)):
        reg = QubitRegister(tuple(f"q{i}" for i in range(n)))
        for _ in range(count):
            rho = DensityMatrix(reg, random_density(rng, n))
            axis = int(rng.integers(n))
            basis = random_unitary(rng, 2)
            obs = ObservableSpec.from_basis(f"q{axis}", basis)
            via_projectors = (
                entropy_bits(dephasing_map(rho, obs).entries)
                - entropy_bits(rho.entries)
            )
            blocked = dephase_block_zero(rho.entries, axis, basis, n)
            via_blocks = entropy_bits(blocked) - entropy_bits(rho.entries)
            worst = max(worst, abs(via_projectors - via_blocks))
    report(
        8,
        "projector-sum and block-zero dephasing give identical irreality",
        worst < 1e-10,
        f"max deviation {worst:.2e} over 500 states",
    )


def test_criterion_09_complementarity_bound():
    rng = np.random.default_rng(913)
    reg = QubitRegister(("p", "q"))
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    violations = []
    for _ in range(500):
        rho = DensityMatrix(reg, random_density(rng, 2))
        u = random_unitary(rng, 2)
        res = complementarity_check(
            rho,
            ObservableSpec.from_basis("p", u),
            ObservableSpec.from_basis("p", u @ hadamard),
        )
        if not res.holds:
            violations.append((res.lhs, res.rhs))
    for lhs, rhs in violations:
        # logged rather than asserted pending the exact reading of the bound
        print(f"  complementarity violation logged: lhs={lhs:.12f} rhs={rhs:.12f}")
    report(
        9,
        "irreality sum dominates the mutual information on 500 random states",
        len(violations) == 0,
        f"{len(violations)} violations logged",
    )


def test_criterion_10_sweep_determinism(tmp_path):
    args = [
        "sweep",
        "--target",
        "d1",
        "--config",
        "Cx",
        "--grid",
        "5",
        "--tomo",
        "--shots",
        "2000",
        "--resamples",
        "20",
        "--seed",
        "42",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(args + ["--out-dir", str(out_a)])
    code_b = cli_main(args + ["--out-dir", str(out_b)])
    same = (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()
    report(
        10,
        "two sweep --tomo runs with identical manifests are byte-identical",
        code_a == 0 and code_b == 0 and same,
    )
