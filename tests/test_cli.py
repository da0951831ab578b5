import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qreality.cli
import qreality.mzi
from qreality import (
    DensityMatrix, MziConfig, ObservableSpec, QubitRegister, detector_probabilities, fidelity,
    monte_carlo_irreality, purity, save_dataset, simulate_counts, visibility,
)
from qreality.cli import (
    MAX_GRID, MAX_RESAMPLES, OMEGA_STATES, _reprs, _write_csv, build_parser, main,
)
from qreality.eraser import OMEGA_REGISTER, TARGETS, ProtocolConfig, irreality_curve, omega_state
from qreality.tomography import MAX_COUNT, load_dataset, reconstruct

from oracles import binary_entropy_exact, random_density

REPO = Path(__file__).resolve().parents[1]


def run(argv):
    """Invoke the CLI entry point, normalizing argparse's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def expected_csv(schema, header, rows):
    """A CLI CSV file's bytes: the schema line, then the csv module's default dialect."""
    out = io.StringIO(newline="")
    out.write(f"# schema: {schema}\n")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


def expected_sweep_csv(target, branch, grid, tomo=None):
    """The bytes `sweep --config both` should write, one row at a time.

    ``tomo`` is (shots, resamples, seed) for the tomography columns, drawn
    with the CLI's two child seeds per row.
    """
    rows = []
    for config in ("Cz", "Cx"):
        curve = irreality_curve(ProtocolConfig(0.0, config, branch), target, grid)
        for theta, value, prob, omega in zip(*curve):
            rows.append([theta, config, target, value, None, None, prob, omega])
    if tomo is not None:
        shots, resamples, seed = tomo
        child_seeds = np.random.SeedSequence(seed).generate_state(2 * len(rows))
        for row, (counts_seed, resample_seed) in zip(rows, child_seeds.reshape(-1, 2)):
            if row[6] > 0:
                counts = simulate_counts(DensityMatrix(OMEGA_REGISTER, row[7]), shots, counts_seed)
                row[4:6] = monte_carlo_irreality(
                    counts, ObservableSpec.pauli(target, "Z"), resamples, resample_seed
                )
    header = ["theta", "config", "target", "irreality_analytic",
              "irreality_tomo_mean", "irreality_tomo_std", "selection_probability"]
    fields = [
        [
            repr(float(theta)), config, label,
            repr(float(value)) if prob > 0 else "",
            "" if mean is None else repr(float(mean)),
            "" if std is None else repr(float(std)),
            repr(float(prob)),
        ]
        for theta, config, label, value, mean, std, prob, _ in rows
    ]
    return expected_csv("qreality.sweep.v1", header, fields)


def expected_mzi_csv(cfg, grid):
    """The bytes `mzi --grid <grid>` should write, one phase at a time."""
    phis = np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
    rows = [
        [repr(float(phi)), repr(float(p0)), repr(float(p1))]
        for phi, (p0, p1) in zip(phis, detector_probabilities(cfg, phis))
    ]
    return expected_csv("qreality.mzi.v1", ["phi", "p0", "p1"], rows)


def expected_rho_csv(rho):
    """The bytes `tomo` should write for ``rho``: one entry per row, rows in
    row-major order, kets read through the register's basis-index convention."""
    kets = ["".join(bits) for bits in itertools.product("01", repeat=rho.register.n_qubits)]
    rows = []
    for row_ket in kets:
        for col_ket in kets:
            i, j = rho.register.index_of(row_ket), rho.register.index_of(col_ket)
            rows.append([str(i), str(j), row_ket, col_ket, repr(float(rho.entries[i, j].real))])
    return expected_csv("qreality.rho-real.v1", ["row", "col", "row_ket", "col_ket", "real"], rows)


def mzi_config(flags):
    """The MziConfig an `mzi` run with ``flags`` sweeps."""
    return MziConfig(
        phi=0.0,
        closed="--open" not in flags,
        extended="--extended" in flags,
        decohere_after_first_bs="--decohere" in flags,
    )


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        schema = fh.readline()
        rows = list(csv.DictReader(fh))
    return schema, rows


class TestSweep:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "run"
        assert run(["sweep", "--grid", "5", "--out-dir", str(out)]) == 0
        assert (out / "sweep.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "manifest.json").exists()

    def test_schema_line_and_columns(self, tmp_path):
        out = tmp_path / "run"
        run(["sweep", "--grid", "3", "--out-dir", str(out)])
        schema, rows = read_csv(out / "sweep.csv")
        assert schema.strip() == "# schema: qreality.sweep.v1"
        assert set(rows[0]) == {
            "theta",
            "config",
            "target",
            "irreality_analytic",
            "irreality_tomo_mean",
            "irreality_tomo_std",
            "selection_probability",
        }

    def test_cx_rows_match_binary_entropy(self, tmp_path):
        out = tmp_path / "run"
        run(["sweep", "--target", "b", "--grid", "41", "--out-dir", str(out)])
        _, rows = read_csv(out / "sweep.csv")
        cx = [r for r in rows if r["config"] == "Cx"]
        assert len(cx) == 41
        for row in cx:
            theta = float(row["theta"])
            expected = binary_entropy_exact(np.cos(theta / 2) ** 2)
            assert float(row["irreality_analytic"]) == pytest.approx(expected, abs=1e-9)

    def test_cz_rows_are_zero(self, tmp_path):
        out = tmp_path / "run"
        run(
            [
                "sweep",
                "--target",
                "d1",
                "--config",
                "Cz",
                "--grid",
                "11",
                "--out-dir",
                str(out),
            ]
        )
        _, rows = read_csv(out / "sweep.csv")
        assert rows and all(r["config"] == "Cz" for r in rows)
        for row in rows:
            assert abs(float(row["irreality_analytic"])) < 1e-9

    @pytest.mark.parametrize("target", ["b", "d1", "d2"])
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_real_rows_read_exactly_zero(self, tmp_path, target, branch):
        args = ["sweep", "--target", target, "--branch", branch,
                "--theta-max", repr(np.pi), "--out-dir", str(tmp_path)]
        assert run(args) == 0
        _, rows = read_csv(tmp_path / "sweep.csv")
        cz = [r["irreality_analytic"] for r in rows if r["config"] == "Cz"]
        # Alice's |0> never occurs at theta = pi, her |1> never at theta = 0
        assert cz.pop(-1 if branch == "plus" else 0) == ""
        assert cz == ["0.0"] * 40
        cx_at_zero = [r for r in rows if r["config"] == "Cx" and r["theta"] == "0.0"]
        assert [r["irreality_analytic"] for r in cx_at_zero] == ["0.0"]

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    @pytest.mark.parametrize("tomo", [False, True])
    def test_file_is_the_curve_columns_row_by_row(self, tmp_path, target, branch, tomo):
        # row order, label columns, empty fields and undefined rows of the
        # assembled file; both theta ends are included, so each branch has
        # one undefined Cz row
        args = ["sweep", "--target", target, "--branch", branch,
                "--theta-max", repr(np.pi), "--out-dir", str(tmp_path)]
        grid = np.linspace(0.0, np.pi, 3 if tomo else 41)
        if tomo:
            args += ["--tomo", "--grid", "3", "--resamples", "20"]
        assert run(args) == 0
        want = expected_sweep_csv(target, branch, grid, (10_000, 20, 42) if tomo else None)
        assert (tmp_path / "sweep.csv").read_bytes() == want
        if not tomo:  # a --tomo row's seeds depend on its place in the whole file
            # below the schema line and the header, `--config both` is the Cz
            # file's rows followed by the Cx file's rows
            parts = []
            for config in ("Cz", "Cx"):
                assert run(args + ["--config", config, "--out-dir", str(tmp_path / config)]) == 0
                parts.append((tmp_path / config / "sweep.csv").read_bytes().split(b"\n", 2)[2])
            assert want.split(b"\n", 2)[2] == b"".join(parts)

    def test_nan_in_defined_row_is_written_as_nan(self, tmp_path, monkeypatch):
        # a field is empty only for an undefined row or without --tomo; a
        # value that comes out NaN on a defined row stays visible
        monkeypatch.setattr(qreality.cli, "monte_carlo_irreality", lambda *a: (np.nan, np.nan))
        args = ["sweep", "--config", "Cz", "--tomo", "--grid", "2", "--resamples", "2",
                "--theta-max", repr(np.pi), "--out-dir", str(tmp_path)]
        assert run(args) == 0
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert [float(r["selection_probability"]) > 0 for r in rows] == [True, False]
        assert [r["irreality_tomo_mean"] for r in rows] == ["nan", ""]
        assert [r["irreality_tomo_std"] for r in rows] == ["nan", ""]

    def test_zero_grid_is_usage_error(self, tmp_path):
        code = run(["sweep", "--grid", "0", "--out-dir", str(tmp_path)])
        assert code == 2

    def test_stage_target_mismatch_is_usage_error(self, tmp_path, capsys):
        # the stage follows from --target (b at Psi1, d1 and d2 at Psi2), so
        # there is no --stage flag, matching the target or not
        for stage in ("1", "2"):
            code = run(
                ["sweep", "--stage", stage, "--target", "b", "--out-dir", str(tmp_path)]
            )
            assert code == 2
            assert f"unrecognized arguments: --stage {stage}" in capsys.readouterr().err
        assert not tmp_path.joinpath("sweep.csv").exists()

    def test_target_is_a_qubit_label(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["sweep", "--target", "path_b", "--out-dir", str(out)]) == 2
        assert "invalid choice: 'path_b' (choose from " in capsys.readouterr().err
        assert not out.exists()

    def test_cz_minus_branch_is_alice_one_outcome(self, tmp_path):
        runs = {}
        for branch in ("plus", "minus"):
            out = tmp_path / branch
            args = ["sweep", "--config", "Cz", "--branch", branch,
                    "--theta-max", repr(np.pi), "--out-dir", str(out)]
            assert run(args) == 0
            runs[branch] = (out / "sweep.csv").read_bytes()
        assert runs["plus"] != runs["minus"]
        _, rows = read_csv(tmp_path / "minus" / "sweep.csv")
        assert rows[0]["irreality_analytic"] == ""  # theta = 0: Alice's |1> never occurs
        assert rows[0]["selection_probability"] == "0.0"
        assert rows[-1]["irreality_analytic"] == "0.0"  # theta = pi is defined
        for row in rows[1:]:
            assert row["irreality_analytic"] == "0.0"
            expected = np.sin(float(row["theta"]) / 2) ** 2 / 2
            assert float(row["selection_probability"]) == pytest.approx(expected, abs=1e-12)

    def test_bad_theta_range_is_usage_error(self, tmp_path):
        code = run(
            [
                "sweep",
                "--theta-min",
                "1.0",
                "--theta-max",
                "0.5",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 2

    def test_degrees_flag(self, tmp_path):
        out = tmp_path / "run"
        run(
            [
                "sweep",
                "--degrees",
                "--theta-min",
                "0",
                "--theta-max",
                "90",
                "--grid",
                "3",
                "--config",
                "Cx",
                "--out-dir",
                str(out),
            ]
        )
        _, rows = read_csv(out / "sweep.csv")
        assert float(rows[-1]["theta"]) == pytest.approx(np.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("degrees", [[], ["--degrees"]])
    @pytest.mark.parametrize("tomo", [[], ["--tomo", "--resamples", "2", "--shots", "100"]])
    def test_negative_zero_theta_range_is_the_zero_run(self, tmp_path, degrees, tomo):
        # -0.0 is the theta = 0 row, so it writes the theta = 0 bytes
        argv = ["sweep", "--grid", "2", *degrees, *tomo]
        bounds = {"neg": "-0.0", "pos": "0.0"}
        for name, bound in bounds.items():
            out = str(tmp_path / name)
            assert run(argv + ["--theta-min", bound, "--theta-max", bound, "--out-dir", out]) == 0
        for name in ("sweep.csv", "summary.json"):
            assert (tmp_path / "neg" / name).read_bytes() == (tmp_path / "pos" / name).read_bytes()
        assert "-0.0" not in (tmp_path / "neg" / "sweep.csv").read_text()
        manifest = json.loads((tmp_path / "neg" / "manifest.json").read_text())
        assert not np.signbit([manifest["config"]["theta_min"], manifest["config"]["theta_max"]]).any()

    def test_tomo_columns_and_determinism(self, tmp_path):
        args = [
            "sweep",
            "--target",
            "d1",
            "--config",
            "Cx",
            "--grid",
            "3",
            "--tomo",
            "--shots",
            "2000",
            "--resamples",
            "10",
            "--seed",
            "5",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out-dir", str(out_a)]) == 0
        assert run(args + ["--out-dir", str(out_b)]) == 0
        bytes_a = (out_a / "sweep.csv").read_bytes()
        bytes_b = (out_b / "sweep.csv").read_bytes()
        assert bytes_a == bytes_b
        _, rows = read_csv(out_a / "sweep.csv")
        for row in rows:
            assert float(row["irreality_tomo_std"]) > 0
            assert row["irreality_tomo_mean"] != ""

    def test_tomo_rerun_is_byte_identical(self, tmp_path):
        args = [
            "sweep",
            "--target",
            "d1",
            "--config",
            "Cx",
            "--grid",
            "4",
            "--tomo",
            "--shots",
            "1000",
            "--resamples",
            "8",
            "--seed",
            "3",
        ]
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(args + ["--out-dir", str(first)]) == 0
        assert run(args + ["--out-dir", str(second)]) == 0
        for name in ("sweep.csv", "summary.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        summary = json.loads((first / "summary.json").read_text())
        assert "threads" not in summary["config"]

    @pytest.mark.parametrize("config", ["Cz", "Cx"])
    @pytest.mark.parametrize("tomo", [False, True])
    def test_theta_pi_row_is_written(self, tmp_path, config, tomo):
        args = ["sweep", "--target", "d1", "--config", config, "--grid", "3",
                "--theta-max", "3.141592653589793", "--out-dir", str(tmp_path)]
        if tomo:
            args += ["--tomo", "--shots", "500", "--resamples", "5"]
        assert run(args) == 0
        _, rows = read_csv(tmp_path / "sweep.csv")
        last = rows[-1]
        assert float(last["theta"]) == np.pi
        if config == "Cz":
            assert last["irreality_analytic"] == ""
            assert last["selection_probability"] == "0.0"
            assert last["irreality_tomo_mean"] == last["irreality_tomo_std"] == ""
        else:
            assert float(last["irreality_analytic"]) == pytest.approx(0.0, abs=1e-9)
            assert float(last["selection_probability"]) == pytest.approx(0.25, abs=1e-12)
            assert (last["irreality_tomo_mean"] != "") == tomo
        for row in rows[:-1]:
            assert row["irreality_analytic"] != ""
            assert (row["irreality_tomo_std"] != "") == tomo

    def test_shots_at_int64_limit_runs(self, tmp_path):
        args = ["sweep", "--tomo", "--grid", "1", "--resamples", "2", "--out-dir", str(tmp_path)]
        assert run(args + ["--shots", "9223372036854775807"]) == 0
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert all(row["irreality_tomo_std"] != "" for row in rows)

    @pytest.mark.parametrize(
        "argv, flag, limit",
        [
            (["sweep", "--grid"], "--grid", MAX_GRID),
            (["sweep", "--tomo", "--grid", "1", "--resamples"], "--resamples", MAX_RESAMPLES),
            (["mzi", "--grid"], "--grid", MAX_GRID),
        ],
    )
    def test_size_beyond_limit_is_usage_error(self, tmp_path, capsys, argv, flag, limit):
        # the bootstrap's memory does not grow with --resamples; its run time does
        why = {
            "--grid": "to bound memory",
            "--resamples": "to bound run time (about 5 s per tomographic row)",
        }[flag]
        assert run(argv + [str(limit + 1), "--out-dir", str(tmp_path)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines[-1] == f"qreality: error: {flag} must be at most {limit}, {why}"
        assert not tmp_path.joinpath("sweep.csv").exists()


class TestTomo:
    def test_simulated_run_reports_high_fidelity(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            [
                "tomo",
                "--simulate",
                "--state",
                "omega2x",
                "--theta",
                "1.5708",
                "--shots",
                "100000",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["fidelity_to_truth"] >= 0.99
        matrix = json.loads((out / "density_matrix.json").read_text())
        assert matrix["labels"] == ["b", "d1", "d2"]
        assert len(matrix["real"]) == 8

    def test_omega1z_minus_branch_is_alice_one_outcome(self, tmp_path):
        out = tmp_path / "run"
        argv = ["tomo", "--simulate", "--state", "omega1z", "--branch", "minus",
                "--theta", "2.0", "--shots", "100000", "--out-dir", str(out)]
        assert run(argv) == 0
        matrix = json.loads((out / "density_matrix.json").read_text())
        rho = np.array(matrix["real"]) + 1j * np.array(matrix["imag"])
        truth, _ = omega_state(ProtocolConfig(2.0, "Cz", "minus"), "b")
        plus, _ = omega_state(ProtocolConfig(2.0, "Cz", "plus"), "b")
        assert fidelity(DensityMatrix(truth.register, rho), truth) >= 0.99
        assert fidelity(truth, plus) < 0.5  # the two branches are told apart

    def test_omega2z_purity(self, tmp_path):
        out = tmp_path / "run"
        run(
            [
                "tomo",
                "--simulate",
                "--state",
                "omega2z",
                "--theta",
                "0.8",
                "--out-dir",
                str(out),
            ]
        )
        report = json.loads((out / "report.json").read_text())
        assert report["purity"] >= 0.99

    def test_bar_chart_csv_schema(self, tmp_path):
        out = tmp_path / "run"
        run(["tomo", "--simulate", "--shots", "1000", "--out-dir", str(out)])
        schema, rows = read_csv(out / "density_matrix_real.csv")
        assert schema.strip() == "# schema: qreality.rho-real.v1"
        assert len(rows) == 64
        assert set(rows[0]) == {"row", "col", "row_ket", "col_ket", "real"}

    @pytest.mark.parametrize("state", sorted(OMEGA_STATES))
    def test_simulated_csv_is_the_estimate_entry_by_entry(self, tmp_path, state):
        assert run(["tomo", "--simulate", "--state", state, "--shots", "1000",
                    "--out-dir", str(tmp_path)]) == 0
        target, config = OMEGA_STATES[state]
        truth, _ = omega_state(ProtocolConfig(np.pi / 2, config), target)
        rho = reconstruct(simulate_counts(truth, 1000, 42)).rho_physical
        assert (tmp_path / "density_matrix_real.csv").read_bytes() == expected_rho_csv(rho)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_file_csv_is_the_estimate_entry_by_entry(self, tmp_path, rng, n):
        register = QubitRegister(tuple(f"x{k}" for k in range(n)))
        dataset_path = tmp_path / "counts.json"
        save_dataset(simulate_counts(DensityMatrix(register, random_density(rng, n)), 2000, n),
                     dataset_path)
        out = tmp_path / "run"
        assert run(["tomo", str(dataset_path), "--out-dir", str(out)]) == 0
        rho = reconstruct(load_dataset(dataset_path)).rho_physical
        assert rho.register.labels == tuple(f"q{k}" for k in range(n))
        assert (out / "density_matrix_real.csv").read_bytes() == expected_rho_csv(rho)

    def test_dataset_file_pipeline(self, tmp_path):
        omega, _ = omega_state(
            ProtocolConfig(theta=np.pi / 2, alice_config="Cx"), "d1"
        )
        data = simulate_counts(omega, 50_000, seed=9)
        dataset_path = tmp_path / "counts.json"
        save_dataset(data, dataset_path)
        out = tmp_path / "run"
        assert run(["tomo", str(dataset_path), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["fidelity_to_truth"] is None
        assert report["purity"] > 0.9

    @pytest.mark.parametrize(
        "state, shots, seed", [("omega1z", 300, 1), ("omega2x", 10_000, 42), ("omega1x", 1000, 8)]
    )
    def test_simulated_and_file_paths_agree(self, tmp_path, state, shots, seed):
        target, config = OMEGA_STATES[state]
        omega, _ = omega_state(ProtocolConfig(theta=float(np.pi / 2), alice_config=config), target)
        dataset_path = tmp_path / "counts.json"
        save_dataset(simulate_counts(omega, shots, seed), dataset_path)
        sim, file = tmp_path / "sim", tmp_path / "file"
        argv = ["--state", state, "--shots", str(shots), "--seed", str(seed)]
        assert run(["tomo", "--simulate", *argv, "--out-dir", str(sim)]) == 0
        assert run(["tomo", str(dataset_path), "--out-dir", str(file)]) == 0

        name = "density_matrix_real.csv"
        assert (sim / name).read_bytes() == (file / name).read_bytes()
        matrices = [json.loads((d / "density_matrix.json").read_text()) for d in (sim, file)]
        for part in ("real", "imag"):
            assert matrices[0][part] == matrices[1][part]
        # a file names no qubits, so its matrix is on q0 ... q2
        assert [m["labels"] for m in matrices] == [["b", "d1", "d2"], ["q0", "q1", "q2"]]
        reports = [json.loads((d / "report.json").read_text()) for d in (sim, file)]
        assert reports[0]["diagnostics"] == reports[1]["diagnostics"]
        assert reports[0]["purity"] == reports[1]["purity"]
        assert "clipped_negative_mass" in reports[1]["diagnostics"]

    def test_relabelled_file_reproduces_the_simulated_matrix(self, tmp_path):
        # a file names no qubits; replacing the loaded dataset's register names them
        omega, _ = omega_state(ProtocolConfig(theta=np.pi / 2, alice_config="Cx"), "d1")
        dataset_path = tmp_path / "counts.json"
        save_dataset(simulate_counts(omega, 100_000, 42), dataset_path)
        data = dataclasses.replace(load_dataset(dataset_path), register=OMEGA_REGISTER)
        rho = reconstruct(data).rho_physical
        sim = tmp_path / "sim"
        argv = ["--state", "omega2x", "--shots", "100000", "--seed", "42", "--out-dir", str(sim)]
        assert run(["tomo", "--simulate", *argv]) == 0
        matrix = {
            "labels": ["b", "d1", "d2"],
            "real": rho.entries.real.tolist(),
            "imag": rho.entries.imag.tolist(),
        }
        expected = json.dumps(matrix, indent=2) + "\n"
        assert (sim / "density_matrix.json").read_text(encoding="utf-8") == expected
        assert (sim / "density_matrix_real.csv").read_bytes() == expected_rho_csv(rho)

    def test_dataset_seed_is_printed_and_recorded(self, tmp_path, capsys):
        omega, _ = omega_state(ProtocolConfig(theta=1.0, alice_config="Cx"), "d1")
        dataset_path = tmp_path / "counts.json"
        save_dataset(simulate_counts(omega, 1000, seed=7), dataset_path)
        out = tmp_path / "run"
        assert run(["tomo", str(dataset_path), "--out-dir", str(out)]) == 0
        assert "seed: 7" in capsys.readouterr().out
        assert json.loads((out / "manifest.json").read_text())["seed"] == 7

    def test_three_qubit_dataset_gets_generic_labels(self, tmp_path):
        omega, _ = omega_state(ProtocolConfig(theta=1.0, alice_config="Cx"), "d1")
        dataset_path = tmp_path / "counts.json"
        save_dataset(simulate_counts(omega, 1000, seed=7), dataset_path)
        out = tmp_path / "run"
        assert run(["tomo", str(dataset_path), "--out-dir", str(out)]) == 0
        matrix = json.loads((out / "density_matrix.json").read_text())
        assert matrix["labels"] == ["q0", "q1", "q2"]

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_psd_estimate_reports_positive_zero_clipped_mass(self, tmp_path, n_qubits):
        # uniform counts invert to the maximally mixed state: no negative eigenvalue
        payload = {
            "n_qubits": n_qubits,
            "shots_per_setting": 100 * 2**n_qubits,
            "seed": 3,
            "settings": [
                {"bases": list(bases), "counts": [100] * 2**n_qubits}
                for bases in itertools.product("ZXY", repeat=n_qubits)
            ],
        }
        dataset_path = tmp_path / "counts.json"
        dataset_path.write_text(json.dumps(payload))
        out = tmp_path / "run"
        assert run(["tomo", str(dataset_path), "--out-dir", str(out)]) == 0
        text = (out / "report.json").read_text()
        assert '"clipped_negative_mass": 0.0,' in text
        assert "-0.0" not in text

    def test_zero_shots_is_usage_error_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["tomo", "--simulate", "--shots", "0", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "qreality: error: --shots must be at least 1"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "theta", [["4"], ["nan"], ["inf"], ["-0.1"], ["181", "--degrees"]]
    )
    def test_bad_theta_is_usage_error_before_any_output(self, tmp_path, capsys, theta):
        out = tmp_path / "run"
        assert run(["tomo", "--simulate", "--theta", *theta, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "qreality: error: --theta must satisfy 0 <= theta <= pi"
        )
        assert not out.exists()

    @pytest.mark.parametrize("theta", [["0"], ["180", "--degrees"], [repr(np.pi)]])
    def test_theta_range_ends_run(self, tmp_path, theta):
        argv = ["tomo", "--simulate", "--shots", "100", "--theta", *theta]
        assert run(argv + ["--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("negative_zero", [["-0.0"], ["-0.0", "--degrees"]])
    def test_negative_zero_theta_is_the_zero_run(self, tmp_path, negative_zero):
        # -0.0 prepares the theta = 0 state, so it writes the theta = 0 bytes
        argv = ["tomo", "--simulate", "--shots", "1000", "--theta"]
        assert run(argv + negative_zero + ["--out-dir", str(tmp_path / "neg")]) == 0
        assert run(argv + ["0.0", "--out-dir", str(tmp_path / "pos")]) == 0
        for name in ("report.json", "density_matrix.json", "density_matrix_real.csv"):
            assert (tmp_path / "neg" / name).read_bytes() == (tmp_path / "pos" / name).read_bytes()
        manifest = json.loads((tmp_path / "neg" / "manifest.json").read_text())
        assert not np.signbit(manifest["config"]["theta"])

    def test_zero_probability_state_fails_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["tomo", "--simulate", "--state", "omega1z", "--theta", repr(np.pi)]
        assert run(argv + ["--out-dir", str(out)]) == 1
        assert "zero probability" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_dataset_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_qubits": 1}')
        code = run(["tomo", str(bad), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "shots_per_setting" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n_qubits, seed, message",
        [
            (True, 0, "n_qubits: expected positive integer"),
            (6, 0, "n_qubits: 6 exceeds the maximum of 4"),
            (1, None, "seed: expected integer"),
            (1, 1.5, "seed: expected integer, got 1.5"),
            (1, True, "seed: expected integer, got True"),
            (1, "7", "seed: expected integer, got '7'"),
        ],
    )
    def test_rejected_header_is_one_error_line(
        self, tmp_path, capsys, n_qubits, seed, message
    ):
        payload = {
            "n_qubits": n_qubits,
            "shots_per_setting": 10,
            "seed": seed,
            "settings": [{"bases": ["Z"], "counts": [10, 0]}],
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run(["tomo", str(bad), "--out-dir", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and message in lines[0]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("seed", "a" * 10**6, "error: seed: expected integer, got 'aaa"),
            ("n_qubits", [1] * 300_000, "error: n_qubits: expected positive integer, got [1, "),
            ("bases", "Q" * 500_000, "error: settings[0].bases: unknown measurement basis 'QQQ"),
            ("seed", json.loads("[" * 950 + "]" * 950), "error: seed: expected integer, got [[["),
        ],
        ids=["long-seed", "long-n_qubits", "long-basis", "deep-seed"],
    )
    def test_oversized_value_is_one_short_error_line(self, tmp_path, capsys, field, value, message):
        # a rejected value is echoed cut to 80 characters; the line still names the field
        payload = {
            "n_qubits": 1,
            "shots_per_setting": 10,
            "seed": 0,
            "settings": [{"bases": [b], "counts": [5, 5]} for b in ("Z", "X", "Y")],
        }
        if field == "bases":
            payload["settings"][0]["bases"] = [value]
        else:
            payload[field] = value
        bad = tmp_path / "oversized.json"
        bad.write_text(json.dumps(payload))
        assert run(["tomo", str(bad), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert len(err.encode()) <= 300
        assert err.count("\n") == 1 and err.startswith(message), err

    def test_duplicate_setting_is_one_error_line(self, tmp_path, capsys):
        payload = {
            "n_qubits": 1,
            "shots_per_setting": 10,
            "seed": 0,
            "settings": [
                {"bases": [b], "counts": [5, 5]} for b in ("Z", "X", "Y", "X")
            ],
        }
        bad = tmp_path / "duplicate.json"
        bad.write_text(json.dumps(payload))
        assert run(["tomo", str(bad), "--out-dir", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: settings[3]: ") and "settings[1]" in lines[0]

    def test_counts_beyond_int64_are_one_error_line(self, tmp_path, capsys):
        payload = {
            "n_qubits": 1,
            "shots_per_setting": 2**71,
            "seed": 0,
            "settings": [
                {"bases": [b], "counts": [2**70, 0]} for b in ("Z", "X", "Y")
            ],
        }
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(payload))
        assert run(["tomo", str(bad), "--out-dir", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: shots_per_setting: ")

    @pytest.mark.parametrize("shots", [MAX_COUNT + 1, 10**20])
    @pytest.mark.parametrize("command", [["sweep", "--tomo"], ["tomo", "--simulate"]])
    def test_shots_flag_beyond_int64_is_usage_error(self, tmp_path, capsys, command, shots):
        out = tmp_path / "run"
        assert run(command + ["--shots", str(shots), "--out-dir", str(out)]) == 2
        assert "--shots must be at most 9223372036854775807" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, code",
        [
            (["sweep", "--tomo", "--grid", "1"], 2),
            (["tomo", "--simulate"], 2),
            (["sweep", "--grid", "3"], 0),  # no --tomo: nothing is drawn, any seed runs
        ],
    )
    def test_negative_seed_is_usage_error_where_it_draws(self, tmp_path, capsys, command, code):
        out = tmp_path / "run"
        assert run(command + ["--seed", "-1", "--out-dir", str(out)]) == code
        if code == 2:
            assert capsys.readouterr().err.splitlines()[-1] == (
                "qreality: error: --seed must be at least 0"
            )
        assert out.exists() == (code == 0)

    def test_missing_setting_is_runtime_error(self, tmp_path):
        payload = {
            "n_qubits": 1,
            "shots_per_setting": 10,
            "seed": 0,
            "settings": [{"bases": ["Z"], "counts": [10, 0]}],
        }
        bad = tmp_path / "partial.json"
        bad.write_text(json.dumps(payload))
        assert run(["tomo", str(bad), "--out-dir", str(tmp_path / "out")]) == 1

    def test_needs_exactly_one_source(self, tmp_path):
        assert run(["tomo", "--out-dir", str(tmp_path)]) == 2

    def test_deeply_nested_dataset_is_one_error_line(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        out = tmp_path / "out"
        assert run(["tomo", str(deep), "--out-dir", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == ["error: invalid JSON: nested too deeply"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag",
        [
            ["--state", "omega1z"],
            ["--theta", "nan"],
            ["--degrees"],
            ["--branch", "minus"],
            ["--shots", "0"],
            ["--seed", "5"],
        ],
    )
    def test_simulate_flag_with_dataset_is_usage_error(self, tmp_path, capsys, flag):
        omega, _ = omega_state(ProtocolConfig(theta=1.0, alice_config="Cx"), "d1")
        dataset_path = tmp_path / "counts.json"
        save_dataset(simulate_counts(omega, 100, seed=7), dataset_path)
        out = tmp_path / "out"
        assert run(["tomo", str(dataset_path), *flag, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"qreality: error: {flag[0]} applies only with --simulate"
        )
        assert not out.exists()

    def test_simulate_defaults_match_explicit_flags(self, tmp_path):
        implicit, explicit = tmp_path / "implicit", tmp_path / "explicit"
        assert run(["tomo", "--simulate", "--out-dir", str(implicit)]) == 0
        argv = [
            "tomo", "--simulate", "--state", "omega2x", "--theta", repr(np.pi / 2),
            "--branch", "plus", "--shots", "100000", "--seed", "42",
        ]
        assert run(argv + ["--out-dir", str(explicit)]) == 0
        for name in ("density_matrix.json", "density_matrix_real.csv", "report.json"):
            assert (implicit / name).read_bytes() == (explicit / name).read_bytes()
        manifests = [json.loads((d / "manifest.json").read_text()) for d in (implicit, explicit)]
        assert manifests[0]["config"] == manifests[1]["config"]
        assert manifests[0]["seed"] == manifests[1]["seed"] == 42

    @pytest.mark.parametrize(
        "state, theta, shots, seed", [("omega2x", 1.2, 5000, 3), ("omega1z", 0.6, 800, 11)]
    )
    def test_simulated_report_is_the_library_result(self, tmp_path, state, theta, shots, seed):
        out = tmp_path / "run"
        argv = ["--state", state, "--theta", repr(theta), "--shots", str(shots)]
        argv += ["--seed", str(seed)]
        assert run(["tomo", "--simulate", *argv, "--out-dir", str(out)]) == 0
        target, config = OMEGA_STATES[state]
        omega, _ = omega_state(ProtocolConfig(theta=theta, alice_config=config), target)
        result = reconstruct(simulate_counts(omega, shots, seed))
        report = json.loads((out / "report.json").read_text())
        assert report["fidelity_to_truth"] == fidelity(result.rho_physical, omega)
        assert report["purity"] == purity(result.rho_physical)
        assert report["diagnostics"] == result.diagnostics
        matrix = json.loads((out / "density_matrix.json").read_text())
        assert matrix["labels"] == list(omega.register.labels)
        assert matrix["real"] == result.rho_physical.entries.real.tolist()
        assert matrix["imag"] == result.rho_physical.entries.imag.tolist()


MZI_FLAG_SETS = [
    [device, *extended, *decohere]
    for device in ("--closed", "--open")
    for extended in ([], ["--extended"])
    for decohere in ([], ["--decohere"])
]


class TestMzi:
    def test_closed_summary(self, tmp_path):
        out = tmp_path / "run"
        assert run(["mzi", "--closed", "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["visibility"] == 1.0

    def test_open_summary(self, tmp_path):
        out = tmp_path / "run"
        run(["mzi", "--open", "--out-dir", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["visibility"] == 0.0

    def test_extended_decohered_flags_separable(self, tmp_path):
        out = tmp_path / "run"
        run(["mzi", "--extended", "--decohere", "--out-dir", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["extended_analysis"]["ppt_separable"] is True
        assert summary["extended_analysis"]["entanglement_entropy"] == pytest.approx(
            0.0, abs=1e-9
        )

    def test_extended_coherent_entangled(self, tmp_path):
        out = tmp_path / "run"
        run(["mzi", "--extended", "--phi", "0.5", "--out-dir", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["extended_analysis"]["ppt_separable"] is False
        assert summary["extended_analysis"]["entanglement_entropy"] == pytest.approx(
            1.0, abs=1e-9
        )

    def test_csv_matches_fringe(self, tmp_path):
        out = tmp_path / "run"
        run(["mzi", "--grid", "16", "--out-dir", str(out)])
        schema, rows = read_csv(out / "mzi.csv")
        assert schema.strip() == "# schema: qreality.mzi.v1"
        assert len(rows) == 16
        for row in rows:
            phi = float(row["phi"])
            assert float(row["p0"]) == pytest.approx(np.cos(phi / 2) ** 2, abs=1e-12)

    def test_zero_grid_usage_error(self, tmp_path):
        assert run(["mzi", "--grid", "0", "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flags", [[], ["--extended"], ["--open", "--extended"]])
    @pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
    def test_non_finite_phi_is_usage_error_before_any_output(self, tmp_path, capsys, flags, phi):
        out = tmp_path / "run"
        assert run(["mzi", *flags, f"--phi={phi}", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "qreality: error: --phi must be a finite number"
        )
        assert not out.exists()

    @pytest.mark.parametrize("decohere", [[], ["--decohere"]])
    def test_open_extended_entropy_is_positive_zero(self, tmp_path, decohere):
        assert run(["mzi", "--open", "--extended", *decohere, "--out-dir", str(tmp_path)]) == 0
        text = (tmp_path / "summary.json").read_text()
        assert '"entanglement_entropy": 0.0,' in text
        assert "-0.0" not in text

    @pytest.mark.parametrize("flags", [["--extended"], ["--open", "--extended", "--decohere"]])
    def test_negative_zero_phi_is_the_zero_run(self, tmp_path, flags):
        # -0.0 is the phi = 0 device, so it writes the phi = 0 bytes
        for name, phi in {"neg": "-0.0", "pos": "0.0"}.items():
            assert run(["mzi", *flags, "--phi", phi, "--out-dir", str(tmp_path / name)]) == 0
        for name in ("mzi.csv", "summary.json"):
            assert (tmp_path / "neg" / name).read_bytes() == (tmp_path / "pos" / name).read_bytes()
        manifest = json.loads((tmp_path / "neg" / "manifest.json").read_text())
        assert not np.signbit(manifest["config"]["phi"])

    def test_grid_sizes_in_one_process_match_fresh_processes(self, tmp_path):
        # the phi text is cached for one grid size; switching sizes
        # in one process must write what a fresh process writes
        src = str(Path(qreality.cli.__file__).resolve().parents[1])
        fresh = {}
        for grid in ("255", "256"):
            out = tmp_path / f"fresh{grid}"
            argv = ["-m", "qreality", "mzi", "--extended", "--grid", grid, "--out-dir", str(out)]
            proc = subprocess.run([sys.executable, *argv], env={**os.environ, "PYTHONPATH": src})
            assert proc.returncode == 0
            fresh[grid] = out
        for k, grid in enumerate(("255", "256", "255")):
            out = tmp_path / str(k)
            assert run(["mzi", "--extended", "--grid", grid, "--out-dir", str(out)]) == 0
            for name in ("mzi.csv", "summary.json"):
                assert (out / name).read_bytes() == (fresh[grid] / name).read_bytes(), (k, name)

    def test_phase_text_cache_is_bounded_and_immutable(self, tmp_path):
        assert run(["mzi", "--grid", "8", "--out-dir", str(tmp_path)]) == 0
        assert qreality.cli._phase_fields.cache_info().maxsize == 1
        fields = qreality.cli._phase_fields(8)
        assert isinstance(fields, tuple)
        assert list(fields) == [repr(v) for v in np.linspace(0, 2 * np.pi, 8, endpoint=False).tolist()]

    @pytest.mark.parametrize("grid", [[], ["--grid", "1"], ["--grid", "100"], ["--grid", "257"]])
    @pytest.mark.parametrize("flags", [[], ["--extended", "--decohere"]])
    def test_any_grid_is_evaluated_once(self, tmp_path, monkeypatch, flags, grid):
        calls = []
        original = qreality.mzi.detector_probabilities

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(qreality.mzi, "detector_probabilities", counted)
        monkeypatch.setattr(qreality.cli, "detector_probabilities", counted)
        assert run(["mzi", *flags, *grid, "--out-dir", str(tmp_path)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("grid", [256, 100])
    @pytest.mark.parametrize("flags", MZI_FLAG_SETS)
    def test_file_is_the_fringe_columns_row_by_row(self, tmp_path, grid, flags):
        argv = ["mzi", *flags, "--grid", str(grid), "--phi", "0.7", "--out-dir", str(tmp_path)]
        assert run(argv) == 0
        assert (tmp_path / "mzi.csv").read_bytes() == expected_mzi_csv(mzi_config(flags), grid)

    @pytest.mark.parametrize("grid", ["256", "100"])
    @pytest.mark.parametrize("flags", MZI_FLAG_SETS)
    def test_summary_visibility_is_the_library_value(self, tmp_path, grid, flags):
        assert run(["mzi", *flags, "--grid", grid, "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["visibility"] == visibility(mzi_config(flags))  # exact, so the JSON bytes match
        assert summary["grid"] == int(grid)


class TestCsvWriter:
    def test_bytes_match_the_csv_module(self, tmp_path):
        header = ["theta", "config", "target", "row_ket", "value"]
        rows = [
            [repr(0.0), "Cz", "b", "000", repr(1e-05)],
            [repr(-2.5e-17), "Cx", "d1", "101", ""],
            [repr(1e16), "", "d2", "", repr(-0.0)],
            [repr(float("inf")), repr(float("nan")), "", "0110", ""],
            ["", "", "", "", ""],
        ]
        path = tmp_path / "out.csv"
        _write_csv(path, "qreality.test.v1", dict(zip(header, zip(*rows))))

        want = io.StringIO(newline="")
        want.write("# schema: qreality.test.v1\n")
        writer = csv.writer(want)
        writer.writerow(header)
        writer.writerows(rows)
        assert path.read_bytes() == want.getvalue().encode("utf-8")

    def test_short_column_raises_before_the_file_is_opened(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError):
            _write_csv(path, "qreality.test.v1", {"a": ["1", "2"], "b": iter(["3"])})
        assert not path.exists()

    def test_no_field_the_cli_writes_needs_quoting(self, tmp_path, monkeypatch):
        # A plain comma join equals the csv module's output only under this condition.
        written = {}
        original = qreality.cli._write_csv

        def recording(path, schema, columns):
            columns = {name: list(column) for name, column in columns.items()}
            written.setdefault(path.name, []).extend([list(columns), *zip(*columns.values())])
            original(path, schema, columns)

        monkeypatch.setattr(qreality.cli, "_write_csv", recording)
        omega, _ = omega_state(ProtocolConfig(theta=1.0, alice_config="Cx"), "d1")
        dataset_path = tmp_path / "counts.json"
        save_dataset(simulate_counts(omega, 1000, seed=7), dataset_path)
        pi = repr(np.pi)
        for k, argv in enumerate([
            ["sweep", "--grid", "5", "--theta-max", pi],
            ["sweep", "--tomo", "--grid", "3", "--resamples", "5", "--theta-max", pi],
            ["mzi", "--grid", "16"],
            ["mzi", "--open", "--extended", "--decohere"],
            ["tomo", "--simulate", "--shots", "1000"],
            ["tomo", str(dataset_path)],
        ]):
            assert run(argv + ["--out-dir", str(tmp_path / str(k))]) == 0
        assert set(written) == {"sweep.csv", "mzi.csv", "density_matrix_real.csv"}
        for name, rows in written.items():
            for row in rows:
                for field in row:
                    assert isinstance(field, str)
                    assert not set(field) & set(',"\r\n'), (name, row)


class TestFloatFormatter:
    COLUMNS = {
        "signed zeros": [-0.0, 0.0, -0.0, 0.0],
        "nan": [float("nan"), 1.0, float("nan")],
        "nan payloads": np.array([0x7FF8000000000001, 0x7FF8000000000000, -0x0008000000000000]).view(np.float64),
        "subnormal": [5e-324, -5e-324, 0.0],
        "large": [1e16, 1e16 + 2, -1e16, float("inf"), -float("inf")],
        "repeated": [0.25, 0.5, 0.25, 0.25, 0.5],
        "all distinct": np.linspace(0.0, 2 * np.pi, 64, endpoint=False),
        "single row": [0.1],
        "single negative zero": [-0.0],
        "single nan payload": np.array([0x7FF8000000000001]).view(np.float64),
        "single inf": [float("inf")],
    }

    @pytest.mark.parametrize("name", sorted(COLUMNS))
    def test_equals_repr_of_each_value(self, name):
        column = np.asarray(self.COLUMNS[name], dtype=float)
        assert _reprs(column) == [repr(v) for v in column.tolist()]

    @pytest.mark.parametrize("name", sorted(COLUMNS))
    def test_undefined_rows_are_empty(self, rng, name):
        column = np.asarray(self.COLUMNS[name], dtype=float)
        defined = rng.random(len(column)) < 0.5
        want = [repr(v) if ok else "" for v, ok in zip(column.tolist(), defined.tolist())]
        assert _reprs(column, defined) == want
        assert _reprs(column, np.zeros(len(column), bool)) == [""] * len(column)

    def test_each_distinct_value_is_formatted_once(self, monkeypatch):
        calls = []

        def counting_repr(value):
            calls.append(value)
            return repr(value)

        monkeypatch.setattr(qreality.cli, "repr", counting_repr, raising=False)
        column = np.array([0.5, -0.0, 0.5, 0.0, 0.5, -0.0] * 40)
        assert _reprs(column) == [repr(v) for v in column.tolist()]
        assert len(calls) == 3

        # a column with no defined row is all empty fields, with nothing formatted
        assert _reprs(column, np.zeros(len(column), bool)) == [""] * len(column)
        assert len(calls) == 3


# sha256 of every file each command writes except manifest.json, which holds
# a timestamp.  This table is the check that outputs are byte-identical: a
# change that moves bytes updates its rows and records the old hash, the new
# hash and the reason in CHANGES.md.  The hashes pin the bits of numpy's
# cos/exp and of its einsum summation order, so they hold only for the numpy
# version and machine they were recorded on.  Elsewhere
# TestFreshProcess::test_run_exits_clean_and_matches_in_process, which
# compares a fresh process's files with an in-process run's, is the check.
GOLDEN_NUMPY, GOLDEN_MACHINE = "2.4.6", "x86_64"
GOLDEN_OUTPUTS = {
    ("mzi", "--closed"): {
        "mzi.csv": "5d2666bf7014d99d62e7d7dd70713e6edbf6c0495afb68b5c63ff22c1b1cdab6",
        "summary.json": "493167d75cffc74b4b2a5f97139281e770d9ee86140376d5fae158ccc3f12a1a",
    },
    ("mzi", "--closed", "--decohere"): {
        "mzi.csv": "291467bedf39322b5d0658e5cd2ff6e469b2fa5cb380b597a95495897c39c1bc",
        "summary.json": "0ac26e22657ef17d3d995fa91fb576e61753e83ba62ec3373a07fe1355075bb5",
    },
    ("mzi", "--closed", "--extended"): {
        "mzi.csv": "1cb0b3089490956063f3353fa23378d52ba49f2df99833646804538890e70b3c",
        "summary.json": "e6f497dcf01fa3ed3c8a9fcaa589698550a9d5a00232de382dc3796f2019644f",
    },
    ("mzi", "--closed", "--extended", "--decohere"): {
        "mzi.csv": "291467bedf39322b5d0658e5cd2ff6e469b2fa5cb380b597a95495897c39c1bc",
        "summary.json": "e49e5664c3f967429438010ee4d9db808f73ba50a8dabe3d8b179e0f1fe46c7b",
    },
    ("mzi", "--open"): {
        "mzi.csv": "ce73ac6b76d175793a398bcbe0a1476bbe2ec873b78f5ebf65934db06b65c017",
        "summary.json": "ad10c17204568a818386d29ef600d440a4f6f5a5034bc61cbf1e4e57f97d6f4a",
    },
    ("mzi", "--open", "--decohere"): {
        "mzi.csv": "444e223588fe0f0c1e69232420fcd116f7cd9013308876a454d36427251e1b72",
        "summary.json": "24e81eb1648fa4ecacbdef375c8c40aa5a43c354ccb78b0609a143afefa4e3b5",
    },
    ("mzi", "--open", "--extended"): {
        "mzi.csv": "ce73ac6b76d175793a398bcbe0a1476bbe2ec873b78f5ebf65934db06b65c017",
        "summary.json": "04d6d890367b38c279d7a4d88a85d768d97201be1b26cbdda300af4fb18eb72f",
    },
    ("mzi", "--open", "--extended", "--decohere"): {
        "mzi.csv": "444e223588fe0f0c1e69232420fcd116f7cd9013308876a454d36427251e1b72",
        "summary.json": "fe1f94814d48a3900d15b729a198818a0c89b7e6f4fc2d05ed4339f799573470",
    },
    # the phase grid at one point and on either side of 256
    ("mzi", "--closed", "--extended", "--grid", "1"): {
        "mzi.csv": "d2c02d15432fe80306a4c33057fd1b7bc0cc02e843503b0b35d1e0a5b4c14ea8",
        "summary.json": "94b00605baf45d9affeaabb05747a98ecfe4b91561f67b434a68c48af6ea10bb",
    },
    ("mzi", "--closed", "--extended", "--grid", "255"): {
        "mzi.csv": "c5118d39b8f10cb63e49141db1b0c7c039d92e4fc5792fe8fdcaaa5b437cc1b8",
        "summary.json": "d693f2f7d227c140f009d90d42e20c1b2fa4a84c285f467ccc6587e16a94edbd",
    },
    ("mzi", "--closed", "--extended", "--grid", "257"): {
        "mzi.csv": "20156aaf9d2e6d8390a8d1fb81b840ac8d1eaab8395bba4f749f51a3c48cf11a",
        "summary.json": "af4608b70713172603ffbbdb9a5e2226dc3ac72465fc21d3030cd82b8b6fcf4f",
    },
    ("mzi", "--open", "--grid", "1"): {
        "mzi.csv": "45283284b765eaa0b92555c22c70834cf6ad3cd647ae98013e585553b2951217",
        "summary.json": "8de506b09b8f9af243f148a914afc3f67e96e7177daac7b0546bd02de0121942",
    },
    ("mzi", "--open", "--grid", "255"): {
        "mzi.csv": "f726f67f88f643095eb4f85b99a233ac5f7ff4ff7dba4db5bd3ac3323efcec6d",
        "summary.json": "9153757131dd223472e6cd9923795899979d93015311ea86f94a1ee7fe7bf6f5",
    },
    ("mzi", "--open", "--grid", "257"): {
        "mzi.csv": "ce79ce6836839732bfc35b852318d87cf7ffdc2c0f7104cd5e8aada6e36ba3a9",
        "summary.json": "7bee844a37835d93065730a60dbabbbebe8d74eb3dd5484ea9ec81f4559910f2",
    },
    # -0.0 is the phi = 0 device: the same bytes as `mzi --closed --extended`
    ("mzi", "--extended", "--phi", "-0.0"): {
        "mzi.csv": "1cb0b3089490956063f3353fa23378d52ba49f2df99833646804538890e70b3c",
        "summary.json": "e6f497dcf01fa3ed3c8a9fcaa589698550a9d5a00232de382dc3796f2019644f",
    },
    # the marker analysis away from phi = 0; mzi.csv does not depend on --phi
    ("mzi", "--closed", "--extended", "--phi", "1.3"): {
        "mzi.csv": "1cb0b3089490956063f3353fa23378d52ba49f2df99833646804538890e70b3c",
        "summary.json": "259ea3005ed79ffafbd548fc8e4d0f7d9d93d4e66b2724b7b4bdf630a5ca921b",
    },
    ("sweep",): {
        "summary.json": "a839c7a7982bb4d21200305b47aa12fc22dccd66194d95773b9a0b8badc6f9cd",
        "sweep.csv": "145eb768b796764e4b0813b5034d84f78d9c65c02babc624bb2e4d7669cd0c36",
    },
    ("sweep", "--tomo", "--grid", "3", "--resamples", "20"): {
        "summary.json": "7545d299bbddff2efe2944f25dfe179a8f74cd17e4395fff56de94ada8734b07",
        "sweep.csv": "0819d03f19824d7eb22c89bd5c2708d7336601a2c8064e02e6f7a99765781a76",
    },
    # every row bootstraps 1 + 128 stack rows, which fixed 64-row blocks would
    # split as 64 + 64 + 1: numpy inverts a one-row block by a matrix-vector
    # product, which moves bytes
    ("sweep", "--tomo", "--target", "d1", "--grid", "2", "--resamples", "128", "--seed", "5"): {
        "summary.json": "9ef1d9a39244d8cbdefe783edda8d25f4ff32515fe9ae7043ba67f6d2a31a595",
        "sweep.csv": "476e2fe6b6ef7a30eb190d937a084e73be89412b802e8dd6028a0c42a34d098a",
    },
    ("sweep", "--target", "b", "--grid", "17"): {
        "summary.json": "3317140286980dcf3638c2a56c15398c868f5df35e21a19827e74086f476ed4d",
        "sweep.csv": "bfe505445e026aa588b19ddae2c993b1d4c3c1c942dc2ceec7b70a58cb44ac78",
    },
    ("sweep", "--target", "d1", "--grid", "17"): {
        "summary.json": "961fb4a449abe82086655d7b4cb301a9223a92dee0e3cc78259bbac238f1a706",
        "sweep.csv": "1c30b63aa9928e8e940e54f57d995182e9a16803faa31b1d3b1655b34382e119",
    },
    ("sweep", "--target", "d2", "--grid", "17"): {
        "summary.json": "aa1e83f42239951ac890158d75cd96ccc52f55190095a43075a43a90eff9321a",
        "sweep.csv": "022b4518478baf0fb63c1337f765548c0c35f526c6edc7e71fc2e254f5630ddf",
    },
    # both theta ends, so each config has an undefined Cz row
    ("sweep", "--config", "both", "--branch", "minus", "--theta-max", "3.141592653589793"): {
        "summary.json": "73ead7d16a15d8e40d947d1a4ff34375d44858942e51c74bba511604af27526d",
        "sweep.csv": "c424362e854be2699ac2b3536ab677d6b6a4eb753b20c348ed35095bdbe58605",
    },
    ("sweep", "--tomo", "--grid", "3"): {
        "summary.json": "c3a313ea31d84e35b4e5edcd697ee62aa457bfa5b91e641b2eb22f7bc37d2621",
        "sweep.csv": "21d70fb99a05f70660a4e2a47c4854291c86a23718fbbae804f264368498d612",
    },
    # the default state is omega2x
    ("tomo", "--simulate", "--shots", "1000"): {
        "density_matrix.json": "29a24acde67060a19cedbef532c6d141ea823656240ddc200be2c823ab4332a4",
        "density_matrix_real.csv": "665d9ef3945b264a5b08542031c24466dfff84c3cf359e78c75b0ff278299c5f",
        "report.json": "4428a2326e4eaa9462487afd4ceee73ff02b4d11c20a1f735279f11c0ad5d5db",
    },
    ("tomo", "--simulate", "--state", "omega1x", "--shots", "1000"): {
        "density_matrix.json": "397422c12a53dbab3feee2372277b95408cf52d9af9254dfee6fa27f308335aa",
        "density_matrix_real.csv": "60deed34f2697b5a466dfb077a3a3d0a1bfe06d53b1d887fb65a8a4c14a9939f",
        "report.json": "b0e802f5955fd0e191afefd7bebc28916861cd22a694152a97777afcb0f90d94",
    },
    ("tomo", "--simulate", "--state", "omega1z", "--shots", "1000"): {
        "density_matrix.json": "5b4edf973cdedb63c4a0f96ef7b2e07e1632b94bff02ecb03a8b4351da835b3a",
        "density_matrix_real.csv": "f8b6a1449dd4e1bc02a5ece29fcf8e8cf80fbba029ebb11996421fcc850e1095",
        "report.json": "264206667659ef37f0ef0bd0d74d51af9bc3b8095a7db2b21c8a428f20fb0e57",
    },
    ("tomo", "--simulate", "--state", "omega2z", "--shots", "1000"): {
        "density_matrix.json": "aaff01ca6afbb6f171a84137601cf4f7a45ee75fee740555b5ccc81586971b6e",
        "density_matrix_real.csv": "68dbad02c28d83049e4c822bce9cf5e8cc069401d6bef7aadee77bbfe830de24",
        "report.json": "b6dd88147a02cee3339fcc9d0301c6eccbd11fc2c122bea4eb87a88a3f52933e",
    },
}
# the irreality_tomo_mean fields of `sweep --tomo --grid 3 --resamples 20`,
# joined by newlines: the plug-in estimate reads only the observed counts, so
# no change to the resampling moves it
GOLDEN_TOMO_SWEEP_MEAN = "b21c3fb949f676d53a6649b93d2e6bbe9eb9134832e52a3ace43499a655cd766"
# the dataset file of omega2x at theta = pi/2, 1000 shots, seed 7, and what
# `tomo counts.json` writes from it; report.json holds the path as given
GOLDEN_DATASET_FILE = "1634e845b6efb132e4dcc0b9f958b0c98446e5c6ecd4b0ea763524721fc5d990"
GOLDEN_TOMO_FILE = {
    "density_matrix.json": "0fcc57054764e9a921e78084a666a218e084c56fa5c0f7425fc3967b9a6b0d37",
    "density_matrix_real.csv": "c2a55488f860edc9c2e2f38b27d541656c4528135ffc34fc668b04b19d711eb2",
    "report.json": "ea0452de53d4e240c5ed5fd4b645421608bdbd3fc4da20a414daecfded9c9e2a",
}


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def outputs_of(out_dir):
    """Each file ``out_dir`` holds, but manifest.json, by name."""
    return {p.name: p for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"}


@pytest.mark.skipif(
    (np.__version__, platform.machine()) != (GOLDEN_NUMPY, GOLDEN_MACHINE),
    reason=f"golden hashes were recorded with numpy {GOLDEN_NUMPY} on {GOLDEN_MACHINE}",
)
class TestGoldenOutputs:
    @pytest.mark.parametrize("argv", GOLDEN_OUTPUTS, ids=" ".join)
    def test_outputs(self, tmp_path, argv):
        assert run([*argv, "--out-dir", str(tmp_path)]) == 0
        written = {name: sha256_of(path) for name, path in outputs_of(tmp_path).items()}
        assert written == GOLDEN_OUTPUTS[argv]

    def test_tomo_sweep_mean_column(self, tmp_path):
        argv = ["sweep", "--tomo", "--grid", "3", "--resamples", "20", "--out-dir", str(tmp_path)]
        assert run(argv) == 0
        _, rows = read_csv(tmp_path / "sweep.csv")
        means = "\n".join(row["irreality_tomo_mean"] for row in rows)
        assert hashlib.sha256(means.encode()).hexdigest() == GOLDEN_TOMO_SWEEP_MEAN

    def test_dataset_file_and_its_tomo_outputs(self, tmp_path, monkeypatch):
        cfg = ProtocolConfig(theta=float(np.pi / 2), alice_config="Cx")
        omega, _ = omega_state(cfg, "d1")
        monkeypatch.chdir(tmp_path)  # so report.json's "dataset" is "counts.json"
        save_dataset(simulate_counts(omega, 1000, 7), Path("counts.json"))
        assert sha256_of(Path("counts.json")) == GOLDEN_DATASET_FILE
        assert run(["tomo", "counts.json", "--out-dir", "out"]) == 0
        written = {name: sha256_of(path) for name, path in outputs_of(Path("out")).items()}
        assert written == GOLDEN_TOMO_FILE


# the demos, the self-test and one run of each subcommand, as a user runs
# them; the subcommands write to out/ under the working directory, and
# `tomo ../counts.json` reads the 3-qubit dataset the test saves
FRESH_PROCESS_RUNS = [
    ("demos/irreality_vs_theta.py",),
    ("demos/mzi_walkthrough.py",),
    ("demos/tomography_pipeline.py",),
    ("-m", "qreality", "selftest"),
    ("-m", "qreality", "sweep", "--theta-max", repr(np.pi), "--out-dir", "out"),
    ("-m", "qreality", "sweep", "--tomo", "--grid", "3", "--resamples", "20", "--out-dir", "out"),
    ("-m", "qreality", "tomo", "--simulate", "--shots", "1000", "--out-dir", "out"),
    ("-m", "qreality", "tomo", "../counts.json", "--out-dir", "out"),
    ("-m", "qreality", "mzi", "--closed", "--extended", "--decohere", "--out-dir", "out"),
]


class TestFreshProcess:
    @pytest.mark.parametrize("argv", FRESH_PROCESS_RUNS, ids=" ".join)
    def test_run_exits_clean_and_matches_in_process(self, tmp_path, monkeypatch, capsys, argv):
        # a warning is an error in the fresh process, as it is in-process;
        # the CLI's stdout and files (but manifest.json) must equal what
        # cli.main writes in this process, on any numpy and machine
        mixed = DensityMatrix.maximally_mixed(QubitRegister(("x", "y", "z")))
        save_dataset(simulate_counts(mixed, 1000, 7), tmp_path / "counts.json")
        fresh, in_process = tmp_path / "fresh", tmp_path / "in_process"
        fresh.mkdir()
        in_process.mkdir()
        script = [str(REPO / argv[0])] if argv[0].startswith("demos/") else []
        proc = subprocess.run(
            [sys.executable, "-W", "error", *script, *argv[len(script):]],
            cwd=fresh,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        if script:
            return

        monkeypatch.chdir(in_process)
        assert run(list(argv[2:])) == 0
        assert capsys.readouterr() == (proc.stdout, "")
        if argv[2] != "selftest":
            fresh_files, in_process_files = (
                {name: path.read_bytes() for name, path in outputs_of(run_dir / "out").items()}
                for run_dir in (fresh, in_process)
            )
            assert fresh_files == in_process_files

class TestEnvironmentOverrides:
    def test_out_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QREALITY_OUT_DIR", str(tmp_path / "from_env"))
        assert run(["sweep", "--grid", "3"]) == 0
        assert (tmp_path / "from_env" / "sweep.csv").exists()

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "qreality", "mzi", "--open", "--grid", "8",
             "--out-dir", str(tmp_path / "m")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "visibility: 0.0" in proc.stdout


class TestParserReuse:
    def test_out_dir_env_read_on_every_call(self, tmp_path, monkeypatch):
        for name in ("a", "b"):
            monkeypatch.setenv("QREALITY_OUT_DIR", str(tmp_path / name))
            assert run(["sweep", "--grid", "3"]) == 0
            assert (tmp_path / name / "sweep.csv").exists()

    def test_reuse_after_errors_matches_fresh_process(self, tmp_path):
        assert run(["sweep", "--grid", "0", "--out-dir", str(tmp_path / "x")]) == 2
        assert run(["mzi", "--closed", "--open", "--out-dir", str(tmp_path / "x")]) == 2
        assert run(["--version"]) == 0
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert run(["mzi", "--grid", "8", "--out-dir", str(reused)]) == 0
        src = str(Path(qreality.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "qreality", "mzi", "--grid", "8", "--out-dir", str(fresh)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0
        names = sorted(p.name for p in reused.iterdir() if p.name != "manifest.json")
        assert names == ["mzi.csv", "summary.json"]
        for name in names:
            assert (reused / name).read_bytes() == (fresh / name).read_bytes()

    def test_help_same_on_first_and_later_calls(self, capsys):
        commands = ([], ["sweep"], ["tomo"], ["mzi"], ["selftest"])

        def help_texts():
            texts = []
            for command in commands:
                assert run(command + ["--help"]) == 0
                texts.append(capsys.readouterr().out)
            return texts

        build_parser.cache_clear()
        first = help_texts()
        assert run(["sweep", "--grid", "0"]) == 2
        assert build_parser() is build_parser()
        assert help_texts() == first
        assert all("usage: qreality" in text for text in first)


class TestSelftestAndManifest:
    def test_selftest_passes(self, capsys):
        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "run"
        run(["sweep", "--grid", "3", "--seed", "7", "--out-dir", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["seed"] == 7
        assert manifest["version"]
        assert manifest["timestamp"]

    def test_seed_is_printed(self, tmp_path, capsys):
        run(["sweep", "--grid", "3", "--out-dir", str(tmp_path / "r")])
        assert "seed: 42" in capsys.readouterr().out
