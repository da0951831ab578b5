import csv
import io
import itertools
import json
import os

import numpy as np
import pytest

import qreality.cli
import qreality.mzi
from qreality import (
    DensityMatrix, MziConfig, ObservableSpec, fidelity, monte_carlo_irreality, purity,
    save_dataset, simulate_counts, tomography_end_to_end, visibility,
)
from qreality.cli import MAX_GRID, MAX_RESAMPLES, OMEGA_STATES, _write_csv, build_parser, main
from qreality.eraser import OMEGA_REGISTER, TARGETS, ProtocolConfig, irreality_curve, omega_state
from qreality.tomography import MAX_POISSON_COUNT

from oracles import binary_entropy_exact


def run(argv):
    """Invoke the CLI entry point, normalizing argparse's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def expected_sweep_csv(target, branch, grid, tomo=None):
    """The bytes `sweep --config both` should write, one row at a time.

    ``tomo`` is (shots, resamples, seed) for the tomography columns, drawn
    with the CLI's two child seeds per row.
    """
    label = TARGETS[target]
    rows = []
    for config in ("Cz", "Cx"):
        curve = irreality_curve(ProtocolConfig(0.0, config, branch), target, grid)
        for theta, value, prob, omega in zip(*curve):
            rows.append([theta, config, label, value, None, None, prob, omega])
    if tomo is not None:
        shots, resamples, seed = tomo
        child_seeds = np.random.SeedSequence(seed).generate_state(2 * len(rows))
        for row, (counts_seed, resample_seed) in zip(rows, child_seeds.reshape(-1, 2)):
            if row[6] > 0:
                counts = simulate_counts(DensityMatrix(OMEGA_REGISTER, row[7]), shots, counts_seed)
                row[4:6] = monte_carlo_irreality(
                    counts, ObservableSpec.pauli(label, "Z"), resamples, resample_seed,
                    OMEGA_REGISTER,
                )
    out = io.StringIO(newline="")
    out.write("# schema: qreality.sweep.v1\n")
    writer = csv.writer(out)
    writer.writerow(["theta", "config", "target", "irreality_analytic",
                     "irreality_tomo_mean", "irreality_tomo_std", "selection_probability"])
    for theta, config, label, value, mean, std, prob, _ in rows:
        writer.writerow([
            repr(float(theta)), config, label,
            repr(float(value)) if prob > 0 else "",
            "" if mean is None else repr(float(mean)),
            "" if std is None else repr(float(std)),
            repr(float(prob)),
        ])
    return out.getvalue().encode("utf-8")


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

    @pytest.mark.parametrize("target", sorted(TARGETS))
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

    def test_shots_at_poisson_limit_runs(self, tmp_path):
        args = ["sweep", "--tomo", "--grid", "1", "--resamples", "2", "--out-dir", str(tmp_path)]
        assert run(args + ["--shots", str(MAX_POISSON_COUNT)]) == 0
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert all(row["irreality_tomo_std"] != "" for row in rows)

    def test_shots_beyond_poisson_limit_is_usage_error(self, tmp_path, capsys):
        args = ["sweep", "--tomo", "--grid", "1", "--resamples", "2", "--out-dir", str(tmp_path)]
        assert run(args + ["--shots", str(MAX_POISSON_COUNT + 1)]) == 2
        assert f"--shots must be at most {MAX_POISSON_COUNT}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag, limit",
        [
            (["sweep", "--grid"], "--grid", MAX_GRID),
            (["sweep", "--tomo", "--grid", "1", "--resamples"], "--resamples", MAX_RESAMPLES),
            (["mzi", "--grid"], "--grid", MAX_GRID),
        ],
    )
    def test_size_beyond_limit_is_usage_error(self, tmp_path, capsys, argv, flag, limit):
        assert run(argv + [str(limit + 1), "--out-dir", str(tmp_path)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines[-1] == f"qreality: error: {flag} must be at most {limit}, to bound memory"
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
        reports = [json.loads((d / "report.json").read_text()) for d in (sim, file)]
        assert reports[0]["diagnostics"] == reports[1]["diagnostics"]
        assert reports[0]["purity"] == reports[1]["purity"]
        assert "clipped_negative_mass" in reports[1]["diagnostics"]

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

    @pytest.mark.parametrize("command", [["sweep", "--tomo"], ["tomo", "--simulate"]])
    def test_shots_flag_beyond_int64_is_usage_error(self, tmp_path, capsys, command):
        argv = command + ["--shots", str(10**20), "--out-dir", str(tmp_path)]
        assert run(argv) == 2
        assert "--shots must be at most 9223372036854775807" in capsys.readouterr().err

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
        result = tomography_end_to_end(omega, shots, seed)
        report = json.loads((out / "report.json").read_text())
        assert report["fidelity_to_truth"] == result.fidelity_to_truth
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
        assert summary["visibility"] == pytest.approx(1.0, abs=1e-9)

    def test_open_summary(self, tmp_path):
        out = tmp_path / "run"
        run(["mzi", "--open", "--out-dir", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["visibility"] == pytest.approx(0.0, abs=1e-9)

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

    @pytest.mark.parametrize("flags", [[], ["--extended", "--decohere"]])
    def test_default_grid_is_evaluated_once(self, tmp_path, monkeypatch, flags):
        calls = []
        original = qreality.mzi.detector_probabilities

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(qreality.mzi, "detector_probabilities", counted)
        monkeypatch.setattr(qreality.cli, "detector_probabilities", counted)
        assert run(["mzi", *flags, "--out-dir", str(tmp_path)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("grid", ["256", "100"])
    @pytest.mark.parametrize("flags", MZI_FLAG_SETS)
    def test_summary_visibility_is_the_library_value(self, tmp_path, grid, flags):
        assert run(["mzi", *flags, "--grid", grid, "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        cfg = MziConfig(
            phi=0.0,
            closed="--open" not in flags,
            extended="--extended" in flags,
            decohere_after_first_bs="--decohere" in flags,
        )
        assert summary["visibility"] == visibility(cfg)  # exact, so the JSON bytes match
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
        _write_csv(path, "qreality.test.v1", header, rows)

        want = io.StringIO(newline="")
        want.write("# schema: qreality.test.v1\n")
        writer = csv.writer(want)
        writer.writerow(header)
        writer.writerows(rows)
        assert path.read_bytes() == want.getvalue().encode("utf-8")

    def test_no_field_the_cli_writes_needs_quoting(self, tmp_path, monkeypatch):
        # A plain comma join equals the csv module's output only under this condition.
        written = {}
        original = qreality.cli._write_csv

        def recording(path, schema, header, rows):
            rows = list(rows)
            written.setdefault(path.name, []).extend([header, *rows])
            original(path, schema, header, rows)

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


class TestEnvironmentOverrides:
    def test_out_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QREALITY_OUT_DIR", str(tmp_path / "from_env"))
        assert run(["sweep", "--grid", "3"]) == 0
        assert (tmp_path / "from_env" / "sweep.csv").exists()

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys

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
        import subprocess
        import sys
        from pathlib import Path

        import qreality

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
