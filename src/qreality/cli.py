"""Command-line front end: irreality sweeps, tomography runs, and the MZI demo.

Every run writes a manifest (command, resolved configuration, seed, version,
timestamp) next to its outputs; rerunning with the same configuration and
seed reproduces every CSV and JSON output byte for byte.  CSV files start
with a schema comment line so downstream parsers can pin the layout.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import DensityMatrix, ObservableSpec, QubitRegister, fidelity, purity
from .eraser import (
    OMEGA_REGISTER,
    ProtocolConfig,
    TARGETS,
    _irreality_curves,
    omega_state,
    stage_for_target,
)
from .mzi import (
    VISIBILITY_GRID,
    MziConfig,
    _phases,
    _visibility,
    detector_probabilities,
    extended_output_analysis,
    visibility,
)
from .tomography import (
    MAX_COUNT,
    load_dataset,
    monte_carlo_irreality,
    project_to_physical,
    reconstruct,
    simulate_counts,
)

OUT_DIR_ENV = "QREALITY_OUT_DIR"
DEFAULT_SEED = 42

SWEEP_SCHEMA = "qreality.sweep.v1"
MZI_SCHEMA = "qreality.mzi.v1"
RHO_SCHEMA = "qreality.rho-real.v1"

# Measured peaks: a sweep row takes about 1.5 KB, 2.2 KB with --tomo (two
# rows per grid point with --config both; the tracemalloc peaks of sweep at
# --grid 2 000 and 10 000 differ by 24 MB) and an mzi phase about 0.28 KB.
# So --grid at its limit needs about 0.3 GB for a sweep (0.45 GB with
# --tomo) and 28 MB for mzi.  The Monte Carlo stack is processed in blocks,
# so a resample of the 3-qubit omega state keeps only its 8-byte irreality:
# the tracemalloc peak of monte_carlo_irreality reads 0.41 MiB at 100
# resamples and 1.8 MiB at 100 000.  --resamples bounds run time instead,
# about 5 s per tomographic row at its limit.  An mzi run leaves its grid's
# phi text cached for the next run (tracemalloc: 7.1 MiB retained at --grid
# 100 000, 22.1 KiB at 256), so that cache keeps one grid size.
MAX_GRID = 100_000
MAX_RESAMPLES = 100_000
INT64_LIMIT = "the largest int64 count"

OMEGA_STATES = {
    "omega1z": ("b", "Cz"),
    "omega1x": ("b", "Cx"),
    "omega2z": ("d1", "Cz"),
    "omega2x": ("d1", "Cx"),
}

# The tomo flags that only --simulate reads, with their defaults.  They
# default to None in the parser so that one given with a file is caught.
TOMO_SIMULATE_DEFAULTS = {
    "state": "omega2x",
    "theta": float(np.pi / 2),
    "degrees": False,
    "branch": "plus",
    "shots": 100_000,
    "seed": DEFAULT_SEED,
}


def _write_manifest(out_dir: Path, command: str, config: dict, seed) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(out_dir / "manifest.json", manifest)


def _write_csv(path: Path, schema: str, columns: dict) -> None:
    """The schema line, the header and the rows, in one write.

    ``columns`` maps each header name to its column of string fields; the
    columns must be of one length, and a short one raises ValueError before
    the file is opened.  Fields are joined with commas and lines end in
    CRLF, as the csv module's default dialect writes them.  No field the CLI
    writes holds a comma, a quote or a line break, so none needs quoting.
    """
    rows = map(",".join, zip(*columns.values(), strict=True))
    text = "\r\n".join([f"# schema: {schema}\n" + ",".join(columns), *rows, ""])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _reprs(column: np.ndarray, defined: np.ndarray | None = None) -> list[str]:
    """``repr`` of each float in ``column``, with an empty field where
    ``defined`` is False; a NaN in a defined row is written as ``nan``.

    Each distinct bit pattern is formatted once, so a column of few values
    costs few ``repr`` calls, and -0.0, 0.0 and every NaN keep their own text.
    """
    if defined is not None and not defined.any():
        return [""] * len(column)
    values = np.ascontiguousarray(column, dtype=np.float64)
    if len(values) == 1:  # one field: skip np.unique's fixed cost
        return [repr(values.item())]
    _, first, inverse = np.unique(values.view(np.int64), return_index=True, return_inverse=True)
    fields = np.array(list(map(repr, values[first].tolist())), dtype=object)[inverse]
    if defined is not None:
        fields[~defined] = ""
    return fields.tolist()


@functools.lru_cache(maxsize=1)
def _phase_fields(size: int) -> tuple[str, ...]:
    """The phi column of ``mzi --grid size``, formatted once per size; the
    cache keeps one size (see MAX_GRID for its memory)."""
    return tuple(_reprs(_phases(size)))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _theta_grid(parser, args) -> np.ndarray:
    lo, hi = args.theta_min, args.theta_max
    if args.degrees:
        lo, hi = np.radians(lo), np.radians(hi)
    lo, hi = lo + 0.0, hi + 0.0  # -0.0 is the theta = 0 row, so it writes 0.0
    _check_range(parser, "--grid", args.grid, 1, MAX_GRID, "to bound memory")
    if not (0.0 <= lo <= hi <= np.pi + 1e-12):
        parser.error("theta range must satisfy 0 <= min <= max <= pi")
    return np.linspace(lo, hi, args.grid)


def _check_range(parser, flag: str, value: int, low: int, high: int, why: str) -> None:
    """Usage error naming ``flag`` unless low <= value <= high."""
    if value < low:
        parser.error(f"{flag} must be at least {low}")
    if value > high:
        parser.error(f"{flag} must be at most {high}, {why}")


def cmd_sweep(parser, args) -> int:
    grid = _theta_grid(parser, args)
    if args.tomo:
        why = "to bound run time (about 5 s per tomographic row)"
        _check_range(parser, "--resamples", args.resamples, 2, MAX_RESAMPLES, why)
        _check_range(parser, "--shots", args.shots, 1, MAX_COUNT, INT64_LIMIT)
        if args.seed < 0:  # numpy's generators take no negative seed
            parser.error("--seed must be at least 0")
    configs = ("Cz", "Cx") if args.config == "both" else (args.config,)

    cfg = ProtocolConfig(0.0, configs[0], args.branch)
    thetas, irrealities, probs, omegas = _irreality_curves(cfg, configs, args.target, grid)
    defined = probs > 0.0
    tomo_mean, tomo_std = np.full((2, len(thetas)), np.nan)
    if args.tomo:
        z_target = ObservableSpec.pauli(args.target, "Z")
        child_seeds = np.random.SeedSequence(args.seed).generate_state(2 * len(thetas))
        for i, (counts_seed, resample_seed) in enumerate(child_seeds.reshape(-1, 2).tolist()):
            if not defined[i]:
                continue  # undefined row: no state to measure
            omega = DensityMatrix(OMEGA_REGISTER, omegas[i])
            tomo_mean[i], tomo_std[i] = monte_carlo_irreality(
                simulate_counts(omega, args.shots, counts_seed),
                z_target,
                args.resamples,
                resample_seed,
            )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tomo_done = defined & args.tomo
    columns = {
        "theta": _reprs(thetas),
        "config": [config for config in configs for _ in grid],
        "target": [args.target] * len(thetas),
        "irreality_analytic": _reprs(irrealities, defined),
        "irreality_tomo_mean": _reprs(tomo_mean, tomo_done),
        "irreality_tomo_std": _reprs(tomo_std, tomo_done),
        "selection_probability": _reprs(probs),
    }
    _write_csv(out_dir / "sweep.csv", SWEEP_SCHEMA, columns)

    config_dict = {
        "target": args.target,
        "stage": stage_for_target(args.target),
        "configs": list(configs),
        "branch": args.branch,
        "grid": args.grid,
        "theta_min": float(grid[0]),
        "theta_max": float(grid[-1]),
        "tomo": bool(args.tomo),
        "shots": args.shots if args.tomo else None,
        "resamples": args.resamples if args.tomo else None,
    }
    _write_json(
        out_dir / "summary.json",
        {
            "rows": len(thetas),
            "config": config_dict,
            "seed": args.seed,
            "version": __version__,
            "outputs": ["sweep.csv", "summary.json"],
        },
    )
    _write_manifest(out_dir, "sweep", config_dict, args.seed)
    print(f"seed: {args.seed}")
    print(f"wrote {out_dir / 'sweep.csv'} ({len(thetas)} rows)")
    return 0


def cmd_tomo(parser, args) -> int:
    if (args.dataset is None) == (not args.simulate):
        parser.error("provide exactly one of: a dataset file, or --simulate")
    for name, default in TOMO_SIMULATE_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif not args.simulate:
            parser.error(f"--{name} applies only with --simulate")
    if args.simulate:
        _check_range(parser, "--shots", args.shots, 1, MAX_COUNT, INT64_LIMIT)
        if args.seed < 0:  # numpy's generators take no negative seed
            parser.error("--seed must be at least 0")
        # adding 0.0 turns -0.0 into 0.0, the same state, so both write one report
        theta = float(np.radians(args.theta) if args.degrees else args.theta) + 0.0
        if not 0.0 <= theta <= np.pi + 1e-12:
            parser.error("--theta must satisfy 0 <= theta <= pi")
        target, config = OMEGA_STATES[args.state]
        cfg = ProtocolConfig(theta=theta, alice_config=config, alice_branch=args.branch)
        truth, _ = omega_state(cfg, target)
        data = simulate_counts(truth, args.shots, args.seed)
        report = {"state": args.state, "theta": theta}
        config_dict = {"simulate": True, **report, "branch": args.branch, "shots": args.shots}
    else:
        truth, data = None, load_dataset(args.dataset)
        report = {"dataset": str(args.dataset)}
        config_dict = {"simulate": False, **report}

    result = reconstruct(data)
    rho = result.rho_physical
    register = rho.register
    report["fidelity_to_truth"] = None if truth is None else fidelity(rho, truth)
    report["purity"] = purity(rho)
    report["diagnostics"] = result.diagnostics

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(
        out_dir / "density_matrix.json",
        {
            "labels": list(register.labels),
            "real": rho.entries.real.tolist(),
            "imag": rho.entries.imag.tolist(),
        },
    )
    _write_json(out_dir / "report.json", report)

    # one row per entry in row-major order: row labels repeat, column labels tile
    dim = register.dimension
    index = [str(i) for i in range(dim)]
    kets = [format(i, f"0{register.n_qubits}b") for i in range(dim)]
    columns = {
        "row": np.repeat(index, dim).tolist(),
        "col": index * dim,
        "row_ket": np.repeat(kets, dim).tolist(),
        "col_ket": kets * dim,
        "real": _reprs(rho.entries.real.ravel()),
    }
    _write_csv(out_dir / "density_matrix_real.csv", RHO_SCHEMA, columns)
    seed = report["diagnostics"]["seed"]  # the dataset's own seed for a file
    _write_manifest(out_dir, "tomo", config_dict, seed)
    print(f"seed: {seed}")
    if report["fidelity_to_truth"] is not None:
        print(f"fidelity to truth: {report['fidelity_to_truth']:.6f}")
    print(f"purity: {report['purity']:.6f}")
    print(f"wrote {out_dir / 'density_matrix.json'}")
    return 0


def cmd_mzi(parser, args) -> int:
    _check_range(parser, "--grid", args.grid, 1, MAX_GRID, "to bound memory")
    if not np.isfinite(args.phi):
        parser.error("--phi must be a finite number")
    phi = args.phi + 0.0  # -0.0 is the phi = 0 device, so it writes the phi = 0 bytes
    cfg = MziConfig(
        phi=0.0,
        closed=not args.open,
        extended=args.extended,
        decohere_after_first_bs=args.decohere,
    )
    probs = detector_probabilities(cfg, _phases(args.grid))

    # on visibility's own grid the p0 column already holds its samples
    vis = _visibility(probs[:, 0]) if args.grid == VISIBILITY_GRID else visibility(cfg)
    summary = {
        "closed": cfg.closed,
        "extended": cfg.extended,
        "decohere_after_first_bs": cfg.decohere_after_first_bs,
        "visibility": vis,
        "grid": args.grid,
    }
    if cfg.extended:
        analysis = extended_output_analysis(dataclasses.replace(cfg, phi=phi))
        summary["extended_analysis"] = {
            "phi": phi,
            "selection_probability": analysis.selection_probability,
            "entanglement_entropy": analysis.entanglement_entropy,
            "mutual_information": analysis.mutual_information,
            "ppt_separable": analysis.ppt_separable,
            "irreality_sigma_z_at_s1": analysis.irreality_sigma_z_at_s1,
        }

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = {
        "phi": _phase_fields(args.grid),
        "p0": _reprs(probs[:, 0]),
        "p1": _reprs(probs[:, 1]),
    }
    _write_csv(out_dir / "mzi.csv", MZI_SCHEMA, columns)
    _write_json(out_dir / "summary.json", summary)
    config_dict = {
        "closed": cfg.closed,
        "extended": cfg.extended,
        "decohere": cfg.decohere_after_first_bs,
        "grid": args.grid,
        "phi": phi,
    }
    _write_manifest(out_dir, "mzi", config_dict, None)
    print(f"visibility: {summary['visibility']:.9f}")
    print(f"wrote {out_dir / 'mzi.csv'}")
    return 0


def _selftest_checks():
    from .core import PureState
    from .measures import binary_entropy, irreality as irr, von_neumann_entropy

    def closed_forms():
        for theta in (0.3, 0.9, np.pi / 2):
            cfg = ProtocolConfig(theta=theta, alice_config="Cx")
            omega, _ = omega_state(cfg, "d1")
            rep = irr(omega, ObservableSpec.pauli("d1", "Z"))
            expected = binary_entropy(np.cos(theta / 2) ** 2)
            assert abs(rep.irreality - expected) < 1e-9

    def cz_is_real():
        cfg = ProtocolConfig(theta=0.7, alice_config="Cz")
        omega, _ = omega_state(cfg, "b")
        assert irr(omega, ObservableSpec.pauli("b", "Z")).irreality < 1e-9

    def mzi_visibilities():
        assert abs(visibility(MziConfig(phi=0.0)) - 1.0) < 1e-9
        assert abs(visibility(MziConfig(phi=0.0, closed=False))) < 1e-9

    def inversion_roundtrip():
        cfg = ProtocolConfig(theta=1.1, alice_config="Cx")
        omega, _ = omega_state(cfg, "d1")
        from .tomography import born_probabilities, reconstruct_from_frequencies

        rho_hat = reconstruct_from_frequencies(born_probabilities(omega))
        rho = project_to_physical(rho_hat, omega.register)
        assert fidelity(rho, omega) > 1.0 - 1e-9

    def deterministic_counts():
        cfg = ProtocolConfig(theta=np.pi / 2, alice_config="Cx")
        omega, _ = omega_state(cfg, "d1")
        a = simulate_counts(omega, 500, 7).counts
        b = simulate_counts(omega, 500, 7).counts
        assert np.array_equal(a, b)

    def entropy_values():
        reg = QubitRegister(("q0",))
        mixed = DensityMatrix(reg, np.diag([0.75, 0.25]).astype(complex))
        assert abs(von_neumann_entropy(mixed) - binary_entropy(0.75)) < 1e-12
        pure = PureState(reg, [1.0, 0.0])
        assert von_neumann_entropy(pure.to_density()) < 1e-12

    return [
        ("eraser closed forms", closed_forms),
        ("Cz realism", cz_is_real),
        ("mzi visibilities", mzi_visibilities),
        ("tomography inversion roundtrip", inversion_roundtrip),
        ("deterministic counts", deterministic_counts),
        ("entropy reference values", entropy_values),
    ]


def cmd_selftest(parser, args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as exc:  # report and keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every call.

    Callers must not change it.  Nothing in it depends on the environment:
    ``--out-dir`` defaults to None, and :func:`main` reads ``QREALITY_OUT_DIR``
    on each call.
    """
    parser = argparse.ArgumentParser(
        prog="qreality",
        description="Irreality sweeps, simulated tomography, and MZI demos.",
    )
    parser.add_argument("--version", action="version", version=f"qreality {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="irreality versus theta, CSV + JSON")
    sweep.add_argument("--target", choices=TARGETS, default="b")
    sweep.add_argument("--config", choices=("Cz", "Cx", "both"), default="both")
    sweep.add_argument("--branch", choices=("plus", "minus"), default="plus")
    sweep.add_argument("--grid", type=int, default=41)
    sweep.add_argument("--theta-min", type=float, default=0.0)
    sweep.add_argument("--theta-max", type=float, default=float(np.pi / 2))
    sweep.add_argument("--degrees", action="store_true", help="angles are in degrees")
    sweep.add_argument("--tomo", action="store_true", help="add simulated tomography columns")
    sweep.add_argument("--shots", type=int, default=10_000)
    sweep.add_argument("--resamples", type=int, default=100)
    sweep.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sweep.add_argument("--out-dir")

    tomo = sub.add_parser("tomo", help="reconstruct a state from counts")
    tomo.add_argument("dataset", nargs="?", default=None, help="counts JSON file")
    tomo.add_argument("--simulate", action="store_true")
    tomo.add_argument("--state", choices=sorted(OMEGA_STATES))
    tomo.add_argument("--theta", type=float)
    tomo.add_argument("--degrees", action="store_true", default=None)
    tomo.add_argument("--branch", choices=("plus", "minus"))
    tomo.add_argument("--shots", type=int)
    tomo.add_argument("--seed", type=int, help="seed for --simulate")
    tomo.add_argument("--out-dir")

    mzi = sub.add_parser("mzi", help="interferometer phase sweep and marker analysis")
    mode = mzi.add_mutually_exclusive_group()
    mode.add_argument("--closed", action="store_true", help="second beam splitter in (default)")
    mode.add_argument("--open", action="store_true", help="second beam splitter removed")
    mzi.add_argument("--extended", action="store_true", help="enable path markers d1, d2")
    mzi.add_argument("--decohere", action="store_true", help="decohere the probe after the first beam splitter")
    mzi.add_argument("--phi", type=float, default=0.0, help="phase used for the marker analysis")
    mzi.add_argument("--grid", type=int, default=VISIBILITY_GRID)
    mzi.add_argument("--out-dir")

    sub.add_parser("selftest", help="run quick internal consistency checks")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "out_dir" in args and args.out_dir is None:
        args.out_dir = os.environ.get(OUT_DIR_ENV, "qreality_out")
    handlers = {
        "sweep": cmd_sweep,
        "tomo": cmd_tomo,
        "mzi": cmd_mzi,
        "selftest": cmd_selftest,
    }
    try:
        return handlers[args.command](parser, args)
    except (OSError, ValueError) as exc:  # every library error class subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
