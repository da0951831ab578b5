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
from .core import DensityMatrix, ObservableSpec, QubitRegister, _pauli_z, purity
from .eraser import (
    OMEGA_REGISTER,
    ProtocolConfig,
    TARGETS,
    irreality_curve,
    omega_state,
    stage_for_target,
)
from .mzi import (
    VISIBILITY_GRID,
    MziConfig,
    _visibility,
    detector_probabilities,
    extended_output_analysis,
    visibility,
)
from .tomography import (
    MAX_COUNT,
    MAX_POISSON_COUNT,
    load_dataset,
    monte_carlo_irreality,
    project_to_physical,
    reconstruct,
    simulate_counts,
    tomography_end_to_end,
)

OUT_DIR_ENV = "QREALITY_OUT_DIR"
DEFAULT_SEED = 42

SWEEP_SCHEMA = "qreality.sweep.v1"
MZI_SCHEMA = "qreality.mzi.v1"
RHO_SCHEMA = "qreality.rho-real.v1"

# Measured peaks: a sweep row takes about 1.5 KB, 2.2 KB with --tomo (two
# rows per grid point with --config both; the tracemalloc peaks of sweep at
# --grid 2 000 and 10 000 differ by 24 MB), an mzi phase about 0.44 KB and
# a Monte Carlo resample of the 3-qubit omega state about 8.2 KB (the peaks
# of monte_carlo_irreality at 2 000 and 10 000 resamples differ by 65 MB).
# So --grid at its limit needs about 0.3 GB for a sweep (0.45 GB with
# --tomo) and 44 MB for mzi, and --resamples at its limit about 0.8 GB.
MAX_GRID = 100_000
MAX_RESAMPLES = 100_000
INT64_LIMIT = "the largest int64 count"
POISSON_LIMIT = "the largest count numpy's Poisson resampling accepts"

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


def _write_csv(path: Path, schema: str, header: list[str], rows) -> None:
    """The schema line, then the header and rows, in one write.

    Fields are joined with commas and lines end in CRLF, as the csv
    module's default dialect writes them.  No field the CLI writes holds a
    comma, a quote or a line break, so none needs quoting.
    """
    lines = [f"# schema: {schema}\n", ",".join(header), "\r\n"]
    for row in rows:
        lines += (",".join(row), "\r\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(lines))


def _reprs(column: np.ndarray, defined: np.ndarray) -> list[str]:
    """``repr`` of each float in ``column``, with an empty field where
    ``defined`` is False; a NaN in a defined row is written as ``nan``."""
    return [repr(v) if ok else "" for v, ok in zip(column.tolist(), defined.tolist())]


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _theta_grid(parser, args) -> np.ndarray:
    lo, hi = args.theta_min, args.theta_max
    if args.degrees:
        lo, hi = np.radians(lo), np.radians(hi)
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
    target = TARGETS[args.target]
    if args.tomo:
        _check_range(parser, "--resamples", args.resamples, 2, MAX_RESAMPLES, "to bound memory")
        _check_range(parser, "--shots", args.shots, 1, MAX_COUNT, INT64_LIMIT)
        _check_range(parser, "--shots", args.shots, 1, MAX_POISSON_COUNT, POISSON_LIMIT)
    configs = ("Cz", "Cx") if args.config == "both" else (args.config,)

    curves = [
        irreality_curve(ProtocolConfig(0.0, config, args.branch), args.target, grid)
        for config in configs
    ]
    # all columns but omega, which only --tomo reads and is joined there
    thetas, irrealities, probs = (np.concatenate(column) for column in list(zip(*curves))[:3])
    defined = probs > 0.0
    tomo_mean, tomo_std = np.full((2, len(thetas)), np.nan)
    if args.tomo:
        omegas = np.concatenate([curve.omega for curve in curves])
        z_target = _pauli_z(target)
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
                OMEGA_REGISTER,
            )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = [
        "theta",
        "config",
        "target",
        "irreality_analytic",
        "irreality_tomo_mean",
        "irreality_tomo_std",
        "selection_probability",
    ]
    tomo_done = defined & args.tomo
    rows = zip(
        map(repr, thetas.tolist()),
        [config for config in configs for _ in grid],
        [target] * len(thetas),
        _reprs(irrealities, defined),
        _reprs(tomo_mean, tomo_done),
        _reprs(tomo_std, tomo_done),
        map(repr, probs.tolist()),
    )
    _write_csv(out_dir / "sweep.csv", SWEEP_SCHEMA, header, rows)

    config_dict = {
        "target": target,
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
        theta = np.radians(args.theta) if args.degrees else args.theta
        if not 0.0 <= theta <= np.pi + 1e-12:
            parser.error("--theta must satisfy 0 <= theta <= pi")
        target, config = OMEGA_STATES[args.state]
        cfg = ProtocolConfig(theta=float(theta), alice_config=config, alice_branch=args.branch)
        truth, _ = omega_state(cfg, target)
        result = tomography_end_to_end(truth, args.shots, args.seed)
        report = {"state": args.state, "theta": float(theta)}
        config_dict = {"simulate": True, **report, "branch": args.branch, "shots": args.shots}
    else:
        result = reconstruct(load_dataset(args.dataset))  # qubits labelled q0 ... q{n-1}
        report = {"dataset": str(args.dataset)}
        config_dict = {"simulate": False, **report}

    rho = result.rho_physical
    register = rho.register
    report["fidelity_to_truth"] = result.fidelity_to_truth
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

    kets = [format(i, f"0{register.n_qubits}b") for i in range(register.dimension)]
    rows = [
        [str(i), str(j), kets[i], kets[j], repr(value)]
        for i, values in enumerate(rho.entries.real.tolist())
        for j, value in enumerate(values)
    ]
    _write_csv(
        out_dir / "density_matrix_real.csv",
        RHO_SCHEMA,
        ["row", "col", "row_ket", "col_ket", "real"],
        rows,
    )
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
    cfg = MziConfig(
        phi=0.0,
        closed=not args.open,
        extended=args.extended,
        decohere_after_first_bs=args.decohere,
    )
    phis = np.linspace(0.0, 2 * np.pi, args.grid, endpoint=False)
    probs = detector_probabilities(cfg, phis)
    rows = [[repr(phi), repr(p0), repr(p1)] for phi, (p0, p1) in zip(phis.tolist(), probs)]

    # on visibility's own grid the p0 column already holds its samples
    vis = _visibility([p for p, _ in probs]) if args.grid == VISIBILITY_GRID else visibility(cfg)
    summary = {
        "closed": cfg.closed,
        "extended": cfg.extended,
        "decohere_after_first_bs": cfg.decohere_after_first_bs,
        "visibility": vis,
        "grid": args.grid,
    }
    if cfg.extended:
        analysis = extended_output_analysis(dataclasses.replace(cfg, phi=args.phi))
        summary["extended_analysis"] = {
            "phi": args.phi,
            "selection_probability": analysis.selection_probability,
            "entanglement_entropy": analysis.entanglement_entropy,
            "mutual_information": analysis.mutual_information,
            "ppt_separable": analysis.ppt_separable,
            "irreality_sigma_z_at_s1": analysis.irreality_sigma_z_at_s1,
        }

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "mzi.csv", MZI_SCHEMA, ["phi", "p0", "p1"], rows)
    _write_json(out_dir / "summary.json", summary)
    config_dict = {
        "closed": cfg.closed,
        "extended": cfg.extended,
        "decohere": cfg.decohere_after_first_bs,
        "grid": args.grid,
        "phi": args.phi,
    }
    _write_manifest(out_dir, "mzi", config_dict, None)
    print(f"visibility: {summary['visibility']:.9f}")
    print(f"wrote {out_dir / 'mzi.csv'}")
    return 0


def _selftest_checks():
    from .core import PureState, fidelity
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
        from .tomography import all_settings, born_probabilities, reconstruct_from_frequencies

        freqs = np.stack([born_probabilities(omega, s) for s in all_settings(3)])
        rho_hat = reconstruct_from_frequencies(freqs, 3)
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
    sweep.add_argument("--target", choices=sorted(TARGETS), default="b")
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
