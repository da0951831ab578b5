"""qreality benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload sweep_tomo --seed 1 --seconds 50 --trace 0

Run it from the root of a qreality checkout; it imports the package from
src/ and writes only under .perfbench/. Set-up is sampled in fresh
processes; then one fresh, single-threaded worker process runs the timed
loop (see worker.py). With --trace 0 the last line of stdout holds the
end-to-end metrics. With --trace 1 the worker runs half the time
untraced, then a fixed number of items traced; the last line holds the
per-layer metrics of the traced part, and the spans go to
.perfbench/trace/. NOTES.md says why each workload exists and what each
metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up is measured this many times in fresh processes before the run,
# and once more in the run's own worker; setup_s is the median.
SETUP_PROBES = 8
# The run must end within 180 s; the worker is stopped at this deadline.
DEADLINE_S = 170.0
# Each worker is single-threaded: BLAS and OpenMP pools are pinned to 1.
PINNED_THREADS = "1"
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "units_per_s": "units/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARIABLES, PINNED_THREADS))
    env.pop("QREALITY_THREADS", None)  # measure the default path
    env.pop("QREALITY_OUT_DIR", None)
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """One worker process; `ready_s` is fresh start to the "ready" line."""

    def __init__(self, args, workdir: Path, setup_only: bool, deadline: float):
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", str(workdir),
        ] + ["--setup-only"] * setup_only
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        waiting, _, _ = select.select([self.proc.stdout], [], [], deadline - time.monotonic())
        line = self.proc.stdout.readline() if waiting else ""
        self.ready_s = time.perf_counter() - start
        self.ready = line.strip() == "ready"

    def finish(self) -> tuple[int, str, str]:
        try:
            out, err = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, err = self.proc.communicate()
            err += "\nworker stopped at the run deadline"
        return self.proc.returncode, out, err


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return done.stdout.strip() or "unknown"


def print_table(rows: list[tuple[str, float, str, str]]) -> None:
    print(f"{'metric':<46} {'value':>16}  {'unit':<8} samples")
    for name, value, unit, samples in rows:
        print(f"{name:<46} {value:>16.6g}  {unit:<8} {samples}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "qreality" / "cli.py").is_file():
        return fail(f"no qreality sources under {ROOT / 'src'}; run from a qreality checkout")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    deadline = time.monotonic() + DEADLINE_S

    workdir = ROOT / ".perfbench" / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    n_inputs = workloads.prepare_inputs(args.workload, args.seed, workdir)
    inputs_s = time.perf_counter() - started

    setup_samples = []
    for _ in range(SETUP_PROBES):
        probe = Worker(args, workdir, True, deadline)
        code, _, err = probe.finish()
        if not probe.ready or code != 0:
            return fail(f"set-up failed (exit {code}): {err.strip()[-2000:]}")
        setup_samples.append(probe.ready_s)
    worker = Worker(args, workdir, False, deadline)
    setup_samples.append(worker.ready_s)
    code, out, err = worker.finish()
    lines = out.strip().splitlines()
    if not worker.ready or code != 0 or not lines:
        return fail(f"worker failed (exit {code}): {err.strip()[-2000:]}")
    raw = json.loads(lines[-1])

    provenance = {
        **raw["provenance"],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "pinned_threads": int(PINNED_THREADS),
        "qreality_threads_set_by_caller": "QREALITY_THREADS" in os.environ,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_written": n_inputs,
        "inputs_s": inputs_s,
        "setup_samples_s": setup_samples,
        "items_by_kind": raw["items_by_kind"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
    }
    unit = workloads.UNIT[args.workload]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    if raw["setup_errors"]:
        print("set-up warm-up failures: " + "; ".join(raw["setup_errors"]))
    if raw["failures_by_kind"]:
        print("failed items by kind: " + json.dumps(raw["failures_by_kind"], sort_keys=True))
    for example in raw["failure_examples"]:
        print(f"failed item: {example}")
    probe = raw["probe"]
    if probe["attempted"]:
        print(
            f"known defect probe (untimed sweeps to theta = pi): {probe['known_defect']} of "
            f"{probe['attempted']} show the Cz zero-probability exit, {probe['failed']} fail otherwise"
        )
        for example in probe["examples"]:
            print(f"probe item: {example}")
    print(f"determinism: {raw['determinism']}")

    failed_frac = raw["failed"] / raw["attempted"]
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "units_per_s": raw["units_per_s"],
        "item_p50_ms": raw["item_p50_ms"],
        "item_p90_ms": raw["item_p90_ms"],
        "peak_rss_mib": raw["peak_rss_mib"],
    }
    samples = {
        "setup_s": f"median of {len(setup_samples)} fresh set-ups",
        "units_per_s": f"{raw['units']} {unit} in {raw['busy_s']:.3f} s of {raw['items']} items",
        "item_p50_ms": f"{raw['timed_items']} passing items",
        "item_p90_ms": f"{raw['timed_items']} passing items"
        + ("" if raw["timed_items"] >= 100 else " (fewer than 100)"),
        "peak_rss_mib": "1 worker process",
    }
    rows = [(k, v, END_TO_END_UNITS[k], samples[k]) for k, v in end_to_end.items()]
    rows.append(("failed_frac", failed_frac, "ratio", f"{raw['failed']}/{raw['attempted']} attempted"))
    if probe["attempted"]:
        rows.append((
            "known_defect_frac", probe["known_defect"] / probe["attempted"], "ratio",
            f"{probe['known_defect']}/{probe['attempted']} theta = pi probes",
        ))

    if args.trace:
        units = tracing.per_layer_units()
        metrics = {name: raw["per_layer"][name] for name in units}
        print_table([(name, value, units[name], "traced part") for name, value in metrics.items()])
        if raw["trace_missing"]:
            print("not found in qreality, reported as 0: " + ", ".join(raw["trace_missing"]))
        print("layer self time by item kind, share of the kind's traced item time:")
        for kind, by_layer in raw["layer_self_ms_by_kind"].items():
            total = sum(by_layer.values()) or 1.0
            shares = "  ".join(f"{layer} {ms / total:.3f}" for layer, ms in by_layer.items())
            print(f"  {kind:<22} {shares}")
    else:
        metrics = end_to_end
        units = END_TO_END_UNITS
        print_table(rows)

    summary = {
        "provenance": provenance,
        "end_to_end": end_to_end,
        "failed_frac": failed_frac,
        "raw": raw,
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")

    # Only a defect probe may show its known defect; any other failure, a
    # failed warm-up or a changed rerun makes the run incorrect.
    correct = raw["failed"] == 0 and not raw["setup_errors"] and raw["determinism"] == "ok"
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
