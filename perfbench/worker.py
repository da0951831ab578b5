"""The measured process: set up, run one workload's closed loop, report.

run.py starts this file in a fresh interpreter, once per set-up sample
with --setup-only and once for the run itself. Set-up is importing
qreality and running one untimed warm-up item per item kind; the process
then prints "ready". The run continues with a closed loop, one client
with no think time: each item is one call to `qreality.cli.main(argv)`,
issued as soon as the previous one has been checked. The last line on
stdout is one JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import qreality  # noqa: E402
import qreality.cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# Files compared byte for byte when the first item is rerun; manifest.json
# is left out because it holds a timestamp.
VOLATILE_OUTPUTS = {"manifest.json"}
FAILURE_EXAMPLES = 5


def run_item(item: workloads.Item, out_dir: Path, tracer=None, item_id: int = -1):
    """Run one item; return (ok, wall seconds, failure reason or None)."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    argv = item.argv + ["--out-dir", str(out_dir)]
    sink = io.StringIO()
    error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        if tracer is not None:
            tracer.item = item_id
            tracer.enter(tracing.ITEM_ID)
        try:
            code = qreality.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an item failure must not stop the run
            code, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.leave()
        wall = time.perf_counter() - start
    if error is None and code != 0:
        lines = sink.getvalue().strip().splitlines()
        error = f"exit {code}: {lines[-1] if lines else ''}"
    if error is None:
        try:
            item.check(out_dir)
        except (workloads.CheckFailed, OSError, ValueError, TypeError, KeyError, IndexError) as exc:
            error = f"check failed: {type(exc).__name__}: {exc}"
    return error is None, wall, error


def output_bytes(out_dir: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name not in VOLATILE_OUTPUTS
    }


class Loop:
    """Totals of one timed loop."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.units = 0
        self.busy_s = 0.0
        self.walls: list[float] = []  # every item, in order
        self.times_ms: list[float] = []  # passing items only
        self.kinds: list[str] = []
        self.failures: dict[str, int] = {}
        self.examples: list[str] = []
        self.bytes_written = 0
        self.first = None  # (item, output bytes) of the first passing item

    def record(self, item, ok: bool, wall: float, error) -> None:
        self.attempted += 1
        self.busy_s += wall
        self.walls.append(wall)
        self.kinds.append(item.kind)
        if ok:
            self.units += item.units
            self.times_ms.append(wall * 1e3)
            return
        self.failed += 1
        self.failures[item.kind] = self.failures.get(item.kind, 0) + 1
        if len(self.examples) < FAILURE_EXAMPLES:
            self.examples.append(f"{item.kind} {' '.join(item.argv)} -> {error}")

    @property
    def units_per_s(self) -> float:
        return self.units / self.busy_s if self.busy_s else 0.0


def timed_loop(workload, seed, workdir, seconds, tracer=None, max_items=None) -> Loop:
    """Run items from the start of the stream for `seconds` or `max_items`."""
    loop = Loop()
    out_dir = workdir / "out"
    stream = itertools.islice(workloads.item_stream(workload, seed, workdir), max_items)
    deadline = time.perf_counter() + seconds
    for item in stream:
        if time.perf_counter() >= deadline:
            break
        ok, wall, error = run_item(item, out_dir, tracer, loop.attempted)
        if ok and loop.first is None:
            loop.first = (item, output_bytes(out_dir))
        if tracer is not None and out_dir.exists():
            loop.bytes_written += sum(p.stat().st_size for p in out_dir.iterdir())
        loop.record(item, ok, wall, error)
    return loop


def determinism_check(workdir: Path, first) -> str | None:
    """Rerun the first passing item; return a reason if its outputs changed."""
    if first is None:
        return "no passing item to rerun"
    item, before = first
    ok, _, error = run_item(item, workdir / "rerun")
    if not ok:
        return f"rerun of the first passing item failed: {error}"
    after = output_bytes(workdir / "rerun")
    changed = sorted(k for k in set(before) | set(after) if before.get(k) != after.get(k))
    if changed:
        return f"rerun of the first passing item changed {', '.join(changed)}"
    return None


def defect_probe(workload: str, seed: int, workdir: Path) -> dict:
    """Run the workload's known-defect items, untimed, and sort their outcomes."""
    probe = {"attempted": 0, "known_defect": 0, "failed": 0, "examples": []}
    for item in workloads.defect_probe_items(workload, seed):
        ok, _, error = run_item(item, workdir / "probe")
        probe["attempted"] += 1
        if ok:
            continue
        probe["known_defect" if item.tolerated(error) else "failed"] += 1
        probe["examples"].append(f"{item.kind} {' '.join(item.argv)} -> {error}")
    return probe


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def blas_info() -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        config = np.show_config(mode="dicts")
    deps = config.get("Build Dependencies", {})
    return {key: deps.get(key, {}) for key in ("blas", "lapack")}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    warmup_dir = args.workdir / "warmup"
    setup_errors = []
    for item in workloads.warmup_items(args.workload, args.workdir):
        ok, _, error = run_item(item, warmup_dir)
        if not ok:
            setup_errors.append(f"{' '.join(item.argv)} -> {error}")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    untraced_s = args.seconds / 2 if args.trace else args.seconds
    loop = timed_loop(args.workload, args.seed, args.workdir, untraced_s)
    mismatch = determinism_check(args.workdir, loop.first)
    probe = defect_probe(args.workload, args.seed, args.workdir)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loops = [loop]

    per_layer = None
    layer_shares = None
    trace_missing = []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        # The traced part is a fixed amount of work, so that its per-layer
        # sums compare across versions; the time limit only guards the run.
        traced = timed_loop(
            args.workload, args.seed, args.workdir, args.seconds, tracer,
            max_items=workloads.TRACED_ITEMS[args.workload],
        )
        loops.append(traced)
        per_layer, layer_shares = tracer.metrics(traced.kinds)
        # Both halves start from the same item, so their common prefix is
        # the same work; compare throughput over it.
        common = min(loop.attempted, traced.attempted)
        untraced_busy, traced_busy = sum(loop.walls[:common]), sum(traced.walls[:common])
        per_layer.update(
            {
                "cli.bytes_written": traced.bytes_written,
                "trace.items": traced.attempted,
                "trace.units_per_s_untraced": loop.units_per_s,
                "trace.units_per_s_traced": traced.units_per_s,
                "trace.overhead_frac": 1.0 - untraced_busy / traced_busy,
            }
        )
        trace_missing = tracer.missing
        tracer.write_spans(ROOT / ".perfbench" / "trace" / f"{args.workload}.spans.csv")

    result = {
        # + the determinism rerun and the defect probes; a probe that shows
        # its known defect is reported apart and does not count as failed
        "attempted": sum(lp.attempted for lp in loops) + 1 + probe["attempted"],
        "failed": sum(lp.failed for lp in loops) + (mismatch is not None) + probe["failed"],
        "probe": probe,
        "determinism": mismatch or "ok",
        "units": loop.units,
        "units_per_s": loop.units_per_s,
        "busy_s": loop.busy_s,
        "items": loop.attempted,
        "timed_items": len(loop.times_ms),
        "item_p50_ms": quantile(loop.times_ms, 50),
        "item_p90_ms": quantile(loop.times_ms, 90),
        "peak_rss_mib": peak_rss_mib,
        "failures_by_kind": {k: v for lp in loops for k, v in lp.failures.items()},
        "failure_examples": [e for lp in loops for e in lp.examples][:FAILURE_EXAMPLES],
        "items_by_kind": {k: loop.kinds.count(k) for k in sorted(set(loop.kinds))},
        "setup_errors": setup_errors,
        "per_layer": per_layer,
        "layer_self_ms_by_kind": layer_shares,
        "trace_missing": trace_missing,
        "provenance": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas_info(),
            "qreality": qreality.__version__,
            "qreality_path": str(Path(qreality.__file__).resolve().relative_to(ROOT)),
            "blas_threads_pinned": {
                k: os.environ.get(k)
                for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            },
            "qreality_threads_in_worker": os.environ.get("QREALITY_THREADS"),
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
