"""The three workloads: item streams drawn from a seed, their input files,
and the reference checks applied to every item's outputs.

Nothing here imports qreality. Inputs and references are computed with
numpy and closed forms alone, so they do not depend on the code being
measured. The reasons for each workload are in NOTES.md.

An item is one `qreality` command. Items come in rounds; every round holds
each item kind in a fixed proportion, in a seeded order, with seeded
parameters. So two seeds differ in the inputs but not in the mix of work,
and the percentiles of item time land inside the same kind on every seed.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

WORKLOADS = ("sweep_tomo", "tomo_cli", "analytic")

UNIT = {
    "sweep_tomo": "Monte Carlo resamples",
    "tomo_cli": "tomo commands",
    "analytic": "theta rows plus phi phase points",
}

RESAMPLES = 100  # the CLI default for `sweep --tomo`
SWEEP_TOMO_ROUND = 5  # one-point sweeps per round
MZI_GRID = 256  # the CLI default for `mzi --grid`
ANALYTIC_GRID = 41  # the CLI default for `sweep --grid`

# A tomographic mean must lie within this many reported stds of the
# analytic value. Irreality is bounded to [0, 1], so near the ends of that
# range the reconstructed estimate is biased inwards by several stds: a
# Cz row, whose analytic value is exactly 0, reads 5-8 stds above it at
# any shot count (the Monte Carlo std measures the resample spread, not
# this bias). A Cx/Cz swap or a wrong state still misses by 30 or more.
TOMO_SIGMA = 12.0

# Reconstruction error bound: the linear-inversion estimate has
# E||rho_hat - rho||_F^2 <= (5/3)^n / shots for the 3^n-setting Pauli
# scheme, and clipping to a physical state does not increase the distance
# to a physical rho. The check allows this many times the bound's root.
TOMO_FROBENIUS_K = 5.0

ANALYTIC_ATOL = 1e-9
PROBABILITY_ATOL = 1e-9

# Datasets for the tomo_cli workload are written once per run, for this
# many rounds; later rounds reuse them in turn.
DATASET_POOL_ROUNDS = 32
DATASET_QUBITS = (1, 2, 2, 3, 3, 4, 4)  # the file items of one tomo_cli round
SIMULATE_PER_ROUND = 2
DATASET_SHOTS_LOG10 = (3.0, 5.0)
SIMULATE_SHOTS = 100_000  # the CLI default for `tomo --shots`

# The traced part of a --trace 1 run: whole rounds, 15-25 s in all at
# the seed commit on a 2-vCPU x86-64 virtual machine.
TRACED_ITEMS = {"sweep_tomo": 12 * SWEEP_TOMO_ROUND, "tomo_cli": 130 * 9, "analytic": 70}

# Each analytic run ends with this many untimed sweeps to theta = pi; see
# defect_probe_items. Their stream key lies beyond any round number.
DEFECT_PROBES = 2
PROBE_STREAM = 2**31 - 1

OMEGA_STATES = ("omega1z", "omega1x", "omega2z", "omega2x")
MZI_FLAGS = tuple(
    (mode, extended, decohere)
    for mode in ("--closed", "--open")
    for extended in (False, True)
    for decohere in (False, True)
)
MZI_SLOWEST = ("--closed", True, True)


# The one failure the benchmark expects at the seed commit: a sweep ending
# at theta = pi post-selects the Cz branch on an outcome of probability
# cos^2(pi/2) ~ 1e-33, and the CLI exits 1 with the ZeroProbabilityError
# message. Only the defect probes may show it; any other failure, on any
# item, makes the run incorrect.
ZERO_PROBABILITY_EXIT = re.compile(
    r"exit 1: error: outcome on .* has probability \S+ below threshold \S+"
)


class CheckFailed(Exception):
    """An item's output disagrees with the benchmark's reference."""


@dataclass
class Item:
    """One CLI command, with the work it is credited and how to check it."""

    kind: str
    argv: list[str]  # arguments to qreality.cli.main, without --out-dir
    units: int
    check: Callable[[Path], None]  # raises CheckFailed
    known_defect: re.Pattern | None = None  # the failure this item may show

    def tolerated(self, error: str) -> bool:
        """Whether `error` is this item's known defect, not a new fault."""
        return self.known_defect is not None and self.known_defect.fullmatch(error) is not None


# ---------------------------------------------------------------- references


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def eraser_reference(theta: float, config: str) -> tuple[float, float]:
    """Analytic (irreality, selection probability) of the omega states.

    Cx gives H(cos^2(theta/2)) with probability 1/4 for every target;
    Cz gives 0 with probability cos^2(theta/2)/2.
    """
    c2 = math.cos(theta / 2) ** 2
    if config == "Cx":
        return binary_entropy(c2), 0.25
    return 0.0, c2 / 2


def omega_density(state: str, theta: float) -> np.ndarray:
    """The omega state on (b, d1, d2) for Alice's plus branch.

    omega1 (path b, stage Psi1): Cz |011>, Cx c|011> + s|111>.
    omega2 (marker d1, stage Psi2): Cz |001>, Cx c|001> + s|110>.
    """
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    amps = np.zeros(8, dtype=complex)
    if state == "omega1z":
        amps[0b011] = 1.0
    elif state == "omega1x":
        amps[0b011], amps[0b111] = c, s
    elif state == "omega2z":
        amps[0b001] = 1.0
    else:
        amps[0b001], amps[0b110] = c, s
    return np.outer(amps, amps.conj())


_EIGENBASES = {
    "Z": np.eye(2, dtype=complex),
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2),
}


def pauli_counts(rho: np.ndarray, n: int, shots: int, rng) -> list[dict]:
    """Multinomial counts of every Pauli-basis setting, in the dataset schema.

    Outcome k of a setting is the joint eigenvector whose bits, first qubit
    most significant, pick the +1 (bit 0) or -1 (bit 1) eigenvector per qubit.
    """
    settings = []
    for bases in itertools.product("ZXY", repeat=n):
        v = functools.reduce(np.kron, (_EIGENBASES[b] for b in bases))
        p = np.einsum("io,ij,jo->o", v.conj(), rho, v).real.clip(0.0, None)
        counts = rng.multinomial(shots, p / p.sum())
        settings.append({"bases": list(bases), "counts": [int(x) for x in counts]})
    return settings


def random_density(n: int, rng) -> np.ndarray:
    """Random n-qubit state of random rank, from a complex Ginibre matrix."""
    dim = 2**n
    rank = int(rng.integers(1, dim + 1))
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def frobenius_tolerance(n: int, shots: int) -> float:
    return TOMO_FROBENIUS_K * math.sqrt((5.0 / 3.0) ** n / shots)


# ------------------------------------------------------------ output readers


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or not rows[0][0].startswith("# schema:"):
        raise CheckFailed(f"{path.name}: missing schema line")
    return rows[2:]


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(label: str, got: float, want: float, atol: float) -> None:
    if not abs(got - want) <= atol:
        raise CheckFailed(f"{label}: got {got!r}, expected {want!r} (atol {atol})")


# -------------------------------------------------------------------- checks


def check_sweep(
    out: Path, thetas: np.ndarray, configs: tuple[str, ...], tomo: bool
) -> None:
    """sweep.csv rows against the closed forms; tomography within TOMO_SIGMA."""
    rows = _read_csv(out / "sweep.csv")
    expected = [(config, t) for config in configs for t in thetas]
    if len(rows) != len(expected):
        raise CheckFailed(f"sweep.csv has {len(rows)} rows, expected {len(expected)}")
    if _read_json(out / "summary.json").get("rows") != len(expected):
        raise CheckFailed("summary.json row count disagrees with the sweep")
    for row, (config, theta) in zip(rows, expected):
        where = f"{config} theta={theta!r}"
        _close(f"{where} theta", float(row[0]), theta, 1e-12)
        if row[1] != config:
            raise CheckFailed(f"{where}: config column reads {row[1]!r}")
        irr, prob = eraser_reference(theta, config)
        _close(f"{where} selection_probability", float(row[6]), prob, PROBABILITY_ATOL)
        if prob < 1e-12:
            # The state is undefined; accept an empty or zero irreality.
            if row[3] and float(row[3]) != 0.0:
                raise CheckFailed(f"{where}: zero-probability row has irreality {row[3]}")
            continue
        _close(f"{where} irreality_analytic", float(row[3]), irr, ANALYTIC_ATOL)
        if not tomo:
            if row[4] or row[5]:
                raise CheckFailed(f"{where}: tomography columns filled without --tomo")
            continue
        mean, std = float(row[4]), float(row[5])
        if not (math.isfinite(std) and std > 0):
            raise CheckFailed(f"{where}: tomography std {std!r}")
        if abs(mean - irr) > TOMO_SIGMA * std:
            raise CheckFailed(
                f"{where}: tomography mean {mean} is {abs(mean - irr) / std:.1f} std "
                f"from the analytic {irr}"
            )


def check_density(out: Path, rho_true: np.ndarray, n: int, shots: int) -> None:
    """density_matrix.json is a physical state near the known true state."""
    payload = _read_json(out / "density_matrix.json")
    rho = np.array(payload["real"]) + 1j * np.array(payload["imag"])
    if rho.shape != (2**n, 2**n) or len(payload["labels"]) != n:
        raise CheckFailed(f"density matrix shape {rho.shape} for {n} qubits")
    _close("trace", float(np.trace(rho).real), 1.0, 1e-9)
    _close("hermiticity", float(np.abs(rho - rho.conj().T).max()), 0.0, 1e-9)
    if np.linalg.eigvalsh(rho).min() < -1e-9:
        raise CheckFailed("reconstructed state has a negative eigenvalue")
    dist = float(np.linalg.norm(rho - rho_true))
    tol = frobenius_tolerance(n, shots)
    if dist > tol:
        raise CheckFailed(f"Frobenius distance {dist:.4g} to the true state exceeds {tol:.4g}")


def check_mzi(out: Path, closed: bool, extended: bool, decohere: bool) -> None:
    """Fringe, visibility and marker analysis against the textbook values."""
    rows = _read_csv(out / "mzi.csv")
    phis = np.linspace(0.0, 2 * np.pi, MZI_GRID, endpoint=False)
    if len(rows) != MZI_GRID:
        raise CheckFailed(f"mzi.csv has {len(rows)} rows, expected {MZI_GRID}")
    fringe = closed and not extended and not decohere
    for row, phi in zip(rows, phis):
        p0_ref = math.cos(phi / 2) ** 2 if fringe else 0.5
        _close(f"phi={phi!r} phi", float(row[0]), phi, 1e-12)
        _close(f"phi={phi!r} p0", float(row[1]), p0_ref, PROBABILITY_ATOL)
        _close(f"phi={phi!r} p1", float(row[2]), 1.0 - p0_ref, PROBABILITY_ATOL)
    summary = _read_json(out / "summary.json")
    _close("visibility", summary["visibility"], 1.0 if fringe else 0.0, ANALYTIC_ATOL)
    if not extended:
        return
    report = summary["extended_analysis"]
    entangled = closed and not decohere
    _close("selection_probability", report["selection_probability"], 0.5, PROBABILITY_ATOL)
    _close("entanglement_entropy", report["entanglement_entropy"], 1.0 if entangled else 0.0, ANALYTIC_ATOL)
    if report["ppt_separable"] == entangled:
        raise CheckFailed(f"ppt_separable is {report['ppt_separable']}")


# --------------------------------------------------------------- item streams


def _sweep_tomo_round(rng) -> list[Item]:
    """Five one-point tomographic sweeps, one config each.

    Every item does the same work, one theta row of RESAMPLES resamples,
    so item_p50_ms and item_p90_ms are both taken over all the items of
    a run rather than over a small kind.
    """
    items = []
    for _ in range(SWEEP_TOMO_ROUND):
        target = str(rng.choice(("b", "d1", "d2")))
        config = str(rng.choice(("Cz", "Cx")))
        theta = float(rng.uniform(0.0, math.pi / 2))
        shots = int(round(10 ** rng.uniform(2.0, 4.0)))
        seed = int(rng.integers(0, 2**31))
        argv = [
            "sweep", "--target", target, "--config", config,
            "--grid", "1", "--theta-min", repr(theta), "--theta-max", repr(theta),
            "--tomo", "--shots", str(shots), "--resamples", str(RESAMPLES), "--seed", str(seed),
        ]
        check = functools.partial(check_sweep, thetas=np.array([theta]), configs=(config,), tomo=True)
        items.append(Item("sweep_tomo", argv, RESAMPLES, check))
    return items


def _dataset_path(workdir: Path, slot: int, k: int) -> Path:
    return workdir / "inputs" / f"r{slot:03d}_{k}.json"


def _dataset_spec(seed: int, slot: int, k: int, n: int):
    """True state, shots and count seed of one dataset file, from the seed.

    Its stream, keyed (seed, slot, k, n), is apart from the rounds' streams.
    """
    rng = np.random.default_rng([seed, slot, k, n])
    shots = int(round(10 ** rng.uniform(*DATASET_SHOTS_LOG10)))
    return random_density(n, rng), shots, int(rng.integers(0, 2**31))


def _tomo_cli_round(rng, seed: int, workdir: Path, r: int) -> list[Item]:
    """Seven dataset files (n = 1..4) and two simulated omega states.

    Sorted by time the nine items run 1q, 2q, 2q, 3q, 3q, sim, sim, 4q, 4q,
    so item_p50_ms lands mid-way through the 3q items and item_p90_ms
    mid-way through the 4q items.
    """
    slot = r % DATASET_POOL_ROUNDS
    items = []
    for k, n in enumerate(DATASET_QUBITS):
        rho, shots, _ = _dataset_spec(seed, slot, k, n)
        path = _dataset_path(workdir, slot, k)
        check = functools.partial(check_density, rho_true=rho, n=n, shots=shots)
        items.append(Item(f"tomo_file_{n}q", ["tomo", str(path)], 1, check))
    for _ in range(SIMULATE_PER_ROUND):
        state = str(rng.choice(OMEGA_STATES))
        theta = float(rng.uniform(0.0, math.pi))
        tomo_seed = int(rng.integers(0, 2**31))
        argv = ["tomo", "--simulate", "--state", state, "--theta", repr(theta), "--seed", str(tomo_seed)]
        check = functools.partial(
            check_density, rho_true=omega_density(state, theta), n=3, shots=SIMULATE_SHOTS
        )
        items.append(Item("tomo_simulate", argv, 1, check))
    return items


def _analytic_sweep(target: str, lo: float, hi: float, kind: str, known_defect=None) -> Item:
    argv = [
        "sweep", "--target", target, "--config", "both", "--grid", str(ANALYTIC_GRID),
        "--theta-min", repr(lo), "--theta-max", repr(hi),
    ]
    thetas = np.linspace(lo, hi, ANALYTIC_GRID)
    check = functools.partial(check_sweep, thetas=thetas, configs=("Cz", "Cx"), tomo=False)
    return Item(kind, argv, 2 * ANALYTIC_GRID, check, known_defect)


def _mzi_item(mode: str, extended: bool, decohere: bool, phi: float) -> Item:
    argv = ["mzi", mode, "--phi", repr(phi)]
    argv += ["--extended"] * extended + ["--decohere"] * decohere
    kind = "mzi_" + mode[2:] + "_ext" * extended + "_dec" * decohere
    check = functools.partial(
        check_mzi, closed=mode == "--closed", extended=extended, decohere=decohere
    )
    return Item(kind, argv, MZI_GRID, check)


def _analytic_round(rng) -> list[Item]:
    """48 sweeps over [0, pi], all eight mzi variants, and 14 more of the
    slowest variant (--closed --extended --decohere).

    Sorted by time, the sweeps take the first 48 of 70 places, so
    item_p50_ms lands well inside them, among the d1 and d2 sweeps (b
    sweeps are faster). The 15 slowest-variant items take the last 15
    places, a fifth of the items, so item_p90_ms lands mid-way through
    them. Sweeps ending at theta = pi run apart, in defect_probe_items.
    """
    items = []
    for target in ("b", "d1", "d2") * 16:
        lo, hi = sorted(float(x) for x in rng.uniform(0.0, math.pi, size=2))
        items.append(_analytic_sweep(target, lo, hi, "sweep"))
    for mode, extended, decohere in MZI_FLAGS + (MZI_SLOWEST,) * 14:
        items.append(_mzi_item(mode, extended, decohere, float(rng.uniform(0.0, 2 * math.pi))))
    return items


def item_stream(workload: str, seed: int, workdir: Path) -> Iterator[Item]:
    """The workload's endless item sequence; the same seed gives the same items."""
    for r in itertools.count():
        rng = np.random.default_rng([seed, WORKLOADS.index(workload), r])
        if workload == "sweep_tomo":
            items = _sweep_tomo_round(rng)
        elif workload == "tomo_cli":
            items = _tomo_cli_round(rng, seed, workdir, r)
        else:
            items = _analytic_round(rng)
        for i in rng.permutation(len(items)):
            yield items[i]


def defect_probe_items(workload: str, seed: int) -> list[Item]:
    """Seeded analytic sweeps that end at theta = pi, the end of the documented range.

    They run after the timed loop, untimed and the same number on every
    run, so that the known Cz zero-probability defect shows in every
    analytic result without making the failure count depend on how many
    items the loop reached. Each may show ZERO_PROBABILITY_EXIT; any other
    failure is a new fault.
    """
    if workload != "analytic":
        return []
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), PROBE_STREAM])
    items = []
    for _ in range(DEFECT_PROBES):
        target = str(rng.choice(("b", "d1", "d2")))
        lo = float(rng.uniform(0.0, math.pi))
        items.append(_analytic_sweep(target, lo, math.pi, "sweep_to_pi", ZERO_PROBABILITY_EXIT))
    return items


# ----------------------------------------------------------- set-up and inputs


def _warmup_dataset(workdir: Path, n: int) -> Path:
    return workdir / "inputs" / f"warmup_{n}q.json"


def _unchecked(out: Path) -> None:
    """Warm-up outputs are not checked."""


def warmup_items(workload: str, workdir: Path) -> list[Item]:
    """One fixed item per item kind, run untimed during set-up."""
    if workload == "sweep_tomo":
        argv = ["sweep", "--target", "d1", "--config", "Cx", "--grid", "1", "--tomo",
                "--shots", "1000", "--resamples", str(RESAMPLES), "--seed", "1"]
        return [Item("warmup", argv, 0, _unchecked)]
    if workload == "tomo_cli":
        items = [Item("warmup", ["tomo", str(_warmup_dataset(workdir, n))], 0, _unchecked)
                 for n in sorted(set(DATASET_QUBITS))]
        return items + [Item("warmup", ["tomo", "--simulate", "--seed", "1"], 0, _unchecked)]
    return [
        Item("warmup", ["sweep", "--target", "d1"], 0, _unchecked),
        Item("warmup", ["mzi", "--extended"], 0, _unchecked),
    ]


def _write_dataset(path: Path, rho: np.ndarray, n: int, shots: int, count_seed: int) -> None:
    rng = np.random.default_rng(count_seed)
    payload = {
        "n_qubits": n,
        "shots_per_setting": shots,
        "seed": count_seed,
        "settings": pauli_counts(rho, n, shots, rng),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def prepare_inputs(workload: str, seed: int, workdir: Path) -> int:
    """Write the input files the items and warm-ups read; return their count."""
    if workload != "tomo_cli":
        return 0
    (workdir / "inputs").mkdir(parents=True, exist_ok=True)
    for n in sorted(set(DATASET_QUBITS)):
        rng = np.random.default_rng([0, n])
        _write_dataset(_warmup_dataset(workdir, n), random_density(n, rng), n, 10_000, n)
    for slot in range(DATASET_POOL_ROUNDS):
        for k, n in enumerate(DATASET_QUBITS):
            rho, shots, count_seed = _dataset_spec(seed, slot, k, n)
            _write_dataset(_dataset_path(workdir, slot, k), rho, n, shots, count_seed)
    return len(set(DATASET_QUBITS)) + DATASET_POOL_ROUNDS * len(DATASET_QUBITS)
