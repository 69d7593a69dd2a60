"""The benchmark workloads: the cachegeo command each one runs and how its output is checked.

All workloads use the README reference point: lambda_s=0.1, alpha=3,
gamma=-10 dB, r_th=5, d/|C|=2/100. Command seeds are derived from the
workload seed; the program only ever sees the generated argv.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import checks

REFERENCE_FLAGS = ["--lambda", "0.1", "--alpha", "3", "--gamma-db", "-10", "--rth", "5",
                   "--d", "2", "--library", "100"]
REFERENCE = {"lambda_s": 0.1, "alpha": 3.0, "gamma": 0.1, "r_th": 5.0, "pc": 0.02}

SWEEP_STEPS = 50
SWEEP_PC = (0.02, 1.0)
SWEEP_LAMBDAS = (0.01, 0.1)
# the CLI builds the grid as start + (stop - start) * i / (steps - 1)
SWEEP_PC_VALUES = [SWEEP_PC[0] + (SWEEP_PC[1] - SWEEP_PC[0]) * i / (SWEEP_STEPS - 1)
                   for i in range(SWEEP_STEPS)]

# Smallest trial count that still goes through the thread pool
# (simulate._map_trials runs fewer trials serially).
WARMUP_TRIALS = 64


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    trials: int  # Monte Carlo trials per command (per cell for the sweep)
    # CACHEGEO_THREADS of the measured passes; None leaves it unset (auto workers)
    threads: str | None = None

    def argv(self, seed: int, trials: int, out_dir: Path) -> list[str]:
        if self.name == "simulate-default":
            return ["simulate", *REFERENCE_FLAGS, "--trials", str(trials), "--seed", str(seed),
                    "--json"]
        if self.name == "simulate-physical":
            return ["simulate", *REFERENCE_FLAGS, "--mode", "physical", "--window", "100",
                    "--trials", str(trials), "--seed", str(seed), "--json"]
        return ["sweep", *REFERENCE_FLAGS, "--quantity", "hit", "--axis", "pc",
                "--from", repr(SWEEP_PC[0]), "--to", repr(SWEEP_PC[1]),
                "--steps", str(SWEEP_STEPS), "--series-axis", "lambda-s",
                "--series-values", ",".join(repr(v) for v in SWEEP_LAMBDAS),
                "--trials", str(trials), "--seed", str(seed), "--out", str(out_dir)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate-default",
                 "default simulate: the window rule gives ~787k points per trial, so field "
                 "sampling and the interference sum dominate and the thread pool pays",
                 trials=WARMUP_TRIALS),
        Workload("simulate-physical",
                 "physical mode at a 100 m window: the cache draw dominates and ~85% of trials "
                 "are discarded by the hit conditioning",
                 trials=300),
        # Two workers hand each ~50 us trial across cores and run 2-3x slower
        # than one; that hand-off time follows the host's scheduler, not the
        # program, so this workload is measured single-threaded and the traced
        # run compares it with auto workers (simulate.pool.speedup).
        Workload("sweep-hit",
                 "100-cell cache-hit sweep on fields of ~1-8 points, one worker: per-trial "
                 "fixed cost, the sweep loop and CSV/JSON emission dominate",
                 trials=150, threads="1"),
    )
}


def command_seed(workload: str, seed: int, index: int) -> int:
    """64-bit master seed of command ``index`` (index -1 is the warm-up command)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class Outcome:
    """What one checked command contributes to the metrics."""

    trials: int  # trials asked for, summed over cells
    effective: int  # trials that entered an estimate
    discarded: int
    n_hw2: float  # sum over the reported estimates of n * half_width**2


def _half_width2(low: float, high: float) -> float:
    return ((high - low) / 2.0) ** 2


def check_output(workload: Workload, trials: int, stdout: str, sweep_module) -> Outcome:
    """Check one command's stdout (and the files it names); raise CheckFailed if wrong."""
    if workload.name == "sweep-hit":
        paths = [Path(line) for line in stdout.splitlines() if line.strip()]
        if len(paths) != 2 or paths[0].suffix != ".csv" or paths[1].suffix != ".json":
            raise checks.CheckFailed(f"sweep printed {stdout!r}, expected a CSV and a JSON path")
        csv_text = paths[0].read_text(encoding="utf-8")
        table = sweep_module.read_json(paths[1])
        for path in paths:
            path.unlink()
        rows = [{"axis": r.axis_value, "series": r.series_value, "analytic": r.analytic,
                 "sim_mean": r.sim_mean, "ci_low": r.ci_low, "ci_high": r.ci_high,
                 "error": r.error} for r in table.rows]
        checks.check_sweep_hit(csv_text, rows, tuple(sweep_module.CSV_HEADER), trials,
                               REFERENCE["r_th"], SWEEP_PC_VALUES, list(SWEEP_LAMBDAS))
        return Outcome(trials=trials * len(rows), effective=trials * len(rows), discarded=0,
                       n_hw2=sum(trials * _half_width2(r["ci_low"], r["ci_high"]) for r in rows))
    payload = json.loads(stdout)
    if workload.name == "simulate-physical":
        checks.check_simulate_physical(payload, REFERENCE, trials)
    else:
        checks.check_simulate_emulated(payload, REFERENCE, trials)
    est = payload["estimate"]
    return Outcome(trials=trials, effective=est["n"], discarded=est["n_discarded"],
                   n_hw2=est["n"] * _half_width2(est["ci_low"], est["ci_high"]))
