"""cachegeo benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload simulate-default --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. Every process is started with
the interpreter running this script, ``src/`` first on PYTHONPATH and
``CACHEGEO_THREADS`` set explicitly (unset means the program's automatic
worker count), never inherited.

``--trace 0`` measures set-up time in fresh interpreters, then runs the
workload in a child process (worker.py) for ``--seconds`` and prints the
end-to-end metrics. ``--trace 1`` runs the workload three times on the
same commands: untraced, traced, and untraced at the other worker setting
(CACHEGEO_THREADS=1 for a workload measured at auto workers, auto for one
measured single-threaded), and prints the per-layer metrics, the pool
speed-up and the tracing overhead. Each prints one line per metric with
its unit, then a JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
IMPORT_PROBES = 3
TARGET_HALF_WIDTH = 0.01
# every child is killed once the whole run has taken this long
RUN_DEADLINE_S = 170.0
STARTED = perf_counter()

END_TO_END_UNITS = {
    "setup_s": "s",
    "cmd_p50_s": "s",
    "trials_per_s": "1/s",
    "s_to_hw_0.01": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "setup.import_scipy_s": "s",
    "cli.main.self_ms": "ms",
    "analytic.self_ms": "ms",
    "sweep.run_sweep.self_ms": "ms",
    "sweep.emit_ms": "ms",
    "simulate.window_m": "m",
    "simulate.points_per_trial": "count",
    "simulate.bytes_computed_per_trial": "B",
    "simulate.trial_stream.us_per_trial": "us",
    "simulate.sample_ppp.us_per_trial": "us",
    "simulate.radii.us_per_trial": "us",
    "simulate.serving_distance.us_per_trial": "us",
    "simulate.sir_sample.us_per_trial": "us",
    "simulate.cache_membership.us_per_trial": "us",
    "simulate.trial.self_us": "us",
    "simulate.trial.us_p50": "us",
    "simulate.trial.us_p99": "us",
    "simulate.discard_frac": "ratio",
    "simulate.truncation_warnings": "count",
    "simulate.pool.workers": "count",
    "simulate.pool.speedup": "ratio",
    "simulate.aggregate.us_per_cmd": "us",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(threads: str | None) -> dict:
    env = dict(os.environ)
    env.pop("CACHEGEO_THREADS", None)
    if threads is not None:
        env["CACHEGEO_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


def run_child(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    remaining = RUN_DEADLINE_S - (perf_counter() - STARTED)
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=max(1.0, remaining))
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def setup_seconds(env: dict) -> list[float]:
    """Wall seconds for a fresh interpreter to import cachegeo.cli and build the parser."""
    probe = ["-c", "import cachegeo.cli as cli; cli.build_parser()"]
    run_child(probe, env)  # fills the bytecode cache, which users have too
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        run_child(probe, env)
        times.append(perf_counter() - t0)
    return times


IMPORTTIME_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)")


def scipy_import_us(importtime_stderr: str) -> int:
    """Cumulative microseconds of the outermost scipy imports made under cachegeo.

    ``-X importtime`` prints a module after the modules it imports, two
    spaces deeper per level, so walking the lines backwards meets every
    parent before its children.
    """
    def is_scipy(name: str) -> bool:
        return name == "scipy" or name.startswith("scipy.")

    entries = [m for m in map(IMPORTTIME_LINE.match, importtime_stderr.splitlines()) if m]
    ancestors: list[str] = []
    total_us = 0
    for m in reversed(entries):
        depth, name = len(m.group(3)) // 2, m.group(4)
        del ancestors[depth:]
        if is_scipy(name) and any(a.startswith("cachegeo") for a in ancestors) \
                and not any(map(is_scipy, ancestors)):
            total_us += int(m.group(2))
        ancestors.append(name)
    return total_us


def import_scipy_seconds(env: dict) -> float:
    """Median over fresh interpreters of :func:`scipy_import_us`, in seconds."""
    probe = ["-X", "importtime", "-c", "import cachegeo.cli"]
    return statistics.median(scipy_import_us(run_child(probe, env).stderr) / 1e6
                             for _ in range(IMPORT_PROBES))


def run_worker(workload: str, seed: int, env: dict, *, seconds: float | None = None,
               count: int | None = None, trace: bool = False) -> dict:
    argv = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", repr(seconds)] if count is None else ["--count", str(count)]
    if trace:
        argv += ["--trace", "--spans-out", str(ROOT / ".perfbench" / f"spans-{workload}-{seed}.csv.gz")]
    report = json.loads(run_child(argv, env).stdout.splitlines()[-1])
    report["ok"] = [r for r in report["commands"] if r["ok"]]
    if not report["ok"]:
        errors = {r["error"] for r in [report["warmup"], *report["commands"]] if r["error"]}
        raise BenchError(f"no command of {workload} passed its check: {sorted(errors)[:3]}")
    return report


def tally(*reports: dict) -> tuple[int, int]:
    records = [r for rep in reports for r in [rep["warmup"], *rep["commands"]]]
    failed = [r for r in records if not r["ok"]]
    for r in failed:
        print(f"failed command {r['index']}: {r['error']}", file=sys.stderr)
    return len(records), len(failed)


def cmd_p50(report: dict) -> float:
    return statistics.median(r["wall_s"] for r in report["commands"])


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    env = child_env(WORKLOADS[workload].threads)
    setup = setup_seconds(env)
    report = run_worker(workload, seed, env, seconds=seconds)
    ok = report["ok"]
    effective = statistics.fmean(r["effective"] for r in ok)
    n_hw2 = statistics.fmean(r["n_hw2"] for r in ok)
    # rates are taken over the whole run: the host's speed swings between
    # commands, and a total follows the share of slow commands smoothly
    # where a median jumps between the fast and the slow ones
    trials_per_s = sum(r["effective"] for r in ok) / sum(r["wall_s"] for r in ok)
    metrics = {
        "setup_s": statistics.median(setup),
        "cmd_p50_s": cmd_p50(report),
        "trials_per_s": trials_per_s,
        "s_to_hw_0.01": n_hw2 / TARGET_HALF_WIDTH**2 / trials_per_s,
        "peak_rss_mb": report["rss_kb"] / 1024.0,
    }
    attempted, failed = tally(report)
    counts = {"setup_s": f"median of {len(setup)} fresh interpreters",
              "cmd_p50_s": f"median of {len(report['commands'])} commands",
              "trials_per_s": f"{effective:.6g} effective trials per command, over the run",
              "s_to_hw_0.01": f"mean n*hw^2 = {n_hw2:.4g} per command"}
    return metrics, attempted, failed, counts


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    threads = WORKLOADS[workload].threads
    plain = run_worker(workload, seed, child_env(threads), seconds=seconds / 3.0)
    count = len(plain["commands"])
    traced = run_worker(workload, seed, child_env(threads), count=count, trace=True)
    # the pool speed-up compares one worker with auto workers on the same commands
    by_threads = {threads: plain}
    for setting in (None, "1"):
        if setting not in by_threads:
            by_threads[setting] = run_worker(workload, seed, child_env(setting), count=count)
    ok = traced["ok"]
    metrics = dict(traced["layers"])
    metrics.update({
        "setup.import_scipy_s": import_scipy_seconds(child_env(None)),
        "simulate.discard_frac": sum(r["discarded"] for r in ok) / sum(r["trials"] for r in ok),
        "simulate.truncation_warnings": statistics.fmean(r["warnings"] for r in plain["commands"]),
        "simulate.pool.speedup": cmd_p50(by_threads["1"]) / cmd_p50(by_threads[None]),
        "trace.overhead_frac": cmd_p50(traced) / cmd_p50(plain) - 1.0,
    })
    attempted, failed = tally(traced, *by_threads.values())
    counts = {"simulate.pool.speedup": f"median of {count} commands at 1 and at auto workers",
              "trace.overhead_frac": f"median of {count} traced and untraced commands"}
    counts.update({key: "absent: its private seam is gone" for key, value in metrics.items()
                   if value is None})
    return metrics, attempted, failed, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cachegeo benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cachegeo" / "cli.py").is_file():
        print(f"error: no cachegeo source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    measure, units = (per_layer, PER_LAYER_UNITS) if args.trace else (end_to_end, END_TO_END_UNITS)
    try:
        metrics, attempted, failed, counts = measure(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, {attempted} commands, {failed} failed")
    for name, unit in units.items():
        value = metrics[name]
        shown = "absent" if value is None else f"{value:.6g} {unit}"
        note = f"  ({counts[name]})" if name in counts else ""
        print(f"{name} = {shown}{note}")
    print(f"error_rate = {failed / attempted:.6g} 1  ({failed} of {attempted} commands)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": 0.0 if metrics[name] is None else metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
