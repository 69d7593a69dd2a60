"""One workload pass in a fresh process, driven through ``cachegeo.cli.main(argv)``.

Runs one warm-up command, then checked commands until the time budget
(``--seconds``) or the command count (``--count``) is used up, and
prints a JSON report as its last line of stdout. The program's own stdout
and stderr are captured per command. With ``--trace`` every layer is
wrapped from outside (see tracer.py) and the per-layer figures are added
to the report.

    PYTHONPATH=src python3 perfbench/worker.py --workload sweep-hit --seed 1 --seconds 10
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

from workloads import WARMUP_TRIALS, WORKLOADS, check_output, command_seed

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
MIN_COMMANDS = 3


def run_command(cli, sweep, workload, seed, index, trials, out_dir, tracer) -> dict:
    argv = workload.argv(command_seed(workload.name, seed, index), trials, out_dir)
    record = {"index": index, "ok": False, "error": None}
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.cmd = index
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("always")
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", cli.main, (argv,))
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code
    except Exception as exc:  # a crash is a failed command, not a failed benchmark
        code = f"{type(exc).__name__}: {exc}"
    record["wall_s"] = perf_counter() - t0
    record["warnings"] = err.getvalue().count("TruncationWindowWarning")
    if code != 0:
        record["error"] = f"exit {code!r}: {err.getvalue()[-500:]}"
        return record
    try:
        outcome = check_output(workload, trials, out.getvalue(), sweep)
    except Exception as exc:  # malformed output fails the check like a wrong value
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record.update(ok=True, **asdict(outcome))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    budget = parser.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float, help="measure until this much time is used")
    budget.add_argument("--count", type=int, help="measure exactly this many commands")
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    parser.add_argument("--spans-out", type=Path, help="write the recorded spans here (gzipped CSV)")
    args = parser.parse_args(argv)

    import cachegeo
    from cachegeo import analytic, cli, simulate, sweep

    source = Path(cachegeo.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: imported cachegeo from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install(cli, sweep, simulate, analytic)

    workload = WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH))
    try:
        warmup = run_command(cli, sweep, workload, args.seed, -1, WARMUP_TRIALS, out_dir, tracer)
        if tracer is not None:
            tracer.spans.clear()
        measured = []
        start = perf_counter()
        while True:
            if args.count is not None:
                if len(measured) >= args.count:
                    break
            elif len(measured) >= MIN_COMMANDS:
                typical = statistics.median(r["wall_s"] for r in measured)
                if perf_counter() - start + typical / 2.0 > args.seconds:
                    break
            measured.append(run_command(cli, sweep, workload, args.seed, len(measured),
                                        workload.trials, out_dir, tracer))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    report = {
        "cachegeo": str(source.parent),
        "warmup": warmup,
        "commands": measured,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        trials = sum(r.get("trials", 0) for r in measured)
        report["layers"] = layer_metrics(tracer.spans, max(1, trials), tracer.absent)
        report["absent"] = tracer.absent
        if args.spans_out is not None:
            tracer.write(args.spans_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
