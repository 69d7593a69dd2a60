"""Tests of the benchmark's output checks and trace arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

import checks
from run import scipy_import_us
from tracer import Span, layer_metrics, self_times
from workloads import (REFERENCE, SWEEP_LAMBDAS, SWEEP_PC_VALUES, WARMUP_TRIALS, WORKLOADS,
                       check_output)

ROOT = Path(__file__).resolve().parent.parent
HEADER = ("axis", "series", "analytic", "sim_mean", "ci_low", "ci_high")
# closed-form content outage at the reference point, as `cachegeo analytic` prints it
REFERENCE_OUTAGE = 0.7493262869815979


def emulated_payload(trials=5000, shift=0.0):
    k = round((REFERENCE_OUTAGE + shift) * trials)
    mean = k / trials
    return {"mode": "emulated", "trials": trials, "analytic_content_outage": REFERENCE_OUTAGE,
            "estimate": {"mean": mean, "ci_low": mean - 0.02, "ci_high": mean + 0.02,
                         "confidence": 0.99, "n": trials, "n_discarded": 0}}


def physical_payload(trials=2000, hit_shift=0.0):
    hit = checks.cache_hit_prob(REFERENCE["lambda_s"], REFERENCE["pc"], REFERENCE["r_th"])
    n = round((hit + hit_shift) * trials)
    mean = round(0.72 * n) / n
    payload = emulated_payload(trials)
    payload.update(mode="physical")
    payload["estimate"].update(mean=mean, ci_low=mean - 0.08, ci_high=mean + 0.08, n=n,
                               n_discarded=trials - n)
    return payload


def sweep_output(trials=500, shift=0.0):
    rows = []
    for lam in SWEEP_LAMBDAS:
        for pc in SWEEP_PC_VALUES:
            hit = checks.cache_hit_prob(lam, pc, REFERENCE["r_th"])
            mean = min(trials, max(0, round((hit + shift) * trials))) / trials
            rows.append({"axis": pc, "series": lam, "analytic": hit, "sim_mean": mean,
                         "ci_low": max(0.0, mean - 0.05), "ci_high": min(1.0, mean + 0.05),
                         "error": None})
    return rows


def csv_text(rows, header=HEADER):
    lines = ['# tool: "cachegeo"', ",".join(header)]
    lines += [",".join(repr(row[key]) for key in header) for row in rows]
    return "\n".join(lines) + "\n"


def check_sweep(csv, rows, trials=500):
    checks.check_sweep_hit(csv, rows, HEADER, trials, REFERENCE["r_th"], SWEEP_PC_VALUES,
                           list(SWEEP_LAMBDAS))


def test_quadrature_matches_the_programs_closed_form():
    assert checks.content_outage(**REFERENCE) == pytest.approx(REFERENCE_OUTAGE, abs=1e-12)


def test_binomial_test_accepts_the_centre_and_rejects_the_far_tail():
    assert checks.binomial_consistent(50, 100, 0.5, 1e-6)
    assert checks.binomial_consistent(0, 200, 0.0156, 1e-6)
    assert not checks.binomial_consistent(90, 100, 0.5, 1e-6)
    assert not checks.binomial_consistent(101, 100, 0.5, 1e-6)


def test_binomial_test_keeps_its_level_where_the_wilson_interval_does_not():
    # P(X >= 12) = 8.4e-5 for X ~ Binomial(200, 0.0156), yet the 1 - 1e-6
    # Wilson interval of 12/200 excludes 0.0156
    assert checks.binomial_consistent(12, 200, 0.0156, 1e-6)
    assert not checks.binomial_consistent(16, 200, 0.0156, 1e-6)


def test_emulated_check_accepts_a_consistent_estimate():
    checks.check_simulate_emulated(emulated_payload(), REFERENCE, 5000)


@pytest.mark.parametrize("mutate", [
    lambda p: p.update(emulated_payload(shift=0.1)),
    lambda p: p.update(analytic_content_outage=REFERENCE_OUTAGE + 1e-6),
    lambda p: p["estimate"].update(n_discarded=1),
    lambda p: p["estimate"].update(ci_high=p["estimate"]["mean"] - 0.01),
    lambda p: p.update(mode="physical"),
])
def test_emulated_check_rejects_a_wrong_payload(mutate):
    payload = emulated_payload()
    mutate(payload)
    with pytest.raises(checks.CheckFailed):
        checks.check_simulate_emulated(payload, REFERENCE, 5000)


def test_physical_check_accepts_a_consistent_payload():
    checks.check_simulate_physical(physical_payload(), REFERENCE, 2000)


@pytest.mark.parametrize("payload", [
    physical_payload(hit_shift=0.1),
    physical_payload(hit_shift=-0.1),
])
def test_physical_check_rejects_a_wrong_hit_share(payload):
    with pytest.raises(checks.CheckFailed):
        checks.check_simulate_physical(payload, REFERENCE, 2000)


def test_physical_check_rejects_a_wrong_discard_count():
    payload = physical_payload()
    payload["estimate"]["n_discarded"] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check_simulate_physical(payload, REFERENCE, 2000)


def test_sweep_check_accepts_a_consistent_table():
    rows = sweep_output()
    check_sweep(csv_text(rows), rows)


def test_sweep_check_rejects_a_missing_csv_column():
    rows = sweep_output()
    with pytest.raises(checks.CheckFailed):
        check_sweep(csv_text(rows, HEADER[:-1]), rows)


def test_sweep_check_rejects_csv_json_disagreement():
    rows = sweep_output()
    csv = csv_text(rows)
    changed = copy.deepcopy(rows)
    changed[7]["ci_high"] = min(1.0, changed[7]["ci_high"] + 0.001)
    with pytest.raises(checks.CheckFailed):
        check_sweep(csv, changed)


@pytest.mark.parametrize("mutate", [
    lambda rows: rows[3].update(error="boom"),
    lambda rows: rows[60].update(analytic=rows[60]["analytic"] * (1 + 1e-9)),
    lambda rows: rows.pop(),
])
def test_sweep_check_rejects_a_wrong_row(mutate):
    rows = sweep_output()
    mutate(rows)
    with pytest.raises(checks.CheckFailed):
        check_sweep(csv_text(rows), rows)


def test_sweep_check_rejects_shifted_estimates():
    rows = sweep_output(shift=0.1)
    with pytest.raises(checks.CheckFailed):
        check_sweep(csv_text(rows), rows)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_accept_the_programs_own_output(name, tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.delenv("CACHEGEO_THREADS", raising=False)
    from cachegeo import cli, sweep

    workload = WORKLOADS[name]
    capsys.readouterr()
    assert cli.main(workload.argv(7, WARMUP_TRIALS, tmp_path)) == 0
    outcome = check_output(workload, WARMUP_TRIALS, capsys.readouterr().out, sweep)
    assert outcome.effective + outcome.discarded == outcome.trials > 0


def span(id, parent, tid, t0, t1):
    return Span(id, parent, "s", tid, None, 0, t0, t1, 0, 0, None)


def test_metrics_of_a_removed_private_seam_are_absent_not_failed():
    spans = [Span(0, None, "cli.main", 1, None, 0, 0.0, 1.0, 0, 0, None),
             Span(1, 0, "simulate.sample_ppp", 1, None, 0, 0.1, 0.2, 160, 10, 100.0)]
    absent = ["cachegeo.simulate._map_trials", "cachegeo.simulate._cache_holds_requested"]
    metrics = layer_metrics(spans, trials=1, absent=absent)
    assert metrics["simulate.points_per_trial"] == 10
    assert metrics["simulate.cache_membership.us_per_trial"] is None
    assert metrics["simulate.trial.us_p50"] is None
    assert metrics["simulate.bytes_computed_per_trial"] is None


def test_self_time_subtracts_only_children_on_the_same_thread():
    spans = [span(0, None, 1, 0.0, 10.0), span(1, 0, 1, 1.0, 3.0), span(2, 0, 2, 2.0, 9.0),
             span(3, 2, 2, 4.0, 5.0)]
    assert self_times(spans) == {0: 8.0, 1: 2.0, 2: 6.0, 3: 1.0}


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   numpy
import time:       200 |        300 | scipy
import time:        10 |         10 |         numpy.linalg
import time:        50 |         60 |       scipy._lib
import time:        40 |        100 |     scipy
import time:        30 |        130 |   scipy.integrate
import time:        20 |         20 |   cachegeo.model
import time:         5 |        155 | cachegeo.analytic
"""


def test_scipy_import_time_counts_outermost_scipy_imports_under_cachegeo():
    # scipy.integrate (130) counts; its scipy children and the scipy import
    # made outside cachegeo do not
    assert scipy_import_us(IMPORTTIME) == 130


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
