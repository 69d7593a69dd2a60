"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
from scipy import stats

from cachegeo.analytic import (
    cache_hit_prob,
    content_outage,
    content_outage_quadrature,
    kappa,
    optimal_density,
    serving_distance_pdf,
)
from cachegeo.model import SystemParams, db_to_linear, validate
from cachegeo.simulate import (
    SimConfig,
    draw_serving_distance,
    estimate_cache_hit,
    estimate_content_outage,
    trial_stream,
)
from cachegeo.sweep import figure_preset, run_sweep

# independent 40-digit gamma evaluation of the large-alpha constant
KAPPA_100_ORACLE = 1.0006582768034463


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_closed_form_matches_quadrature():
    with criterion(1, "closed form vs quadrature within 1e-9 on 1000 random sets, <10s"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            params = validate(
                SystemParams(
                    lambda_s=10.0 ** rng.uniform(-3, 0),
                    alpha=rng.uniform(2.1, 6.0),
                    gamma=10.0 ** rng.uniform(-3, 3),
                    r_th=rng.uniform(1.0, 50.0),
                    cache_size_d=int(rng.integers(1, 1_000_001)),
                    library_size=1_000_000,
                )
            )
            gap = abs(content_outage(params) - content_outage_quadrature(params))
            worst = max(worst, gap)
            assert gap <= 1e-9
        elapsed = time.perf_counter() - start
        print(f"  worst |closed - quadrature| = {worst:.3e}, {elapsed:.1f}s")
        assert elapsed < 10.0


def test_criterion_2_monte_carlo_covers_closed_form_on_figure_grid():
    with criterion(2, "99% CI covers the closed form in >=11/12 grid cells, <2min"):
        start = time.perf_counter()
        covered = 0
        cells = []
        index = 0
        for lam in (0.01, 0.1):
            for pc_d in (2, 10, 50):
                for r_th in (5.0, 10.0):
                    params = validate(
                        SystemParams(
                            lambda_s=lam,
                            alpha=3.0,
                            gamma=db_to_linear(-10.0),
                            r_th=r_th,
                            cache_size_d=pc_d,
                            library_size=100,
                        )
                    )
                    # interferers are sampled on the whole plane
                    cfg = SimConfig(trials=5000, master_seed=20_000 + index)
                    est = estimate_content_outage(params, cfg)
                    target = content_outage(params)
                    hit = est.ci_low <= target <= est.ci_high
                    covered += hit
                    cells.append(
                        f"  lam={lam:<5} pc={pc_d/100:<5} rth={r_th:<5} "
                        f"analytic={target:.5f} ci=[{est.ci_low:.5f},{est.ci_high:.5f}] "
                        f"{'ok' if hit else 'MISS'}"
                    )
                    index += 1
        elapsed = time.perf_counter() - start
        print("\n".join(cells))
        print(f"  covered {covered}/12 cells, {elapsed:.1f}s")
        assert covered >= 11
        assert elapsed < 120.0


def test_criterion_3_cache_hit_and_density_round_trip():
    with criterion(3, "hit estimate centers on 0.5 at ln2 product; density round trip 1e-12"):
        lam = math.log(2.0) / (0.1 * math.pi * 100.0)
        params = validate(
            SystemParams(
                lambda_s=lam, alpha=3.0, gamma=db_to_linear(-10.0), r_th=10.0,
                cache_size_d=10, library_size=100,
            )
        )
        est = estimate_cache_hit(params, SimConfig(trials=5000, master_seed=303))
        half_width = (est.ci_high - est.ci_low) / 2.0
        assert abs(est.mean - 0.5) <= 3.0 * half_width
        for eps in (0.1, 0.5, 0.9, 0.99):
            lam_opt = optimal_density(eps, 0.1, 10.0)
            round_trip = cache_hit_prob(
                validate(
                    SystemParams(
                        lambda_s=lam_opt, alpha=3.0, gamma=0.1, r_th=10.0,
                        cache_size_d=10, library_size=100,
                    )
                )
            )
            assert abs(round_trip - eps) <= 1e-12


def test_criterion_4_interference_constant():
    with criterion(4, "kappa(4) = pi/2 within 1e-12; kappa(100) within 0.02 of 1"):
        assert abs(kappa(4.0) - math.pi / 2.0) <= 1e-12
        assert abs(kappa(100.0) - 1.0) < 0.02
        assert math.isclose(kappa(100.0), KAPPA_100_ORACLE, rel_tol=1e-12)


def test_criterion_5_distance_sampler_against_quadrature_cdf():
    with criterion(5, "KS of 1e5 draws below the 1% critical value; pdf normalizes to 1e-6"):
        params = validate(
            SystemParams(
                lambda_s=0.1, alpha=3.0, gamma=db_to_linear(-10.0), r_th=10.0,
                cache_size_d=2, library_size=100,
            )
        )
        n = 100_000
        samples = draw_serving_distance(params, trial_stream(505, 0), size=n)

        # reference CDF from trapezoid quadrature of the density, not from
        # the sampler's own inverse formula
        grid = np.linspace(0.0, params.r_th, 8193)
        pdf = np.array([serving_distance_pdf(params, r) for r in grid])
        cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0 * np.diff(grid))))
        normalization = cdf[-1]
        assert abs(normalization - 1.0) <= 1e-6
        cdf /= normalization

        ordered = np.sort(samples)
        reference = np.interp(ordered, grid, cdf)
        ranks = np.arange(1, n + 1) / n
        ks_statistic = max(
            np.max(ranks - reference), np.max(reference - (ranks - 1.0 / n))
        )
        critical = stats.kstwobign.ppf(0.99) / math.sqrt(n)
        print(f"  KS statistic {ks_statistic:.5f} vs 1% critical value {critical:.5f}")
        assert ks_statistic < critical


def test_criterion_6_figure_trends():
    with criterion(6, "analytic trends across all figure presets, <5s, no simulation"):
        start = time.perf_counter()

        def curves(fig):
            table = run_sweep(figure_preset(fig))
            assert all(row.sim_mean is None for row in table.rows)
            grouped = {}
            for row in table.rows:
                assert row.error is None
                grouped.setdefault(row.series_value, []).append(row.analytic)
            return grouped

        def nondecreasing(values):
            return all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

        for curve in curves(2).values():  # outage grows with density
            assert nondecreasing(curve)
        for curve in curves(3).values():  # outage falls with replication
            assert nondecreasing(curve[::-1])
        for fig in (4, 5):  # outage grows with threshold distance
            for curve in curves(fig).values():
                assert nondecreasing(curve)
        for fig in (6, 7):  # outage grows to 1 with the SIR threshold
            for curve in curves(fig).values():
                assert nondecreasing(curve)
                assert curve[-1] > 0.999  # value at 60 dB
        for fig, label in ((8, "distance"), (9, "replication")):
            grouped = curves(fig)
            ordered_series = sorted(grouped)
            length = len(next(iter(grouped.values())))
            for i in range(length):  # density falls as the series grows
                column = [grouped[s][i] for s in ordered_series]
                assert all(b < a for a, b in zip(column, column[1:]))
        elapsed = time.perf_counter() - start
        print(f"  all preset trends hold, {elapsed:.1f}s")
        assert elapsed < 5.0


def test_criterion_7_cli_determinism(tmp_path):
    with criterion(7, "byte-identical simulate JSON across reruns"):
        argv = [
            sys.executable, "-m", "cachegeo", "simulate",
            "--lambda", "0.1", "--alpha", "3", "--gamma-db", "-10",
            "--rth", "5", "--d", "2", "--library", "100",
            "--trials", "500", "--seed", "31", "--json",
        ]

        def run():
            return subprocess.run(argv, capture_output=True, check=True).stdout

        first = run()
        second = run()
        assert first == second
        payload = json.loads(first)
        assert payload["estimate"]["n"] == 500
