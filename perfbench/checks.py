"""Output checks for the benchmark workloads.

Every check compares a command's output with a law the program must
satisfy exactly, so a correct program fails it with probability at most
``FAMILY_ALPHA`` per command. Monte Carlo estimates are tested with an
exact binomial tail test (equivalent to asking that the true value lies
in the Clopper-Pearson interval), not with the Wilson interval the
program reports: the Wilson interval leans on a normal approximation
whose tails are far too light at a handful of expected successes, which
the low-density sweep cells produce. The CLI's PASS/FAIL verdict is a
99% interval and is never used.

The reference values are computed here from the model's definitions,
independently of the program.
"""

from __future__ import annotations

import math

# Probability that one correct command is rejected, split evenly across
# the estimates the command reports (Bonferroni).
FAMILY_ALPHA = 1e-6
# A closed form evaluated by the program and by the quadrature here agree
# to well below this.
CLOSED_FORM_TOL = 1e-9


class CheckFailed(AssertionError):
    """A command's output broke a law the program must satisfy."""


def cache_hit_prob(lambda_s: float, pc: float, r_th: float) -> float:
    """Probability that some SBS within r_th caches the content."""
    return -math.expm1(-lambda_s * pc * math.pi * r_th * r_th)


def content_outage(lambda_s: float, alpha: float, gamma: float, r_th: float, pc: float,
                   panels: int = 4000) -> float:
    """Content outage by composite Simpson quadrature of its defining integral.

    Integrates the fixed-distance outage against the serving-distance
    density conditioned on a hit within r_th.
    """
    kappa = math.gamma(1.0 + 2.0 / alpha) * math.gamma(1.0 - 2.0 / alpha)
    scale = lambda_s * kappa * math.pi * gamma ** (2.0 / alpha)
    rate = lambda_s * pc * math.pi
    norm = -math.expm1(-rate * r_th * r_th)

    def integrand(r: float) -> float:
        return -math.expm1(-scale * r * r) * 2.0 * rate * r * math.exp(-rate * r * r) / norm

    h = r_th / panels
    total = integrand(0.0) + integrand(r_th)
    total += 4.0 * math.fsum(integrand((2 * i - 1) * h) for i in range(1, panels // 2 + 1))
    total += 2.0 * math.fsum(integrand(2 * i * h) for i in range(1, panels // 2))
    return total * h / 3.0


def binomial_consistent(successes: int, n: int, p: float, alpha: float) -> bool:
    """Exact two-sided binomial test: False when either tail at ``successes`` is below alpha/2."""
    if not 0 <= successes <= n:
        return False
    if p <= 0.0 or p >= 1.0:
        return successes == (0 if p <= 0.0 else n)
    log_p, log_q = math.log(p), math.log1p(-p)
    lg_n = math.lgamma(n + 1)

    def pmf(j: int) -> float:
        return math.exp(lg_n - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                        + j * log_p + (n - j) * log_q)

    lower = math.fsum(pmf(j) for j in range(0, successes + 1))
    upper = math.fsum(pmf(j) for j in range(successes, n + 1))
    return min(lower, upper) >= alpha / 2.0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _successes(mean: float, n: int, what: str) -> int:
    k = round(mean * n)
    _require(abs(k - mean * n) < 1e-6 * max(1, n), f"{what}: mean {mean!r} is not a count over n={n}")
    return k


def _check_estimate_shape(est: dict) -> None:
    _require(0.0 <= est["ci_low"] <= est["mean"] <= est["ci_high"] <= 1.0,
             f"interval [{est['ci_low']!r}, {est['ci_high']!r}] does not bracket mean {est['mean']!r}")


def check_simulate_emulated(payload: dict, params: dict, trials: int) -> None:
    """`simulate --json` in emulated mode: the closed form is consistent with the estimate.

    ``params`` holds lambda_s, alpha, gamma (linear), r_th and pc as requested.
    """
    _require(payload["mode"] == "emulated", f"mode is {payload['mode']!r}")
    _require(payload["trials"] == trials, f"trials {payload['trials']!r} != {trials}")
    est = payload["estimate"]
    _require(est["n"] == trials and est["n_discarded"] == 0,
             f"emulated run used n={est['n']}, n_discarded={est['n_discarded']} of {trials}")
    _check_estimate_shape(est)
    reference = content_outage(**params)
    _require(abs(payload["analytic_content_outage"] - reference) <= CLOSED_FORM_TOL,
             f"closed form {payload['analytic_content_outage']!r} != quadrature {reference!r}")
    k = _successes(est["mean"], est["n"], "outage estimate")
    _require(binomial_consistent(k, est["n"], reference, FAMILY_ALPHA),
             f"outage {k}/{est['n']} is inconsistent with the closed form {reference!r}")


def check_simulate_physical(payload: dict, params: dict, trials: int) -> None:
    """`simulate --mode physical --json`: discard accounting and the exact hit law.

    The outage estimate is documented to deviate from the closed form in
    this mode, so only its shape is checked; the share of trials that kept
    a caching SBS within r_th must follow the cache hit probability.
    """
    _require(payload["mode"] == "physical", f"mode is {payload['mode']!r}")
    _require(payload["trials"] == trials, f"trials {payload['trials']!r} != {trials}")
    est = payload["estimate"]
    n, discarded = est["n"], est["n_discarded"]
    _require(n >= 1 and discarded >= 0 and n + discarded == trials,
             f"n={n} + n_discarded={discarded} != trials={trials}")
    _check_estimate_shape(est)
    _successes(est["mean"], n, "outage estimate")
    hit = cache_hit_prob(params["lambda_s"], params["pc"], params["r_th"])
    _require(binomial_consistent(n, trials, hit, FAMILY_ALPHA),
             f"hit share {n}/{trials} is inconsistent with the cache hit probability {hit!r}")


def _csv_rows(csv_text: str, header: tuple[str, ...]) -> list[dict]:
    lines = [line for line in csv_text.splitlines() if line and not line.startswith("#")]
    _require(bool(lines), "CSV has no header")
    _require(tuple(lines[0].split(",")) == tuple(header),
             f"CSV header {lines[0]!r} != {','.join(header)!r}")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        _require(len(fields) == len(header), f"CSV row {line!r} has {len(fields)} fields")
        rows.append({key: float(value) if value else None for key, value in zip(header, fields)})
    return rows


def check_sweep_hit(csv_text: str, json_rows: list[dict], header: tuple[str, ...],
                    trials: int, r_th: float, pc_values: list[float],
                    lambda_values: list[float]) -> None:
    """`sweep --quantity hit` over pc, one curve per density.

    ``json_rows`` are the rows read back from the JSON file, with keys
    axis, series, analytic, sim_mean, ci_low, ci_high and error. Every row
    is error-free, the CSV and JSON agree value for value, every analytic
    cell equals the closed form and every Monte Carlo cell is consistent
    with it.
    """
    csv_rows = _csv_rows(csv_text, header)
    expected = [(pc, lam) for lam in lambda_values for pc in pc_values]
    _require(len(json_rows) == len(expected), f"{len(json_rows)} JSON rows, expected {len(expected)}")
    _require(len(csv_rows) == len(expected), f"{len(csv_rows)} CSV rows, expected {len(expected)}")
    alpha = FAMILY_ALPHA / len(expected)
    for (pc, lam), row, csv_row in zip(expected, json_rows, csv_rows):
        where = f"cell pc={pc!r}, lambda_s={lam!r}"
        _require(row["error"] is None, f"{where}: error {row['error']!r}")
        _require(all(csv_row[key] == row[key] for key in header),
                 f"{where}: CSV row {csv_row} != JSON row {row}")
        _require(math.isclose(row["axis"], pc, rel_tol=1e-12) and row["series"] == lam,
                 f"{where}: row is at axis={row['axis']!r}, series={row['series']!r}")
        reference = cache_hit_prob(lam, pc, r_th)
        _require(math.isclose(row["analytic"], reference, rel_tol=1e-12, abs_tol=1e-15),
                 f"{where}: analytic {row['analytic']!r} != closed form {reference!r}")
        _check_estimate_shape({"mean": row["sim_mean"], "ci_low": row["ci_low"],
                               "ci_high": row["ci_high"]})
        k = _successes(row["sim_mean"], trials, where)
        _require(binomial_consistent(k, trials, reference, alpha),
                 f"{where}: {k}/{trials} hits is inconsistent with {reference!r}")
