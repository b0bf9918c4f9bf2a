"""Summary statistics and name rules shared by the runner and its tests."""

from __future__ import annotations

import re
import statistics

# Metric and workload names: a letter or digit, then letters, digits, _ . -
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Candidate percentiles, in tenths of a percent.
PERMILLES = (500, 750, 900, 950, 990, 999)


def valid_name(name: str) -> bool:
    return isinstance(name, str) and NAME.fullmatch(name) is not None


def rank(permille: int, n: int) -> int:
    """1-based nearest rank of the percentile among n sorted samples."""
    return max(1, -(-permille * n // 1000))


def tail_permille(n: int) -> int | None:
    """Highest percentile (in permille) with at least ten samples beyond it."""
    best = None
    for pm in PERMILLES:
        if n - rank(pm, n) >= 10:
            best = pm
    return best


def percentile(values, permille: int):
    ordered = sorted(values)
    return ordered[rank(permille, len(ordered)) - 1]


def summarize(values) -> dict:
    """Median, the tail percentile when there is one, the count and raw values.

    "value", the figure a run reports, is the median unless a caller sets it.
    """
    values = list(values)
    med = statistics.median(values)
    out = {"value": med, "n": len(values), "median": med}
    pm = tail_permille(len(values))
    if pm is not None:
        out[f"p{pm / 10:g}"] = percentile(values, pm)
    out["raw"] = values
    return out


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
