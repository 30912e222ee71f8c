#!/usr/bin/env python3
"""False-alarm rates of the ``cmacg verify`` checks on correct code.

Run from the root of a checkout (about four minutes on a 2-vCPU VM):

    python3 bench/calibrate.py

Each grid cell runs all five checks at n = 10000 over seeds 0..K-1 of
``run_suite`` on correct code, so every rejection is a false alarm.  It
prints one Markdown table: the rejections of each check and of the family
(any check failing), the rate, its 95% Clopper-Pearson interval from exact
binomial tails, and the nominal rate.  The four exact-law checks reject at
most at the default level, 0.01, by construction (DKW-Massart bound,
Bonferroni), and close to it in practice; ``normalization`` judges a mean
at ``DEFAULT_K`` = 4 standard errors, about 6e-5 if the normal
approximation held.  Needs numpy and the standard library only.
"""

from __future__ import annotations

import math
import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cmacg import CmacgParams  # noqa: E402
from cmacg.verify import CHECK_NAMES, DEFAULT_K, DEFAULT_LEVEL, run_suite  # noqa: E402

N = 10000
# (m, r, seeds); the parameter is diag(m, ..., 1)
GRID = ((3, 2, 400), (2, 2, 400), (3, 1, 400), (12, 4, 200))
NORMALIZATION_NOMINAL = math.erfc(DEFAULT_K / math.sqrt(2))  # two-sided normal tail at k SE


def binomial_sf(x: int, trials: int, p: float) -> float:
    """P(Bin(trials, p) > x), from the exact terms up to x (trials up to about 1000)."""
    return 1.0 - math.fsum(math.comb(trials, k) * p**k * (1 - p) ** (trials - k)
                           for k in range(x + 1))


def _crossing(f, target: float) -> float:
    """The p in [0, 1] where the increasing function f crosses target, by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < target else (lo, mid)
    return 0.5 * (lo + hi)


def clopper_pearson(x: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Exact interval for x successes: P(Bin >= x) = tail at its lower end, P(Bin <= x) = tail
    at its upper end."""
    tail = (1 - confidence) / 2
    lower = 0.0 if x == 0 else _crossing(lambda p: binomial_sf(x - 1, trials, p), tail)
    upper = 1.0 if x == trials else _crossing(lambda p: binomial_sf(x, trials, p), 1 - tail)
    return lower, upper


def calibrate(m: int, r: int, seeds: int) -> dict[str, int]:
    params = CmacgParams(np.diag(np.arange(m, 0, -1.0)).astype(complex), r)
    rejections = dict.fromkeys(CHECK_NAMES + ("family",), 0)
    for seed in range(seeds):
        failed = [name for name, outcome in run_suite(params, n=N, seed=seed)
                  if not outcome.passed]
        for name in failed:
            rejections[name] += 1
        rejections["family"] += bool(failed)
    return rejections


def main() -> None:
    level = DEFAULT_LEVEL  # run_suite's default
    print(f"n = {N}, level = {level:g}; 95% Clopper-Pearson intervals\n")
    print("| m | r | seeds | check | rejections | rate | 95% interval | nominal |")
    print("|---|---|---|---|---|---|---|---|")
    for m, r, seeds in GRID:
        started = time.perf_counter()
        rejections = calibrate(m, r, seeds)
        for name, count in rejections.items():
            low, high = clopper_pearson(count, seeds)
            nominal = {"normalization": f"{NORMALIZATION_NOMINAL:.1e}",
                       "family": f"<= {(len(CHECK_NAMES) - 1) * level + NORMALIZATION_NOMINAL:.3g}",
                       }.get(name, f"<= {level:g}")
            print(f"| {m} | {r} | {seeds} | {name} | {count} | {count / seeds:.4f} "
                  f"| [{low:.4f}, {high:.4f}] | {nominal} |", flush=True)
        print(f"m={m} r={r}: {time.perf_counter() - started:.0f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
