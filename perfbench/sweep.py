"""Traced-mode probes: CLI start-up floors and scaling sweeps per layer.

The sweep times one public call per size and fits the log-log slope of time
against size, so "no super-linear algorithm where sort + prefix sums will
do" reads as a number.  Each point is the median of a few calls.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import numpy as np

from hrfrontier import (
    ScenarioPayoff,
    gram_from_scenarios,
    market_from_json,
    monotone_hansen_ratio,
    special_portfolios,
    tree_oracle,
)
from jobs import _probs, dense_input, scenario_input

#: Timings measured when the roadmap was re-anchored, printed next to ours.
REANCHOR = (
    ("verify wall (CLI child)", "cli.verify_ms", 750.0),
    ("monotone_hansen_ratio S=1e3", "sweep.mhr_ms.S1000", 77.0),
    ("tree_oracle 16^4 = 65536 leaves", "sweep.tree16_4_ms", 440.0),
    ("gram_from_scenarios n=10 S=2000", "sweep.from_scenarios_ms.S2000", 25.0),
    ("special_portfolios n=300", "sweep.special_ms.n300", 2.5),
)


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def slope(sizes, times_ms) -> float:
    """Least-squares slope of log(time) against log(size)."""
    return float(np.polyfit(np.log(sizes), np.log(times_ms), 1)[0])


def _scenario_market(data: dict):
    q, values = data["q"], data["values"]
    basis = [ScenarioPayoff.from_arrays(q, values[:, i]) for i in range(values.shape[1])]
    return basis, gram_from_scenarios(basis, data["prices"])


def scaling_sweep(seed: int) -> tuple[dict, dict]:
    """Returns the fitted slopes and every timed point (ms per call)."""
    rng = np.random.default_rng([seed, 9])
    points: dict[str, float] = {}
    slopes: dict[str, float] = {}

    sizes = (100, 1000, 3000)
    for n_states, repeats in zip(sizes, (21, 3, 1)):
        values = rng.uniform(-0.8, 1.6, n_states)
        payoff = ScenarioPayoff.from_arrays(_probs(rng, n_states), values)
        points[f"sweep.mhr_ms.S{n_states}"] = _median_ms(
            lambda: monotone_hansen_ratio(payoff), repeats
        )
    slopes["monotone.mhr_exp"] = slope(sizes, [points[f"sweep.mhr_ms.S{s}"] for s in sizes])

    sizes = (250, 500, 1000, 2000)
    for n_states in sizes:
        data = scenario_input(rng, n_states, 10)
        basis, _market = _scenario_market(data)
        points[f"sweep.from_scenarios_ms.S{n_states}"] = _median_ms(
            lambda: gram_from_scenarios(basis, data["prices"]), 3
        )
    slopes["market.from_scenarios_exp"] = slope(
        sizes, [points[f"sweep.from_scenarios_ms.S{s}"] for s in sizes]
    )

    # Two-period trees, so the work per leaf is the same at every size.
    leaves = []
    for n_states in (16, 64, 256):
        _basis, market = _scenario_market(scenario_input(rng, n_states, 2))
        leaves.append(n_states**2)
        points[f"sweep.tree_ms.L{n_states ** 2}"] = _median_ms(
            lambda: tree_oracle(market, 2), 3 if n_states < 256 else 1
        )
    slopes["multiperiod.tree_exp"] = slope(
        leaves, [points[f"sweep.tree_ms.L{n}"] for n in leaves]
    )
    _basis, market = _scenario_market(scenario_input(rng, 16, 2))
    points["sweep.tree16_4_ms"] = _median_ms(lambda: tree_oracle(market, 4), 1)

    sizes = (3, 50, 300)
    for n in sizes:
        market = market_from_json(dense_input(rng, "universe", n))
        points[f"sweep.special_ms.n{n}"] = _median_ms(
            lambda: special_portfolios(market), 201 if n < 300 else 21
        )
    slopes["frontier.special_exp"] = slope(
        sizes, [points[f"sweep.special_ms.n{n}"] for n in sizes]
    )
    return slopes, points


def startup_probes(env: dict, repeats: int = 3) -> dict[str, float]:
    """Median wall time of bare interpreter start and of fresh imports."""

    def wall_ms(code: str) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e3

    interp = wall_ms("pass")
    return {
        "cli.interp_ms": interp,
        "cli.import_numpy_ms": wall_ms("import numpy") - interp,
        "cli.import_ms": wall_ms("import hrfrontier.cli") - interp,
    }


def cli_peak_rss_mb(env: dict, argvs: list[list[str]]) -> float:
    """Largest peak RSS among CLI children, seen from a parent that starts only them."""
    code = (
        "import json, resource, subprocess, sys\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    subprocess.run([sys.executable, '-m', 'hrfrontier.cli', *argv],\n"
        "                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, check=True, timeout=170)
    return int(proc.stdout) / 1024.0


def reanchor_rows(metrics: dict) -> list[tuple[str, float, float]]:
    """(what, re-anchor ms, measured ms) for every row measured in this run."""
    return [(label, ref, metrics[key]) for label, key, ref in REANCHOR if key in metrics]
