"""Workloads of the hrfrontier benchmark: seeded inputs, jobs and output checks.

Each workload is a fixed cycle of job slots.  The seed draws the data of
every slot; the cycle fixes how many jobs of each size class a run has, so
the median and the 90th percentile always fall inside one size class (see
``CYCLE`` in each workload for where they land).  Jobs call hrfrontier only
through its public functions and its ``hrfrontier.cli`` entry point, with
default arguments.  Each job's output is checked after its timer stops,
against references computed here with plain numpy.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

import hrfrontier
import hrfrontier.cli
from hrfrontier import (
    ScenarioPayoff,
    check_hansen_bound,
    check_kernel,
    frontier_coefficients,
    frontier_points,
    gram_from_scenarios,
    hj_bounds,
    kernel_frontier,
    market_from_json,
    monotone_hansen_ratio,
    monotone_hj_bound,
    multiperiod_frontier,
    propagate,
    special_portfolios,
    tree_oracle,
)
from hrfrontier.benchmark import verification_report

#: Relative tolerance of every check against a numpy reference.
REL_TOL = 1e-9
#: Subprocess reports must equal the in-process library values this closely.
CLI_REL_TOL = 1e-12
#: Stock ``verify`` fails exactly these rows, by a printed-reference rounding gap.
KNOWN_RED = {
    "multiperiod_sr_inv_sq_x": 1.2187e-5,
    "frontier_sigma_curvature": 1.2187e-5,
}
KNOWN_RED_REL_TOL = 1e-3
#: Mean grid of ``frontier_points`` and of the ``frontier --grid`` invocation.
GRID = (0.5, 2.0, 101)
HORIZONS = (2, 4, 12)
#: Distinct inputs drawn per cycle slot; the run cycles through them.
VARIANTS = 3


class Workload:
    """A fixed cycle of job slots, ``VARIANTS`` seeded inputs per slot.

    ``run`` is the timed job; ``check`` judges its output afterwards and
    returns a list of problems; ``after_job`` runs outside the job timer in
    traced runs only.
    """

    name: str
    WARMUP: int
    slots: list

    def after_job(self, out, tr) -> None:
        pass


# --------------------------------------------------------------------------
# Generic helpers


def _probs(rng: np.random.Generator, n_states: int) -> np.ndarray:
    raw = rng.uniform(0.2, 1.0, n_states)
    q = raw / raw.sum()
    q[-1] = 1.0 - math.fsum(q[:-1])
    return q


def _rel_err(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = float(np.linalg.norm(want))
    return float(np.linalg.norm(got - want)) / (scale if scale > 0 else 1.0)


def _expect_close(problems: list, what: str, got, want, tol: float = REL_TOL) -> None:
    err = _rel_err(got, want)
    if not err <= tol:
        problems.append(f"{what}: relative error {err:.3e} > {tol:g}")


def special_reference(gram, means, prices) -> dict:
    """y, x and z from ``np.linalg.solve``, independent of hrfrontier's solver."""
    g = np.asarray(gram, dtype=float)
    m = np.asarray(means, dtype=float)
    p = np.asarray(prices, dtype=float)
    gi_p = np.linalg.solve(g, p)
    gi_m = np.linalg.solve(g, m)
    p_gi_p = float(p @ gi_p)
    w_y = gi_p / p_gi_p
    omega_sq_y = 1.0 / p_gi_p
    mu_y = float(m @ w_y)
    w_x = gi_m - (float(p @ gi_m) / p_gi_p) * gi_p
    hr_sq_x = float(m @ w_x)
    mu_z = mu_y / (1.0 - hr_sq_x)
    return {
        "gram": g,
        "means": m,
        "prices": p,
        "w_y": w_y,
        "w_x": w_x,
        "w_z": w_y + mu_z * w_x,
        "mu_y": mu_y,
        "omega_sq_y": omega_sq_y,
        "hr_sq_x": hr_sq_x,
        "hr_sq_y": mu_y * mu_y / omega_sq_y,
    }


def check_special(sp, ref: dict) -> list[str]:
    """Special portfolios against the reference and the paper's identities."""
    problems: list[str] = []
    for name in ("w_y", "w_x", "w_z", "hr_sq_x", "hr_sq_y"):
        _expect_close(problems, name, getattr(sp, name), ref[name])
    p, m = ref["prices"], ref["means"]
    w_x = np.asarray(sp.w_x)
    if not abs(float(p @ np.asarray(sp.w_y)) - 1.0) <= REL_TOL:
        problems.append("y does not cost one")
    if not abs(float(p @ w_x)) <= REL_TOL * float(np.linalg.norm(p) * np.linalg.norm(w_x)):
        problems.append("x does not cost zero")
    _expect_close(problems, "mean(x) vs hr_sq_x", float(m @ w_x), sp.hr_sq_x)
    if not sp.hr_sq_x + sp.hr_sq_y <= 1.0 + 1e-10:
        problems.append("hr_sq_x + hr_sq_y exceeds one")
    return problems


def _multiperiod_fields(stats) -> list[float]:
    return [stats.mu_y, stats.omega_sq_y, stats.hr_sq_y, stats.hr_sq_x]


# --------------------------------------------------------------------------
# dense-frontier


def _covariance(rng: np.random.Generator, n: int) -> np.ndarray:
    factor = rng.standard_normal((n, n + 2))
    cov = 0.05 * (factor @ factor.T) / (n + 2) + 0.01 * np.eye(n)
    return 0.5 * (cov + cov.T)


def dense_input(rng: np.random.Generator, kind: str, n: int) -> dict:
    """A parsed market mapping, as ``json.load`` would return it."""
    if kind == "sequence":
        flows = []
        for date in (1, 2, 3):
            q = _probs(rng, 4)
            flows.append(
                {
                    "date": date,
                    "probabilities": q.tolist(),
                    "values": rng.uniform(0.5, 1.5, (n, 4)).tolist(),
                }
            )
        return {
            "kind": "sequence",
            "beta": float(rng.uniform(0.6, 0.95)),
            "horizon": 64,
            "prices": rng.uniform(0.8, 1.2, n).tolist(),
            "flows": flows,
        }
    mu = 1.0 + rng.uniform(0.02, 0.25, n)
    cov = _covariance(rng, n)
    if kind == "universe":
        return {"kind": "universe", "mu": mu.tolist(), "sigma": cov.tolist()}
    gram = cov + np.outer(mu, mu)
    gram = 0.5 * (gram + gram.T)
    return {
        "kind": "gram",
        "G": gram.tolist(),
        "m": mu.tolist(),
        "p": rng.uniform(0.9, 1.1, n).tolist(),
    }


def dense_reference(data: dict) -> dict:
    """Gram, means and prices of a market mapping, then y/x/z by ``solve``."""
    kind = data["kind"]
    if kind == "universe":
        mu = np.array(data["mu"])
        return special_reference(
            np.array(data["sigma"]) + np.outer(mu, mu), mu, np.ones(mu.size)
        )
    if kind == "gram":
        return special_reference(data["G"], data["m"], data["p"])
    beta = data["beta"]
    lead = beta / (1.0 - beta)
    n = len(data["prices"])
    gram = np.zeros((n, n))
    raw_means = np.zeros(n)
    for flow in data["flows"]:
        q = np.array(flow["probabilities"])
        v = np.array(flow["values"])
        weight = lead * beta ** flow["date"]
        gram += weight * (v * q) @ v.T
        raw_means += weight * (v @ q)
    unit_norm_sq = lead * beta * (1.0 - beta ** data["horizon"]) / (1.0 - beta)
    return special_reference(gram, raw_means / math.sqrt(unit_norm_sq), data["prices"])


def dense_job(data: dict, tr) -> dict:
    with tr.span("market.from_json", gram_cells=_gram_cells(data)):
        market = market_from_json(data)
    with tr.span("frontier.special"):
        sp = special_portfolios(market)
    with tr.span("frontier.coeffs"):
        coeffs = frontier_coefficients(sp)
    with tr.span("frontier.bound"):
        bound = check_hansen_bound(sp)
    grid = np.linspace(*GRID)
    with tr.span("frontier.points"):
        points = frontier_points(coeffs, grid)
    with tr.span("kernel.hj_bounds"):
        hj = hj_bounds(market)
    multi = []
    for horizon in HORIZONS:
        with tr.span("multiperiod.propagate"):
            stats_n = propagate(sp, horizon)
            multi.append((stats_n, multiperiod_frontier(stats_n)))
    return {
        "market": market,
        "sp": sp,
        "coeffs": coeffs,
        "bound": bound,
        "points": points,
        "hj": hj,
        "multi": multi,
    }


def _gram_cells(data: dict) -> int:
    n = len(data.get("mu") or data.get("m") or data["prices"])
    return n * n


def check_dense(out: dict, ref: dict) -> list[str]:
    sp = out["sp"]
    problems = check_special(sp, ref)
    one = propagate(sp, 1)
    _expect_close(
        problems,
        "propagate(sp, 1)",
        _multiperiod_fields(one),
        [sp.mu_y, sp.omega_sq_y, sp.hr_sq_y, sp.hr_sq_x],
        1e-12,
    )
    mu = np.array([pt.mu for pt in out["points"]])
    if mu.size != GRID[2]:
        problems.append(f"frontier_points returned {mu.size} points")
    else:
        omega_sq = ref["omega_sq_y"] + (mu - ref["mu_y"]) ** 2 / ref["hr_sq_x"]
        _expect_close(
            problems, "frontier omega", [pt.omega for pt in out["points"]], np.sqrt(omega_sq)
        )
    if not out["bound"].passed:
        problems.append("check_hansen_bound failed")
    hr_bound = 1.0 - ref["hr_sq_x"]
    _expect_close(problems, "hj hr_bound", out["hj"].hr_bound, hr_bound)
    _expect_close(
        problems, "hj variance_bound", out["hj"].variance_bound, ref["hr_sq_x"] / hr_bound
    )
    for stats_n, coeffs_n in out["multi"]:
        if not stats_n.hr_sq_x + stats_n.hr_sq_y <= 1.0 + 1e-10:
            problems.append(f"ratio bound violated at horizon {stats_n.horizon}")
        if coeffs_n.degenerate:
            problems.append(f"degenerate frontier at horizon {stats_n.horizon}")
    return problems


class DenseFrontier(Workload):
    """Closed-form path: parse, factorize, special portfolios, frontier, bounds.

    ``CYCLE`` is 20 jobs: 14 with three assets (8 universe, 5 gram and
    1 sequence market), 2 at n = 50 and 4 at n = 300, which interleave.
    Sorted by time, the three-asset jobs fill the lowest 70%, so the median
    falls well inside them; the n = 300 jobs fill the top 20%, so the 90th
    percentile falls in their middle.
    """

    name = "dense-frontier"
    CYCLE = (
        ("universe", 3), ("gram", 3), ("universe", 3), ("universe", 300), ("gram", 3),
        ("universe", 3), ("universe", 50), ("universe", 3), ("universe", 300), ("gram", 3),
        ("sequence", 3), ("universe", 3), ("universe", 300), ("gram", 3), ("universe", 3),
        ("gram", 50), ("universe", 3), ("universe", 300), ("gram", 3), ("universe", 3),
    )
    WARMUP = len(CYCLE)

    def __init__(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng([seed, 1])
        self.workdir = workdir
        self.slots = list(self.CYCLE)
        self.inputs = [
            [dense_input(rng, kind, n) for _ in range(VARIANTS)] for kind, n in self.slots
        ]
        self._refs: dict = {}

    def label(self, slot: int) -> str:
        kind, n = self.slots[slot]
        return f"{kind}-n{n}"

    def run(self, slot: int, variant: int, tr):
        return dense_job(self.inputs[slot][variant], tr)

    def reference(self, slot: int, variant: int) -> dict:
        key = (slot, variant)
        if key not in self._refs:
            self._refs[key] = dense_reference(self.inputs[slot][variant])
        return self._refs[key]

    def check(self, slot: int, variant: int, out) -> list[str]:
        return check_dense(out, self.reference(slot, variant))

    def after_job(self, out, tr) -> None:
        """Traced runs only: one plain Cholesky of the job's Gram, as a floor."""
        with tr.span("linalg.cholesky_ref"):
            np.linalg.cholesky(out["market"].gram)


# --------------------------------------------------------------------------
# statewise


def scenario_input(rng: np.random.Generator, n_states: int, n_assets: int) -> dict:
    """State probabilities, payoffs and prices set by a positive kernel (no arbitrage)."""
    q = _probs(rng, n_states)
    values = rng.uniform(-0.5, 2.0, (n_states, n_assets))
    kernel = rng.uniform(0.3, 1.7, n_states)
    return {"q": q, "values": values, "prices": (q * kernel) @ values}


def bound_input(rng: np.random.Generator, n_states: int, n_assets: int) -> dict:
    """Scenario market whose minimum-norm kernel is nonnegative in every state."""
    while True:
        q = _probs(rng, n_states)
        values = 1.0 + rng.uniform(-0.3, 0.3, (n_states, n_assets))
        prices = (q * rng.uniform(0.3, 1.7, n_states)) @ values
        gram = (values * q[:, None]).T @ values
        if (values @ np.linalg.solve(gram, prices)).min() > 0.0:
            return {"q": q, "values": values, "prices": prices}


def scenario_reference(data: dict) -> dict:
    q, v = data["q"], data["values"]
    return special_reference((v * q[:, None]).T @ v, q @ v, data["prices"])


def mhr_scan(q: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Best ratio of the payoff clipped at a cap, by evaluating every candidate.

    Candidates are every positive outcome and, for each threshold ``lo``,
    the stationary cap ``E[W^2; W <= lo] / E[W; W <= lo]``; the optimum is one
    of them.  Also returns the best ratio over a dense grid of caps, which
    may not exceed the optimum.
    """
    levels = np.unique(v[v > 0.0])
    inc = v[None, :] <= np.concatenate(([0.0], levels))[:, None]
    first = (inc * q * v).sum(axis=1)
    second = (inc * q * v * v).sum(axis=1)
    stationary = second[first > 0.0] / first[first > 0.0]
    caps = np.concatenate((levels, stationary))
    grid = np.geomspace(levels[0], levels[-1], 2000)

    def best(caps: np.ndarray) -> float:
        clipped = np.minimum(v[None, :], caps[:, None])
        return float(((clipped @ q) / np.sqrt((clipped * clipped) @ q)).max())

    return best(caps), best(grid)


def statewise_job(data: dict, horizon: int, size: str, tr) -> dict:
    q, values = data["q"], data["values"]
    n_states, n_assets = values.shape
    with tr.span("moments.payoff_build", states=n_states * n_assets):
        basis = [ScenarioPayoff.from_arrays(q, values[:, i]) for i in range(n_assets)]
    with tr.span("market.from_scenarios", state_cells=n_states * n_assets):
        market = gram_from_scenarios(basis, data["prices"])
    with tr.span("frontier.special"):
        sp = special_portfolios(market)
    with tr.span("kernel.frontier"):
        kf = kernel_frontier(market)
    with tr.span("kernel.kernel_at"):
        kernel = kf.kernel(kf.eta_star)
    with tr.span("kernel.check"):
        kc = check_kernel(kernel, market)
    x_vals = values @ sp.w_x
    with tr.span("moments.payoff_build", states=n_states):
        x_payoff = ScenarioPayoff.from_arrays(q, x_vals)
    with tr.span(f"monotone.mhr_{size}", states=n_states):
        mr = monotone_hansen_ratio(x_payoff)
    with tr.span("multiperiod.tree", leaves=n_states**horizon):
        tree = tree_oracle(market, horizon)
    return {
        "market": market,
        "sp": sp,
        "kernel": kernel,
        "kc": kc,
        "x_vals": x_vals,
        "mr": mr,
        "tree": tree,
    }


def check_statewise(out: dict, ref: dict, data: dict, scan: bool) -> list[str]:
    q, v = data["q"], data["values"]
    sp = out["sp"]
    problems = check_special(sp, ref)
    _expect_close(problems, "gram", out["market"].gram, ref["gram"])
    tree = out["tree"]
    _expect_close(
        problems,
        "tree_oracle vs propagate",
        _multiperiod_fields(tree),
        _multiperiod_fields(propagate(sp, tree.horizon)),
    )
    m = np.array(out["kernel"].values)
    price_err = float(np.linalg.norm((q * m) @ v - ref["prices"]))
    if not price_err <= REL_TOL * float(np.linalg.norm(ref["prices"])):
        problems.append(f"kernel misprices the market by {price_err:.3e}")
    hr_sq_m = float(q @ m) ** 2 / float(q @ (m * m))
    _expect_close(problems, "kernel hr_sq_m", out["kc"].hr_sq_m, hr_sq_m)
    if not hr_sq_m <= 1.0 - ref["hr_sq_x"] + 1e-10:
        problems.append("kernel breaks hr_sq_m <= 1 - hr_sq_x")
    x = out["x_vals"]
    hr_x = float(q @ x) / math.sqrt(float(q @ (x * x)))
    mhr = out["mr"].mhr
    if not mhr >= hr_x - 1e-12:
        problems.append(f"MHR {mhr} below HR {hr_x}")
    if scan:
        best, best_grid = mhr_scan(q, x)
        _expect_close(problems, "MHR vs scan of every cap", mhr, best)
        if not best_grid <= mhr * (1.0 + REL_TOL):
            problems.append("a cap on the grid beats the reported MHR")
    return problems


def check_bound(report, kernel, data: dict) -> list[str]:
    q = data["q"]
    m = np.array(kernel.values)
    hr_sq_m = float(q @ m) ** 2 / float(q @ (m * m))
    problems: list[str] = []
    _expect_close(problems, "kernel_hr_sq", report.kernel_hr_sq, hr_sq_m)
    if not (report.mhr_ok and report.msr_ok):
        problems.append("monotone kernel bound failed")
    if not 0.0 < report.sup_mhr_sq <= 1.0 - hr_sq_m + 1e-10:
        problems.append(f"sup_mhr_sq {report.sup_mhr_sq} outside (0, 1 - HR^2(m)]")
    return problems


def bound_job(data: dict, tr):
    q, values = data["q"], data["values"]
    n_states, n_assets = values.shape
    with tr.span("moments.payoff_build", states=n_states * n_assets):
        basis = [ScenarioPayoff.from_arrays(q, values[:, i]) for i in range(n_assets)]
    with tr.span("market.from_scenarios", state_cells=n_states * n_assets):
        market = gram_from_scenarios(basis, data["prices"])
    with tr.span("kernel.frontier"):
        kf = kernel_frontier(market)
    with tr.span("kernel.kernel_at"):
        kernel = kf.kernel(0.0)
    with tr.span("monotone.hj_bound") as span:
        report = monotone_hj_bound(market, kernel)
    # Sweep counters exist only while the bound is a random sweep.
    if span is not None:
        for field in ("directions_evaluated", "directions_skipped"):
            if hasattr(report, field):
                span.counts[field] = getattr(report, field)
    return {"report": report, "kernel": kernel}


class Statewise(Workload):
    """Scenario markets: statewise kernel, monotone ratio and tree oracle.

    ``CYCLE`` is 50 jobs: 39 small (S = 8-32 states, n = 2-4 assets, about
    10^2 tree leaves), 10 large (S = 500-2000, n = 10, one-period tree of S
    leaves) and 1 monotone kernel bound with default arguments.  Sorted by
    time, the small jobs fill the lowest 78%, so the median falls well
    inside them.  The large jobs fill the next 20% in order of S, so the
    90th percentile falls inside the group of four S = 1400 jobs (the
    large class's 30%-70% band).
    """

    name = "statewise"
    # (size class, states S, assets n, tree horizon)
    SMALL = [("small", 8, 2, 2)] * 8 + [("small", 12, 3, 2)] * 23 + [("small", 32, 4, 1)] * 8
    LARGE = [("large", s, 10, 1) for s in (500, 800, 1100, 1400, 1400, 1400, 1400, 1700, 2000, 2000)]
    BOUND = ("bound", 16, 4, None)
    # Two groups of the cycle: small jobs of every size and two large ones.
    WARMUP = 10

    def __init__(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng([seed, 2])
        self.workdir = workdir
        # Spread the large jobs and the bound job evenly through the cycle.
        self.slots = []
        for i, large in enumerate(self.LARGE):
            self.slots += self.SMALL[4 * i : 4 * i + 4] + [large]
            if i == 4:
                self.slots.append(self.BOUND)
        self.inputs = [
            [(bound_input if size == "bound" else scenario_input)(rng, n_states, n_assets)
             for _ in range(VARIANTS)]
            for size, n_states, n_assets, _h in self.slots
        ]
        self._refs: dict = {}

    def label(self, slot: int) -> str:
        size, n_states, n_assets, _h = self.slots[slot]
        return f"{size}-S{n_states}-n{n_assets}"

    def run(self, slot: int, variant: int, tr):
        size, _s, _n, horizon = self.slots[slot]
        data = self.inputs[slot][variant]
        if size == "bound":
            return bound_job(data, tr)
        return statewise_job(data, horizon, size, tr)

    def check(self, slot: int, variant: int, out) -> list[str]:
        size = self.slots[slot][0]
        data = self.inputs[slot][variant]
        if size == "bound":
            return check_bound(out["report"], out["kernel"], data)
        key = (slot, variant)
        if key not in self._refs:
            self._refs[key] = scenario_reference(data)
        return check_statewise(out, self._refs[key], data, scan=size == "small")


# --------------------------------------------------------------------------
# cli-cold


def child_env(src: str) -> dict:
    """Environment of CLI children: this checkout's ``src`` and the BLAS pin."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = src
    return env


def _compare(got, want, path: str, problems: list) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict):
            problems.append(f"{path}: expected an object")
            return
        for key, value in want.items():
            if key == "elapsed_seconds":
                continue
            if key not in got:
                problems.append(f"{path}.{key}: missing")
            else:
                _compare(got[key], value, f"{path}.{key}", problems)
    elif isinstance(want, (list, tuple)):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{path}: expected a list of {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{path}[{i}]", problems)
    elif isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if not abs(got - want) <= CLI_REL_TOL * max(abs(got), abs(want)):
            problems.append(f"{path}: {got!r} != {want!r}")
    elif got != want:
        problems.append(f"{path}: {got!r} != {want!r}")


def check_verify(report: dict, want: dict) -> list[str]:
    """Stock ``verify`` passes only with exactly the two known-red rows failing."""
    problems: list[str] = []
    _compare(report, want, "verify", problems)
    failing = {row["name"]: row["rel_delta"] for row in report.get("values", []) if not row["pass"]}
    if set(failing) != set(KNOWN_RED):
        problems.append(f"verify failing rows {sorted(failing)} != {sorted(KNOWN_RED)}")
    for name, delta in failing.items():
        expected = KNOWN_RED.get(name)
        if expected is not None and not abs(delta - expected) <= KNOWN_RED_REL_TOL * expected:
            problems.append(f"{name}: rel_delta {delta} is not the known {expected}")
    if report.get("all_pass") is not False:
        problems.append("verify reported all_pass")
    return problems


def _points_rows(points) -> list[list[float]]:
    return [[pt.mu, pt.omega, pt.sigma] for pt in points]


class CliCold(Workload):
    """Sequential ``python -m hrfrontier.cli`` children, one at a time.

    ``CYCLE`` runs ``frontier`` (with a 101-point CSV), ``multiperiod
    --periods 4``, ``hj``, ``mhr`` on a 300-state CSV and stock ``verify``.
    Every job pays interpreter start, imports and emit; the compute inside
    is under a millisecond, so all five form one size class.
    """

    name = "cli-cold"
    CYCLE = ("frontier", "multiperiod", "hj", "mhr", "verify")
    WARMUP = 1

    def __init__(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng([seed, 3])
        self.workdir = workdir
        self.market_path = os.path.join(workdir, "market.json")
        self.payoff_path = os.path.join(workdir, "payoff.csv")
        self.points_path = os.path.join(workdir, "points.csv")
        with open(self.market_path, "w", encoding="utf-8") as handle:
            json.dump(dense_input(rng, "universe", 5), handle)
        q = _probs(rng, 300)
        values = rng.uniform(-0.8, 1.6, 300)
        with open(self.payoff_path, "w", encoding="utf-8") as handle:
            handle.write("probability,value\n")
            for p, v in zip(q, values):
                handle.write(f"{float(p)!r},{float(v)!r}\n")
        self.slots = list(self.CYCLE)
        self.src = os.path.dirname(os.path.dirname(hrfrontier.__file__))
        self.env = child_env(self.src)
        self.want = self._library_values()

    def argv(self, command: str) -> list[str]:
        grid = ":".join(str(x) for x in GRID)
        return {
            "frontier": ["frontier", "--input", self.market_path,
                         "--points-csv", self.points_path, "--grid", grid],
            "multiperiod": ["multiperiod", "--input", self.market_path, "--periods", "4"],
            "hj": ["hj", "--input", self.market_path],
            "mhr": ["mhr", "--input", self.payoff_path],
            "verify": ["verify"],
        }[command]

    def _library_values(self) -> dict:
        market = market_from_json(self.market_path)
        sp = special_portfolios(market)
        coeffs = frontier_coefficients(sp)
        bound = check_hansen_bound(sp)
        stats4 = propagate(sp, 4)
        return {
            "frontier": {
                "portfolios": sp.to_dict(),
                "frontier": coeffs.to_dict(),
                "hansen_bound": {"total": bound.total, "slack": bound.slack, "pass": bound.passed},
            },
            "points": _points_rows(frontier_points(coeffs, np.linspace(*GRID))),
            "multiperiod": {
                "portfolios": sp.to_dict(),
                "multiperiod": stats4.to_dict(),
                "frontier": multiperiod_frontier(stats4).to_dict(),
            },
            "hj": hj_bounds(market).to_dict(),
            "mhr": monotone_hansen_ratio(ScenarioPayoff.from_csv(self.payoff_path)).to_dict(),
            "verify": verification_report(),
        }

    def label(self, slot: int) -> str:
        return self.slots[slot]

    def run(self, slot: int, variant: int, tr):
        command = self.slots[slot]
        with tr.span(f"cli.{command}") as span:
            proc = subprocess.run(
                [sys.executable, "-m", "hrfrontier.cli", *self.argv(command)],
                env=self.env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            if span is not None:
                span.counts["out_bytes"] = len(proc.stdout.encode())
        return proc

    def check(self, slot: int, variant: int, proc) -> list[str]:
        command = self.slots[slot]
        expected_code = 2 if command == "verify" else 0
        problems: list[str] = []
        if proc.returncode != expected_code:
            problems.append(f"{command}: exit {proc.returncode}, expected {expected_code}")
        for line in proc.stderr.splitlines():
            try:
                json.loads(line)
            except ValueError:
                problems.append(f"{command}: non-JSON stderr {line[:200]!r}")
                break
        try:
            report = json.loads(proc.stdout)
        except ValueError:
            return problems + [f"{command}: stdout is not JSON"]
        if command == "verify":
            return problems + check_verify(report, self.want["verify"])
        _compare(report, self.want[command], command, problems)
        if command == "frontier":
            with open(self.points_path, encoding="utf-8") as handle:
                rows = [[float(c) for c in line.split(",")] for line in handle.read().splitlines()[1:]]
            _compare(rows, self.want["points"], "points", problems)
        return problems

    def warm_main(self, tr) -> None:
        """Every invocation of the cycle through in-process ``cli.main``."""
        for command in self.CYCLE:
            with contextlib.redirect_stdout(io.StringIO()):
                with tr.span("cli.warm"):
                    hrfrontier.cli.main(self.argv(command))


WORKLOADS = {cls.name: cls for cls in (CliCold, DenseFrontier, Statewise)}
