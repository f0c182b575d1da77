"""Command-line interface: solve markets from files and emit JSON reports.

Subcommands: ``frontier`` (special portfolios + frontier parabolas),
``multiperiod`` (adds horizon propagation), ``mhr`` (monotone ratio of a
scenario CSV), ``hj`` (kernel bounds), and ``verify`` (built-in benchmark
regression).  Reports are deterministic: fixed key order and shortest
round-trip float formatting.

Exit codes: 0 success, 1 invalid input or usage, 2 internal invariant
violation, unexpected error (``internal_error``) or a failed ``verify``.

The module imports only the standard library and ``errors``; each command
imports what it uses, so numpy loads after ``run`` has set up the process.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Any, Sequence

from .errors import HRFrontierError, InternalInvariantError, InvalidInputError

if TYPE_CHECKING:
    from .frontier import FrontierCoefficients

#: Hard cap on the COUNT of ``--grid MIN:MAX:COUNT``.
GRID_CAP = 1_000_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hrfrontier",
        description="Mean-variance frontier toolkit built on mean/L2-norm ratios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", help="write the JSON report here (default stdout)")

    def add_market_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="market JSON file")

    def add_points(p: argparse.ArgumentParser) -> None:
        p.add_argument("--points-csv", help="also write frontier points (CSV mu,omega,sigma)")
        p.add_argument(
            "--grid",
            help=f"mean grid for --points-csv as MIN:MAX:COUNT (2 <= count <= {GRID_CAP})",
        )

    p_frontier = sub.add_parser("frontier", help="special portfolios and frontier parabolas")
    add_market_input(p_frontier)
    add_output(p_frontier)
    add_points(p_frontier)

    p_multi = sub.add_parser("multiperiod", help="n-period frontier under IID returns")
    add_market_input(p_multi)
    add_output(p_multi)
    add_points(p_multi)
    p_multi.add_argument("--periods", type=int, required=True, help="number of periods n >= 1")

    p_mhr = sub.add_parser("mhr", help="monotone ratio of a scenario CSV payoff")
    p_mhr.add_argument("--input", required=True, help="scenario CSV (probability,value)")
    add_output(p_mhr)
    p_mhr.add_argument(
        "--renormalize",
        action="store_true",
        help="rescale probabilities to sum to one (never done silently)",
    )
    p_mhr.add_argument(
        "--allow-no-downside",
        action="store_true",
        help="report the unattained supremum for nonnegative payoffs instead of failing",
    )
    p_mhr.add_argument(
        "--prob-tol",
        type=float,
        help="acceptance window for the probability sum under --renormalize (default 1e-12)",
    )

    p_hj = sub.add_parser("hj", help="pricing-kernel bounds of a market")
    add_market_input(p_hj)
    add_output(p_hj)

    p_verify = sub.add_parser("verify", help="re-run the built-in benchmark regression")
    add_output(p_verify)
    p_verify.add_argument(
        "--rel-tol",
        type=float,
        help="relative tolerance per value (default 1e-5)",
    )

    return parser


def _grid_spec(text: str | None) -> tuple[float, float, int] | None:
    if text is None:
        return None
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidInputError("grid spec must be MIN:MAX:COUNT", grid=text)
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InvalidInputError("could not parse grid spec", grid=text) from None
    if count < 2:
        raise InvalidInputError("grid needs at least two points", count=count)
    if count > GRID_CAP:
        raise InvalidInputError("grid has more points than the cap", count=count, cap=GRID_CAP)
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise InvalidInputError("grid upper bound must exceed the lower bound")
    if not math.isfinite(hi - lo):
        raise InvalidInputError("grid width leaves the floating-point range", grid=text)
    return lo, hi, count


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse the command line, with the grid checked and kept as ``(lo, hi, count)``."""
    args = build_parser().parse_args(argv)
    if getattr(args, "prob_tol", None) is not None and not args.renormalize:
        raise _UsageError("--prob-tol applies only with --renormalize")
    for name in ("prob_tol", "rel_tol"):
        tol = getattr(args, name, None)
        if tol is not None and not (math.isfinite(tol) and tol > 0):
            raise InvalidInputError("tolerances must be positive and finite", option=name)
    if "grid" in args:
        args.grid = _grid_spec(args.grid)
    return args


def _emit(report: dict[str, Any], output_path: str | None) -> None:
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if output_path:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_points(coefficients: FrontierCoefficients, args: argparse.Namespace) -> None:
    if args.points_csv is None:
        return
    if args.grid is None:
        raise InvalidInputError("--points-csv needs --grid MIN:MAX:COUNT")
    import numpy as np

    from .frontier import frontier_points

    points = frontier_points(coefficients, np.linspace(*args.grid))
    with open(args.points_csv, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["mu", "omega", "sigma"])
        for point in points:
            writer.writerow([repr(point.mu), repr(point.omega), repr(point.sigma)])


def _cmd_frontier(args: argparse.Namespace) -> int:
    from .frontier import check_hansen_bound, frontier_coefficients, special_portfolios
    from .market import market_from_json

    market = market_from_json(args.input)
    sp = special_portfolios(market)
    coeffs = frontier_coefficients(sp)
    bound = check_hansen_bound(sp)
    report = {
        "portfolios": sp.to_dict(),
        "frontier": coeffs.to_dict(),
        "hansen_bound": {
            "total": bound.total,
            "slack": bound.slack,
            "pass": bound.passed,
        },
    }
    _write_points(coeffs, args)  # a degenerate frontier fails before any output
    _emit(report, args.output)
    return 0


def _cmd_multiperiod(args: argparse.Namespace) -> int:
    from .frontier import frontier_coefficients, special_portfolios
    from .market import market_from_json
    from .multiperiod import propagate

    market = market_from_json(args.input)
    sp = special_portfolios(market)
    stats_n = propagate(sp, args.periods)
    coeffs = frontier_coefficients(stats_n)
    report = {
        "portfolios": sp.to_dict(),
        "multiperiod": stats_n.to_dict(),
        "frontier": coeffs.to_dict(),
    }
    _write_points(coeffs, args)  # a degenerate frontier fails before any output
    _emit(report, args.output)
    return 0


def _cmd_mhr(args: argparse.Namespace) -> int:
    from .moments import ScenarioPayoff
    from .monotone import monotone_hansen_ratio

    payoff = ScenarioPayoff.from_csv(
        args.input,
        renormalize=args.renormalize,
        sum_tol=1e-12 if args.prob_tol is None else args.prob_tol,
    )
    result = monotone_hansen_ratio(payoff, allow_no_downside=args.allow_no_downside)
    _emit(result.to_dict(), args.output)
    return 0


def _cmd_hj(args: argparse.Namespace) -> int:
    from .kernel import hj_bounds
    from .market import market_from_json

    market = market_from_json(args.input)
    _emit(hj_bounds(market).to_dict(), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import benchmark

    rel_tol = benchmark.DEFAULT_REL_TOL if args.rel_tol is None else args.rel_tol
    report = benchmark.verification_report(rel_tol=rel_tol)
    _emit(report, args.output)
    return 0 if report["all_pass"] else 2


_COMMANDS = {
    "frontier": _cmd_frontier,
    "multiperiod": _cmd_multiperiod,
    "mhr": _cmd_mhr,
    "hj": _cmd_hj,
    "verify": _cmd_verify,
}


def _error_json(code: str, message: str, context: dict[str, Any]) -> None:
    # Strict JSON: non-finite numbers are spelled "nan", "inf" and "-inf".
    context = {
        key: str(value) if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in context.items()
    }
    report = {"code": code, "message": message, "context": context}
    sys.stderr.write(json.dumps(report, allow_nan=False, default=str) + "\n")


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        _error_json("usage", str(exc), {})
        return 1
    except InternalInvariantError as exc:
        _error_json(exc.code, exc.message, exc.context)
        return 2
    except HRFrontierError as exc:
        _error_json(exc.code, exc.message, exc.context)
        return 1
    except OSError as exc:
        _error_json("io_error", str(exc), {})
        return 1
    except Exception as exc:  # a bug: reported as one line of JSON, with where it arose
        import traceback

        frames = traceback.extract_tb(exc.__traceback__)
        frames = [f"{frame.filename}:{frame.lineno} {frame.name}" for frame in frames]
        _error_json("internal_error", f"{type(exc).__name__}: {exc}", {"traceback": frames})
        return 2


def run() -> int:
    """``main`` as a program in a process of its own: ``python -m
    hrfrontier.cli`` and the ``hrfrontier`` script.

    OpenBLAS reads its thread count once, when numpy loads; with more than
    one thread it splits the products of markets of n >= 128, which changes
    their bits, so this pins one thread first.  The cyclic collector would
    run passes during numpy's import and sweep every object at exit, which
    skips only frozen ones; a one-shot run has no cycles worth that cost.  A
    process that goes on after the command calls ``main``, which changes
    neither setting.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
