import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hrfrontier
import hrfrontier.cli
import hrfrontier.kernel
from hrfrontier.cli import GRID_CAP, main
from conftest import BENCHMARK_MU, BENCHMARK_SIGMA


@pytest.fixture
def market_file(tmp_path):
    path = tmp_path / "market.json"
    path.write_text(
        json.dumps({"kind": "universe", "mu": BENCHMARK_MU, "sigma": BENCHMARK_SIGMA})
    )
    return path


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "payoff.csv"
    path.write_text(
        "probability,value\n"
        f"{1/6!r},-0.01\n"
        f"{1/2!r},0.01\n"
        f"{1/3!r},0.11\n"
    )
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFrontierCommand:
    def test_report_fields(self, capsys, market_file):
        code, out, err = run_cli(capsys, "frontier", "--input", str(market_file))
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["portfolios"]["omega_sq_y"] == pytest.approx(0.87107, rel=1e-5)
        assert report["frontier"]["degenerate"] is False
        assert report["hansen_bound"]["pass"] is True

    @pytest.mark.parametrize(
        "argv",
        [["frontier"], ["multiperiod", "--periods", "4"], ["hj"], ["mhr"], ["verify"]],
        ids=lambda argv: argv[0],
    )
    def test_deterministic_output(self, capsys, market_file, scenario_file, argv):
        if argv[0] != "verify":
            path = scenario_file if argv[0] == "mhr" else market_file
            argv = [argv[0], "--input", str(path), *argv[1:]]
        first = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv) == first

    def test_output_file_and_points(self, capsys, market_file, tmp_path):
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "points.csv"
        code, out, _ = run_cli(
            capsys,
            "frontier",
            "--input",
            str(market_file),
            "--output",
            str(out_json),
            "--points-csv",
            str(out_csv),
            "--grid",
            "0.3:1.65:5",
        )
        assert code == 0 and out == ""
        report = json.loads(out_json.read_text())
        assert "portfolios" in report
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "mu,omega,sigma"
        assert len(lines) == 6
        mu, omega, sigma = (float(x) for x in lines[1].split(","))
        assert omega**2 - mu**2 == pytest.approx(sigma**2, abs=1e-10)

    def test_points_require_grid(self, capsys, market_file, tmp_path):
        code, _, err = run_cli(
            capsys,
            "frontier",
            "--input",
            str(market_file),
            "--points-csv",
            str(tmp_path / "p.csv"),
        )
        assert code == 1
        assert json.loads(err)["code"] == "invalid_input"

    def test_degenerate_market_flagged_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "riskfree.json"
        path.write_text(json.dumps({"kind": "gram", "G": [[1.0]], "m": [1.0], "p": [1.0]}))
        code, out, _ = run_cli(capsys, "frontier", "--input", str(path))
        assert code == 0
        assert json.loads(out)["frontier"]["degenerate"] is True

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "frontier", "--input", str(tmp_path / "nope.json"))
        assert code == 1
        assert json.loads(err)["code"] == "io_error"

    def test_arbitrage_market_rejected(self, capsys, tmp_path):
        path = tmp_path / "arb.json"
        path.write_text(
            json.dumps(
                {"kind": "gram", "G": [[1.0, 0.0], [0.0, 1.0]], "m": [0.0, 1.0], "p": [1.0, 0.0]}
            )
        )
        code, _, err = run_cli(capsys, "frontier", "--input", str(path))
        assert code == 1
        assert json.loads(err)["code"] == "arbitrage_detected"


INFEASIBLE_GRAM = {"kind": "gram", "G": [[1.25, 0.0], [0.0, 2.0]], "m": [1.1, 1.0], "p": [1.0, 1.0]}


@pytest.mark.parametrize(
    "argv", [("frontier",), ("multiperiod", "--periods", "1000000")]
)
def test_infeasible_gram_market_is_invalid_input(capsys, tmp_path, argv):
    # m' G^-1 m = 1.468 > 1: no payoff space holds these moments (sigma_sq_z < 0).
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(INFEASIBLE_GRAM))
    code, out, err = run_cli(capsys, *argv, "--input", str(path))
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "invalid_input"


@pytest.mark.parametrize(
    "gram, mean, periods",
    [(0.01, 0.1 * math.sqrt(1.0 + 5e-11), "3"), (1.0, math.sqrt(1.0 + 9e-13), "120")],
    ids=["excess-5e-11", "excess-9e-13-compounded"],
)
def test_a_ratio_bound_excess_is_invalid_input_at_every_horizon(
    capsys, tmp_path, gram, mean, periods
):
    # hr_sq_y = 1 + 5e-11 breaks the bound at one period whatever omega_sq_y is;
    # 1 + 9e-13 is rounding at one period but compounds past 1 + 1e-10 by 120.
    path = tmp_path / "market.json"
    path.write_text(json.dumps({"kind": "gram", "G": [[gram]], "m": [mean], "p": [1.0]}))
    code, out, err = run_cli(capsys, "multiperiod", "--input", str(path), "--periods", periods)
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "invalid_input"


FLOW = '{"date": 1, "probabilities": [0.5, 0.5], "values": [[1.0, 2.0]]}'
SEQUENCE = '{{"kind": "sequence", "beta": 0.5, "horizon": 8, "prices": [1.0], "flows": [{flow}]}}'
# A JSON integer literal that no float can hold.
BEYOND_FLOAT = "1" + "0" * 400
SEQUENCE_NAN = (
    '{"kind": "sequence", "beta": 0.5, "horizon": 8, "prices": [1.0],'
    ' "flows": [{"date": 1, "probabilities": [1.0], "values": [[NaN]]}]}'
)


@pytest.mark.parametrize(
    "text",
    [
        '{"kind": "gram", "G": [[NaN]], "m": [1.0], "p": [1.0]}',
        '{"kind": "gram", "G": [[1.25]], "m": [NaN], "p": [1.0]}',
        SEQUENCE_NAN,
        '{"kind": "gram", "G": [[Infinity]], "m": [1.0], "p": [1.0]}',
        '{"kind": "universe", "mu": [Infinity], "sigma": [[0.04]]}',
        '{"kind": "gram", "G": [[1.25, 0.0], [0.0]], "m": [1.1, 1.0], "p": [1.0, 1.0]}',
        '{"kind": "universe", "mu": ["a"], "sigma": [[0.04]]}',
        SEQUENCE.format(flow=FLOW.replace("[[1.0, 2.0]]", "[1.0, 2.0]")),
        SEQUENCE.format(flow=FLOW.replace('"date": 1', '"date": "x"')),
        SEQUENCE.format(flow=FLOW.replace('"date": 1', '"date": 1.5')),
        SEQUENCE.format(flow=FLOW.replace("[0.5, 0.5]", '["a", 0.5]')),
        SEQUENCE.format(flow=FLOW).replace('"beta": 0.5', '"beta": "x"'),
        SEQUENCE.format(flow=FLOW).replace('"horizon": 8', '"horizon": 3.7'),
        SEQUENCE.format(flow=FLOW).replace("[" + FLOW + "]", FLOW),
        '{"kind": "universe", "mu": [1e200, 1.0], "sigma": [[0.04, 0.0], [0.0, 0.04]]}',
        '{"kind": "universe", "mu": [1.1], "sigma": [[%s]]}' % BEYOND_FLOAT,
        '{"kind": "universe", "mu": [%s], "sigma": [[0.04]]}' % BEYOND_FLOAT,
        '{"kind": "gram", "G": [[%s]], "m": [1.0], "p": [1.0]}' % BEYOND_FLOAT,
        '{"kind": "gram", "G": [[1.25]], "m": [%s], "p": [1.0]}' % BEYOND_FLOAT,
        '{"kind": "gram", "G": [[1.25]], "m": [1.0], "p": [%s]}' % BEYOND_FLOAT,
        SEQUENCE.format(flow=FLOW).replace('"prices": [1.0]', f'"prices": [{BEYOND_FLOAT}]'),
        SEQUENCE.format(flow=FLOW.replace("[0.5, 0.5]", f"[{BEYOND_FLOAT}, 0.5]")),
        SEQUENCE.format(flow=FLOW.replace("[[1.0, 2.0]]", f"[[1.0, {BEYOND_FLOAT}]]")),
        SEQUENCE.format(flow=FLOW).replace('"beta": 0.5', f'"beta": {BEYOND_FLOAT}'),
        SEQUENCE.format(flow=FLOW).replace('"horizon": 8', f'"horizon": {BEYOND_FLOAT}'),
        SEQUENCE.format(flow=FLOW.replace('"date": 1', f'"date": {BEYOND_FLOAT}')),
    ],
    ids=[
        "nan-G", "nan-m", "nan-values", "inf-G", "inf-mu", "ragged-G", "text-mu",
        "flat-values", "text-date", "fractional-date", "text-probability",
        "text-beta", "fractional-horizon", "object-flows", "huge-mu",
        "int-beyond-float-sigma", "int-beyond-float-mu", "int-beyond-float-G",
        "int-beyond-float-m", "int-beyond-float-p", "int-beyond-float-prices",
        "int-beyond-float-probability", "int-beyond-float-values", "int-beyond-float-beta",
        "int-beyond-float-horizon", "int-beyond-float-date",
    ],
)
def test_non_finite_or_malformed_numbers_are_invalid_input(capsys, tmp_path, text):
    path = tmp_path / "market.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "frontier", "--input", str(path))
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "invalid_input"


@pytest.mark.parametrize(
    ("mu", "sigma", "message"),
    [
        (
            [1.0, 1.1],
            [[1.0, 1.0], [1.0, 1.0 + 1e-12]],
            "covariance matrix is numerically singular (pivot below tolerance)",
        ),
        (
            [1.0, 1.001],
            [[1e-12, 0.0], [0.0, 1e-12]],
            "gram matrix is numerically singular (pivot below tolerance)",
        ),
    ],
    ids=["covariance-below-its-floor", "gram-below-its-floor"],
)
def test_rejected_universes_keep_their_code_message_and_exit_status(
    capsys, tmp_path, mu, sigma, message
):
    path = tmp_path / "market.json"
    path.write_text(json.dumps({"kind": "universe", "mu": mu, "sigma": sigma}))
    code, out, err = run_cli(capsys, "frontier", "--input", str(path))
    assert code == 1 and out == ""
    report = json.loads(err)
    assert (report["code"], report["message"]) == ("not_positive_definite", message)
    context = report["context"]
    assert context["min_pivot"] < context["pivot_floor"]
    if message.startswith("gram"):
        # G's second pivot, sigma_22 + mu_2^2 - (mu_1 mu_2)^2 / (sigma_11 + mu_1^2),
        # exact for the float inputs: G is never factored, so the pivot is
        # not lost to the rounding of sigma + mu mu^T.
        (s11, _), (_, s22) = [[Fraction(s) for s in row] for row in sigma]
        m1, m2 = map(Fraction, mu)
        exact = s22 + m2 * m2 - (m1 * m2) ** 2 / (s11 + m1 * m1)
        assert abs(Fraction(context["min_pivot"]) - exact) <= 1e-12 * exact


def test_well_formed_sequence_market_is_accepted(capsys, tmp_path):
    # The malformed variants above differ from this input in one field each.
    path = tmp_path / "market.json"
    path.write_text(SEQUENCE.format(flow=FLOW))
    code, out, err = run_cli(capsys, "frontier", "--input", str(path))
    assert code == 0 and err == ""
    assert json.loads(out)["portfolios"]["omega_sq_y"] > 0.0


def test_scalar_price_vector_is_invalid_input(capsys, tmp_path):
    path = tmp_path / "market.json"
    two_elements = FLOW.replace("[[1.0, 2.0]]", "[[1.0, 2.0], [2.0, 1.0]]")
    path.write_text(SEQUENCE.format(flow=two_elements).replace('"prices": [1.0]', '"prices": 1.0'))
    code, out, err = run_cli(capsys, "frontier", "--input", str(path))
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "invalid_input"


# Complete, with hr_sq_x + hr_sq_y = 1 + 7e-16 at one period: the minimum
# variance is zero at every horizon, not the rounding of one minus the ratios.
COMPLETE_SEQUENCE = {
    "kind": "sequence",
    "beta": 0.7537449598547995,
    "horizon": 1,
    "prices": [0.5, 0.5157044772716428],
    "flows": [
        {
            "date": 1,
            "probabilities": [0.4082068722144471, 0.5917931277855529],
            "values": [[0.0, 1.8567201616318236], [1.6183242471537493, 0.7537449598547995]],
        }
    ],
}


@pytest.mark.parametrize("periods", ["3", "4", "8", "50"])
def test_complete_market_has_zero_minimum_variance_at_every_horizon(capsys, tmp_path, periods):
    path = tmp_path / "market.json"
    path.write_text(json.dumps(COMPLETE_SEQUENCE))
    code, out, err = run_cli(capsys, "multiperiod", "--input", str(path), "--periods", periods)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["frontier"]["mu_sigma"]["level"] == 0.0
    assert report["multiperiod"]["slack"] == 0.0


def test_stderr_is_one_json_line_when_moments_overflow(tmp_path):
    # numpy reports the overflow as a RuntimeWarning on stderr unless it is
    # caught, and then stderr is no longer pure JSON.
    path = tmp_path / "market.json"
    path.write_text('{"kind": "universe", "mu": [1e200, 1.0], "sigma": [[0.04, 0.0], [0.0, 0.04]]}')
    src = Path(hrfrontier.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "hrfrontier.cli", "frontier", "--input", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["code"] == "invalid_input"


def test_huge_horizon_on_a_feasible_market_is_invalid_input(capsys, tmp_path):
    # mu_y > 1 here, so mu_y**n overflows.
    path = tmp_path / "market.json"
    path.write_text(
        json.dumps(
            {"kind": "universe", "mu": BENCHMARK_MU[:2], "sigma": [r[:2] for r in BENCHMARK_SIGMA[:2]]}
        )
    )
    code, out, err = run_cli(capsys, "multiperiod", "--input", str(path), "--periods", "1000000")
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "invalid_input"


def test_horizon_beyond_the_float_range_is_invalid_input(capsys, tmp_path):
    # No float holds the horizon, so no power of a one-period moment takes it.
    path = tmp_path / "market.json"
    path.write_text(
        json.dumps(
            {"kind": "universe", "mu": BENCHMARK_MU[:2], "sigma": [r[:2] for r in BENCHMARK_SIGMA[:2]]}
        )
    )
    periods = "1" + "0" * 400
    code, out, err = run_cli(capsys, "multiperiod", "--input", str(path), "--periods", periods)
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["code"] == "invalid_input"
    assert report["context"]["horizon"] == int(periods)


@pytest.mark.parametrize("periods", ["3000", "1000000"])
def test_underflowing_horizon_is_invalid_input(capsys, tmp_path, periods):
    # mu_y < 1 here: omega_sq_y**3000 is subnormal and every moment is 0 at 10**6.
    path = tmp_path / "market.json"
    path.write_text(
        json.dumps(
            {"kind": "universe", "mu": [0.9, 0.95], "sigma": [[0.0146, 0.0187], [0.0187, 0.0854]]}
        )
    )
    code, out, err = run_cli(capsys, "multiperiod", "--input", str(path), "--periods", periods)
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["code"] == "invalid_input"
    assert report["context"]["horizon"] == int(periods)


def reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def test_error_line_is_strict_json(capsys, tmp_path):
    path = tmp_path / "market.json"
    path.write_text(SEQUENCE.format(flow=FLOW).replace('"beta": 0.5', '"beta": NaN'))
    code, out, err = run_cli(capsys, "frontier", "--input", str(path))
    assert code == 1 and out == ""
    report = json.loads(err, parse_constant=reject_constant)
    assert report["code"] == "invalid_beta" and report["context"] == {"beta": "nan"}


@pytest.mark.parametrize(
    "rows",
    ["0.5,-1e300\n0.5,2e300\n", "0.5,-1e-170\n0.5,2e-170\n"],
    ids=["huge-outcomes", "tiny-outcomes"],
)
def test_payoff_moments_outside_the_float_range_are_invalid_input(capsys, tmp_path, rows):
    path = tmp_path / "payoff.csv"
    path.write_text(rows)
    code, out, err = run_cli(capsys, "mhr", "--input", str(path))
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "invalid_input"


def test_monotone_ratio_that_rounds_to_one_has_no_sharpe_ratio(capsys, tmp_path):
    path = tmp_path / "payoff.csv"
    path.write_text("1e-20,-1e-20\n1.0,1.0\n")
    code, out, _ = run_cli(capsys, "mhr", "--input", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["mhr"] == 1.0 and report["msr"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--rel-tol", "nan"),
        ("verify", "--rel-tol", "0"),
        ("mhr", "--renormalize", "--prob-tol", "nan"),
        ("mhr", "--renormalize", "--prob-tol", "0"),
    ],
    ids=["nan-rel-tol", "zero-rel-tol", "nan-prob-tol", "zero-prob-tol"],
)
def test_bad_tolerances_are_invalid_input(capsys, scenario_file, argv):
    if argv[0] == "mhr":
        argv = (*argv, "--input", str(scenario_file))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "invalid_input"


def test_unexpected_exception_is_internal_error(capsys, monkeypatch, market_file):
    def broken(market):
        raise ValueError("boom")

    # ``_cmd_hj`` imports ``hj_bounds`` from ``hrfrontier.kernel`` when it runs.
    monkeypatch.setattr(hrfrontier.kernel, "hj_bounds", broken)
    code, out, err = run_cli(capsys, "hj", "--input", str(market_file))
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["code"] == "internal_error" and "boom" in report["message"]
    assert "broken" in report["context"]["traceback"][-1]


class TestMultiperiodCommand:
    def test_four_period_report(self, capsys, market_file):
        code, out, _ = run_cli(
            capsys, "multiperiod", "--input", str(market_file), "--periods", "4"
        )
        assert code == 0
        report = json.loads(out)
        assert report["multiperiod"]["hr_sq_x"] == pytest.approx(0.81550, rel=1e-5)
        assert report["frontier"]["mu_sigma"]["center"] == pytest.approx(
            1.64663, rel=1e-5
        )

    def test_bad_periods(self, capsys, market_file):
        code, _, err = run_cli(
            capsys, "multiperiod", "--input", str(market_file), "--periods", "0"
        )
        assert code == 1
        assert json.loads(err)["code"] == "invalid_horizon"


class TestMhrCommand:
    def test_example_payoff(self, capsys, scenario_file):
        code, out, _ = run_cli(capsys, "mhr", "--input", str(scenario_file))
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"mhr", "msr", "k_hat", "alpha_hat", "truncated"}
        assert report["k_hat"] == pytest.approx(0.02, abs=1e-12)
        assert report["mhr"] ** 2 == pytest.approx(0.5, abs=1e-12)
        assert report["msr"] == pytest.approx(1.0, abs=1e-12)
        assert report["truncated"] is True

    def test_no_downside_default_error(self, capsys, tmp_path):
        path = tmp_path / "updside.csv"
        path.write_text("0.5,0.5\n0.5,2.0\n")
        code, _, err = run_cli(capsys, "mhr", "--input", str(path))
        assert code == 1
        assert json.loads(err)["code"] == "no_downside"

    def test_no_downside_allowed(self, capsys, tmp_path):
        path = tmp_path / "upside.csv"
        path.write_text("0.5,0.5\n0.5,2.0\n")
        code, out, _ = run_cli(
            capsys, "mhr", "--input", str(path), "--allow-no-downside"
        )
        assert code == 0
        report = json.loads(out)
        assert report["mhr"] == 1.0
        assert report["msr"] is None
        assert report["truncated"] is False

    def test_renormalize_flag(self, capsys, tmp_path):
        path = tmp_path / "off.csv"
        path.write_text("0.2500001,-1.0\n0.75,2.0\n")
        code, _, err = run_cli(capsys, "mhr", "--input", str(path))
        assert code == 1
        code, out, _ = run_cli(
            capsys,
            "mhr",
            "--input",
            str(path),
            "--renormalize",
            "--prob-tol",
            "1e-3",
        )
        assert code == 0
        assert json.loads(out)["mhr"] > 0.0

    def test_probability_tolerance_needs_renormalize(self, capsys, tmp_path):
        # Without --renormalize the sum must be one to 1e-12; a wider window
        # that would be ignored is refused instead.
        path = tmp_path / "off.csv"
        path.write_text("0.25000001,-1.0\n0.75,2.0\n")
        code, out, err = run_cli(capsys, "mhr", "--input", str(path), "--prob-tol", "1e-6")
        assert code == 1 and out == ""
        assert json.loads(err)["code"] == "usage"


class TestHjCommand:
    def test_bounds(self, capsys, market_file):
        code, out, _ = run_cli(capsys, "hj", "--input", str(market_file))
        assert code == 0
        report = json.loads(out)
        assert report["hr_bound"] == pytest.approx(1 - 0.35665, rel=1e-5)
        assert report["variance_bound"] == pytest.approx(0.554362, rel=1e-5)
        assert report["kernel_checks"] == []


class TestVerifyCommand:
    def test_report_structure_and_deltas(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        report = json.loads(out)
        names = {row["name"] for row in report["values"]}
        assert "omega_sq_y" in names and "multiperiod_mu_z" in names
        for row in report["values"]:
            assert row["rel_delta"] == pytest.approx(
                abs(row["computed"] - row["reference"]) / abs(row["reference"]),
                rel=1e-12,
            )
            assert row["pass"] is (row["rel_delta"] < report["rel_tol"])
        assert report["all_pass"] is all(row["pass"] for row in report["values"])
        assert code == (0 if report["all_pass"] else 2)

    def test_every_value_is_reproduced_to_its_printed_precision(self, capsys):
        # Each reference is a correctly rounded decimal: the recomputed value
        # must round back to it (half-ulp of the printed digits).
        code, out, _ = run_cli(capsys, "verify")
        report = json.loads(out)
        for row in report["values"]:
            decimals = len(str(row["reference"]).split(".")[1])
            assert abs(row["computed"] - row["reference"]) <= 0.5 * 10.0**-decimals, row

    def test_known_rounding_gap(self, capsys):
        # The curvature of the (mean, std) parabola rounds to 0.22625 while
        # its exact value is ~0.22624724: the 1e-5 relative gate cannot pass
        # for that one constant, and verify reports it honestly.
        code, out, _ = run_cli(capsys, "verify")
        report = json.loads(out)
        failing = {row["name"] for row in report["values"] if not row["pass"]}
        assert failing == {"multiperiod_sr_inv_sq_x", "frontier_sigma_curvature"}
        assert code == 2

    def test_custom_tolerance(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--rel-tol", "5e-5")
        report = json.loads(out)
        assert report["all_pass"] is True
        assert code == 0


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "nope")
        assert code == 1
        assert json.loads(err)["code"] == "usage"

    def test_missing_required_argument(self, capsys):
        code, _, err = run_cli(capsys, "frontier")
        assert code == 1
        assert json.loads(err)["code"] == "usage"

    def test_bad_grid_spec(self, capsys, market_file, tmp_path):
        code, _, err = run_cli(
            capsys,
            "frontier",
            "--input",
            str(market_file),
            "--points-csv",
            str(tmp_path / "p.csv"),
            "--grid",
            "0:1:1",
        )
        assert code == 1
        assert json.loads(err)["code"] == "invalid_input"


@pytest.mark.parametrize(
    "argv, text, code",
    [
        (
            ["frontier", "--grid", "0.5:1.5:5"],
            '{"kind": "universe", "mu": [1.0], "sigma": [[0.05]]}',
            "zero_x",
        ),
        (
            ["hj"],
            '{"kind": "gram", "G": [[1.05, 1.0], [1.0, 1.05]], "m": [1.0, 1.0], "p": [0.0, 1e-300]}',
            "invalid_input",
        ),
        (
            ["frontier"],
            '{"kind": "gram", "G": [[1e-320]], "m": [9.65e-301], "p": [2.89e-302]}',
            None,
        ),
        (
            ["hj"],
            '{"kind": "gram", "G": [[5.293676150870622e-07]], "m": [1.0], "p": [7.5446e-05]}',
            "invalid_input",
        ),
        (
            ["hj"],
            SEQUENCE.format(flow=FLOW).replace('"beta": 0.5', '"beta": 1e-320'),
            "invalid_beta",
        ),
        (
            ["hj"],
            SEQUENCE.format(flow=FLOW.replace("[[1.0, 2.0]]", "[[1.5e154, 2.0]]")).replace(
                '"beta": 0.5', '"beta": 0.95'
            ),
            "invalid_input",
        ),
        (["mhr", "--renormalize", "--prob-tol", "1e-6"], "nan,0.0\n", "invalid_input"),
        (["mhr", "--renormalize"], "inf,1.0\n-inf,2.0\n", "invalid_input"),
        (["mhr", "--renormalize"], "1e308,1.0\n1e308,2.0\n", "invalid_input"),
    ],
    ids=[
        "points-of-a-degenerate-frontier", "tiny-price", "tiny-gram", "ratio-of-y-above-one",
        "subnormal-beta", "overflowing-second-moment", "nan-probability-renormalized",
        "infinite-probabilities-renormalized", "overflowing-probabilities-renormalized",
    ],
)
def test_inputs_at_the_edge_of_the_float_range_end_cleanly(capsys, tmp_path, argv, text, code):
    # None of these may print a report before its error, a NaN token, a
    # warning, a traceback or a false internal_invariant.
    path = tmp_path / ("input.csv" if argv[0] == "mhr" else "input.json")
    path.write_text(text)
    if "--grid" in argv:
        argv = [*argv, "--points-csv", str(tmp_path / "points.csv")]
    exit_code, out, err = run_cli(capsys, argv[0], "--input", str(path), *argv[1:])
    if code is None:
        assert exit_code == 0 and err == ""
        json.loads(out, parse_constant=reject_constant)
    else:
        assert exit_code == 1 and out == ""
        assert json.loads(err, parse_constant=reject_constant)["code"] == code


@pytest.mark.parametrize("command", [["frontier"], ["multiperiod", "--periods", "2"]])
@pytest.mark.parametrize("grid, mu", [("1e200:2e200:3", 1e200), ("0:1e155:2", 1e155)])
def test_frontier_points_outside_the_float_range_are_invalid_input(
    capsys, market_file, tmp_path, command, grid, mu
):
    points = tmp_path / "points.csv"
    code, out, err = run_cli(
        capsys, command[0], "--input", str(market_file), *command[1:],
        "--points-csv", str(points), f"--grid={grid}",
    )
    assert code == 1 and out == "" and not points.exists()
    report = json.loads(err, parse_constant=reject_constant)
    assert report["code"] == "invalid_input" and report["context"]["mu"] == mu


def test_grid_wider_than_the_float_range_is_invalid_input(capsys, market_file, tmp_path):
    # np.linspace would warn on an infinite width: the test config makes that an error.
    code, out, err = run_cli(
        capsys, "frontier", "--input", str(market_file),
        "--points-csv", str(tmp_path / "points.csv"), "--grid=-1e308:1e308:3",
    )
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["code"] == "invalid_input"


@pytest.mark.parametrize(
    "command", [["frontier"], ["multiperiod", "--periods", "2"]], ids=["frontier", "multiperiod"]
)
@pytest.mark.parametrize("count, code", [(GRID_CAP, 0), (GRID_CAP + 1, 1), (10**12, 1)])
def test_grid_is_built_only_for_points_and_its_count_is_capped(
    capsys, monkeypatch, market_file, command, count, code
):
    # Without --points-csv nothing reads the grid, so nothing may build it.
    monkeypatch.setattr(np, "linspace", lambda *args: pytest.fail("grid built"))
    exit_code, out, err = run_cli(
        capsys, command[0], "--input", str(market_file), *command[1:], f"--grid=0.5:2:{count}"
    )
    assert exit_code == code
    if code:
        assert out == "" and json.loads(err)["code"] == "invalid_input"


def test_losses_that_vanish_beside_the_gains_still_get_a_cap(capsys, tmp_path):
    # -2.7e-300 / 1e148 underflows to -0.0: the loss bound on the ray is 1/0.
    path = tmp_path / "payoff.csv"
    path.write_text("0.5,1e148\n0.25,-2.7e-300\n0.25,0.5\n")
    code, out, err = run_cli(capsys, "mhr", "--input", str(path))
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["k_hat"] == 0.5 and report["mhr"] == pytest.approx(0.75**0.5, rel=1e-15)


def test_a_loss_that_overflows_beside_the_gain_is_reported_without_warnings(capsys, tmp_path):
    # -1e150 / 1e-165 overflows: the sign test sums that loss to inf.
    path = tmp_path / "payoff.csv"
    path.write_text("1e-320,-1e150\n1.0,1e-165\n")
    code, out, err = run_cli(capsys, "mhr", "--input", str(path))
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["mhr"] == 9.999955665108005e-156 and report["truncated"] is False
