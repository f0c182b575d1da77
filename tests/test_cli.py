import json

import pytest

from hrfrontier.cli import main
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

    def test_deterministic_output(self, capsys, market_file):
        _, first, _ = run_cli(capsys, "frontier", "--input", str(market_file))
        _, second, _ = run_cli(capsys, "frontier", "--input", str(market_file))
        assert first == second

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
    ],
    ids=["nan-G", "nan-m", "nan-values", "inf-G", "inf-mu", "ragged-G", "text-mu"],
)
def test_non_finite_or_malformed_numbers_are_invalid_input(capsys, tmp_path, text):
    path = tmp_path / "market.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "frontier", "--input", str(path))
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "invalid_input"


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
