"""The cold-start contract of the package and its command line.

``import hrfrontier`` resolves its names lazily, so it loads neither numpy nor
any submodule; each CLI command imports only what it uses, and the payoff
layer imports no market code; and the CLI run as a program pins BLAS to one
thread, so its bytes do not depend on the thread count.  These tests check
structure (which modules load, which settings change), never timing.
"""

import gc
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import hrfrontier
from hrfrontier.cli import main

SRC = str(Path(hrfrontier.__file__).parents[1])
UNIVERSE = {"kind": "universe", "mu": [1.1, 1.2], "sigma": [[0.04, 0.01], [0.01, 0.09]]}


def _child(code: str, *args: str):
    """The JSON that ``code`` prints in a fresh interpreter given ``args``."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_import_loads_no_numpy_and_frontier_loads_only_its_modules(tmp_path):
    market = tmp_path / "market.json"
    market.write_text(json.dumps(UNIVERSE))
    seen = _child(
        """
        import contextlib, io, json, os, runpy, sys
        import hrfrontier
        seen = {"package": sorted(m for m in ("numpy", "dataclasses") if m in sys.modules)}
        environ = dict(os.environ)
        import hrfrontier.cli
        seen["cli"] = sorted(m for m in ("numpy", "dataclasses") if m in sys.modules)
        seen["environ_unchanged"] = dict(os.environ) == environ
        sys.argv = ["hrfrontier", "frontier", "--input", sys.argv[1]]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                runpy.run_module("hrfrontier.cli", run_name="__main__")
            except SystemExit as exc:
                seen["exit"] = exc.code
        seen["modules"] = sorted(m for m in sys.modules if m.startswith("hrfrontier."))
        seen["pins"] = [os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")]
        print(json.dumps(seen))
        """,
        str(market),
    )
    assert seen["package"] == [] and seen["cli"] == []
    assert seen["environ_unchanged"]
    assert seen["exit"] == 0
    loaded = {name.split(".")[1] for name in seen["modules"]}
    assert not loaded & {"kernel", "monotone", "multiperiod", "benchmark"}
    assert {"cli", "frontier", "market"} <= loaded
    assert seen["pins"] == ["1", "1", "1"]


# The package modules each command loads besides errors and moments; cli
# itself runs as ``__main__``.
COMMAND_MODULES = {
    "frontier": {"_linalg", "frontier", "market"},
    "multiperiod": {"_linalg", "frontier", "market", "multiperiod"},
    "hj": {"_linalg", "frontier", "kernel", "market"},
    "mhr": {"monotone"},
    "verify": {"_linalg", "benchmark", "frontier", "market", "multiperiod"},
}


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_each_command_loads_exactly_its_modules(tmp_path, command):
    market, payoff = tmp_path / "market.json", tmp_path / "payoff.csv"
    market.write_text(json.dumps(UNIVERSE))
    payoff.write_text("0.25,-0.5\n0.75,1.5\n")
    argv = {
        "frontier": ["--input", str(market), "--points-csv", str(tmp_path / "points.csv"),
                     "--grid", "0.5:2:5"],
        "multiperiod": ["--input", str(market), "--periods", "4"],
        "hj": ["--input", str(market)],
        "mhr": ["--input", str(payoff)],
        "verify": [],
    }[command]
    code, modules = _child(
        """
        import contextlib, io, json, runpy, sys
        sys.argv = ["hrfrontier", *sys.argv[1:]]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                runpy.run_module("hrfrontier.cli", run_name="__main__")
            except SystemExit as exc:
                code = exc.code
        print(json.dumps([code, [m for m in sys.modules if m.startswith("hrfrontier.")]]))
        """,
        command,
        *argv,
    )
    assert code == (2 if command == "verify" else 0)  # verify: the known red rows
    loaded = {name.split(".")[1] for name in modules}
    assert loaded == COMMAND_MODULES[command] | {"errors", "moments"}


def test_the_payoff_layer_imports_no_market_code():
    modules = _child(
        """
        import json, sys
        import hrfrontier.monotone
        print(json.dumps([m for m in sys.modules if m.startswith("hrfrontier.")]))
        """
    )
    assert sorted(modules) == ["hrfrontier.errors", "hrfrontier.moments", "hrfrontier.monotone"]


def test_every_public_name_resolves_and_is_listed():
    listed = dir(hrfrontier)
    for name in hrfrontier.__all__:
        assert getattr(hrfrontier, name) is not None
        assert name in listed
    assert hrfrontier.frontier.special_portfolios is hrfrontier.special_portfolios
    namespace: dict = {}
    exec("from hrfrontier import *", namespace)
    assert set(hrfrontier.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        hrfrontier.no_such_name  # noqa: B018
    assert not hasattr(hrfrontier, "numpy")


def test_in_process_main_leaves_the_collector_alone(capsys):
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    assert main(["verify"]) == 2
    capsys.readouterr()
    assert gc.isenabled() == enabled and enabled
    assert gc.get_freeze_count() == frozen


def _large_markets(tmp_path: Path) -> list[Path]:
    """An n = 300 universe and an n = 300 ``gram`` market: sizes at which
    OpenBLAS splits the Cholesky factor and the blocked sweeps across threads."""
    rng = np.random.default_rng(23)
    n = 300
    factor = rng.standard_normal((n, n + 2))
    sigma = factor @ factor.T / (n + 2) + 0.05 * np.eye(n)
    mu = rng.uniform(0.5, 1.5, n)
    universe = {"kind": "universe", "mu": mu.tolist(), "sigma": sigma.tolist()}
    gram = sigma + np.outer(mu, mu)
    prices = rng.uniform(0.8, 1.2, n)
    gram_market = {"kind": "gram", "G": gram.tolist(), "m": mu.tolist(), "p": prices.tolist()}
    paths = []
    for name, data in (("universe", universe), ("gram", gram_market)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths.append(path)
    return paths


def test_frontier_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    markets = _large_markets(tmp_path)
    outputs: dict[str, set] = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        env.pop("MKL_NUM_THREADS", None)
        for path in markets:
            proc = subprocess.run(
                [sys.executable, "-m", "hrfrontier.cli", "frontier", "--input", str(path)],
                capture_output=True,
                env={**env, "PYTHONPATH": SRC},
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.setdefault(path.name, set()).add(proc.stdout)
    assert {name: len(seen) for name, seen in outputs.items()} == {"universe.json": 1, "gram.json": 1}
