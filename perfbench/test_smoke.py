"""Smoke test of the benchmark itself.

Run from the root of the repository::

    python -m pytest perfbench/test_smoke.py -q

Runs every workload briefly on a fixed seed, untraced and traced, and checks
that every metric is printed with its unit and that no job fails.  Then
feeds deliberately wrong reference values to the output checks, so the
checks are shown to catch a wrong result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

ENV_KEYS = {"git_commit", "seed", "python", "numpy", "scipy", "nproc", "cpu", "blas_thread_pin"}


def bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_spec_matches_the_metrics_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(jobs.WORKLOADS))
def test_workload_prints_every_metric_and_fails_no_job(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    printed = {line.split()[0]: line.split()[1:] for line in report if not line.startswith("#")}
    for metric in SPEC["end_to_end"] + (SPEC["per_layer"] if trace else []):
        value, unit = printed[metric["name"]]
        assert unit == metric["unit"]
        float(value)
    assert printed["fail_frac"] == ["0", "ratio"]
    env = json.loads(next(line for line in report if line.startswith("# env "))[6:])
    assert ENV_KEYS <= set(env) and env["seed"] == 7
    assert env["blas_thread_pin"]["OPENBLAS_NUM_THREADS"] == "1"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("dense-frontier", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_dense_check_catches_a_wrong_reference(tmp_path):
    wl = jobs.DenseFrontier(7, str(tmp_path))
    out = wl.run(0, 0, spans.NullTracer())
    assert wl.check(0, 0, out) == []
    wrong = dict(wl.reference(0, 0), hr_sq_x=wl.reference(0, 0)["hr_sq_x"] * (1 + 1e-7))
    assert jobs.check_dense(out, wrong)


def test_statewise_check_catches_a_wrong_reference(tmp_path):
    wl = jobs.Statewise(7, str(tmp_path))
    out = wl.run(0, 0, spans.NullTracer())
    assert wl.check(0, 0, out) == []
    data = wl.inputs[0][0]
    ref = jobs.scenario_reference(data)
    wrong = dict(ref, w_y=ref["w_y"] * (1 + 1e-7))
    assert jobs.check_statewise(out, wrong, data, scan=True)
    # A wrong monotone ratio is caught by the scan of every cap.
    wrong_out = dict(out, mr=dataclasses.replace(out["mr"], mhr=out["mr"].mhr * 0.999))
    assert jobs.check_statewise(wrong_out, ref, data, scan=True)


def test_cli_check_catches_a_wrong_reference(tmp_path):
    wl = jobs.CliCold(7, str(tmp_path))
    slot = wl.slots.index("hj")
    proc = wl.run(slot, 0, spans.NullTracer())
    assert wl.check(slot, 0, proc) == []
    wl.want["hj"]["hr_bound"] *= 1 + 1e-9
    assert wl.check(slot, 0, proc)


def test_verify_passes_only_with_exactly_the_known_red_rows():
    want = jobs.verification_report()
    assert jobs.check_verify(want, want) == []
    loosened = jobs.verification_report(rel_tol=5e-5)
    assert jobs.check_verify(loosened, want)
