"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import jobs
import run

HERE = Path(__file__).resolve().parent


def test_smoke_emits_every_metric():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                         capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = [line for line in out.stdout.splitlines() if line.startswith("smoke ")]
    assert len(lines) == 2 * len(jobs.WORKLOADS)
    assert all(line.endswith(": ok") for line in lines)


def test_inputs_depend_only_on_the_seed(tmp_path):
    def files(seed, where):
        for workload in jobs.WORKLOADS:
            jobs.build(workload, seed, tmp_path / where / workload)
        return {p.relative_to(tmp_path / where): p.read_bytes()
                for p in (tmp_path / where).rglob("*.json")}

    first, again, other = files(5, "a"), files(5, "b"), files(6, "c")
    assert first == again
    assert first.keys() == other.keys() and first != other


@pytest.fixture(scope="module")
def cli_main():
    return run.import_tnormcat()["cli"].main


def _run_job(cli_main, job):
    assert cli_main(job.argv) == 0
    report = json.loads(job.report.read_text())
    assert list(gate.check(job, 0, report)) == []
    return report


def _first(tmp_path, workload, command, family=None):
    for job in jobs.build(workload, 3, tmp_path / workload):
        if job.argv[0] == command and family in (None, job.expect["tnorm"]["family"]):
            return job
    raise AssertionError(f"no {command} job for {family}")


def _verdict(report, name):
    return next(v for v in report["verdicts"] if v["name"] == name)


def test_gate_rejects_flipped_verdict(tmp_path, cli_main):
    job = _first(tmp_path, "ccc-sweep", "ccc-suite")
    report = _run_job(cli_main, job)
    _verdict(report, "ccc")["ok"] = False
    assert gate.check(job, 0, report)


def test_gate_rejects_edited_c1_witness(tmp_path, cli_main):
    job = _first(tmp_path, "tnorm-conditions", "check-tnorm", "lukasiewicz")
    report = _run_job(cli_main, job)
    witness = _verdict(report, "C1")["result"]["witness"]
    witness["lhs"], witness["rhs"] = witness["rhs"], witness["lhs"]
    assert any("C1 witness sides" in p for p in gate.check(job, 0, report))


def test_gate_rejects_edited_bundle(tmp_path, cli_main):
    job = _first(tmp_path, "tnorm-conditions", "ccc-suite", "product")
    report = _run_job(cli_main, job)
    violated = _verdict(report, "ccc")["result"]["bundle"]["violated"]
    violated["rhs"] = violated["lhs"]
    assert any("capped" in p for p in gate.check(job, 0, report))


def test_gate_rejects_edited_power(tmp_path, cli_main):
    job = _first(tmp_path, "power-completeness", "exp")
    report = _run_job(cli_main, job)
    power = _verdict(report, "power")["result"]
    power["d"] = [["0"] * len(row) for row in power["d"]]
    assert any("supremum" in p for p in gate.check(job, 0, report))
    power["functors"].pop()
    assert any("exactly the functors" in p for p in gate.check(job, 0, report))


def test_gate_rejects_bad_exit_code(tmp_path):
    job = _first(tmp_path, "ccc-sweep", "ccc-suite")
    assert gate.check(job, 1, None) == ["exit code 1"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ccc-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
