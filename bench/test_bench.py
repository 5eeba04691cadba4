"""Tests of the benchmark itself.

    python3 -m pytest bench -q

Every workload runs at a tiny length on two seeds, untraced and traced, as
a child process the way it is run for measurement. A traced pass in this
process checks that no secret reaches anything the benchmark writes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

import dirsig  # noqa: E402
import dirsig.threshold  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK_JSON = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEEDS = (1, 2)
LIBRARY = ("directed-2048", "quorum-512", "bulk-4m")

# Every end-to-end metric each workload prints, with its unit.
END_TO_END = {
    "setup_s": "s",
    "flows_per_s": "1/s",
    "flow_ms_p50": "ms",
    "flow_ms_p95": "ms",
    "sign_ms_p50": "ms",
    "sign_ms_p95": "ms",
    "verify_ms_p50": "ms",
    "verify_ms_p95": "ms",
    "failed_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PROVE = {"prove_ms_p50": "ms", "prove_ms_p95": "ms"}

_runs: dict = {}


def bench(workload: str, seed: int, trace: int):
    """Output lines and result object of one tiny run, cached across tests."""
    key = (workload, seed, trace)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        _runs[key] = (lines, json.loads(lines[-1]))
    return _runs[key]


def printed(lines, workload: str, metric: str, unit: str) -> bool:
    pattern = re.compile(rf"^{re.escape(workload)}\s+{re.escape(metric)}\s+\S+\s+"
                         rf"{re.escape(unit)}\s+n=\d+")
    return any(pattern.match(line) for line in lines)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload, seed):
    lines, result = bench(workload, seed, 0)
    wanted = dict(END_TO_END, **(PROVE if workload in ("directed-2048", "cli-2048") else {}))
    missing = [m for m, unit in wanted.items() if not printed(lines, workload, m, unit)]
    assert not missing
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    gated = {m["name"]: m["unit"] for m in BENCHMARK_JSON["end_to_end"]}
    assert set(result["metrics"]) <= set(gated)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == gated[name]
        assert metric["value"] > 0
    # p95 needs 200 samples, more than a tiny run holds
    assert {m for m in gated if not m.endswith("_p95")} <= set(result["metrics"])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_prints_every_layer_metric(workload, seed):
    lines, result = bench(workload, seed, 1)
    missing = [m for m, unit in LAYER_METRICS if not printed(lines, workload, m, unit)]
    assert not missing
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK_JSON["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == per_layer


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", LIBRARY)
def test_library_workloads_have_no_wrong_outcome(workload, seed):
    for trace in (0, 1):
        lines, result = bench(workload, seed, trace)
        assert result["failed"] == 0 and result["correct"]
        if trace == 0:
            assert printed(lines, workload, "failed_ratio", "ratio")
            assert any(re.match(rf"^{workload}\s+failed_ratio\s+0\.0000\s", line)
                       for line in lines)


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_failures_are_the_known_hex_defect(seed):
    # flows 0 and 1 carry the '0x'-hex dverify input, which the parser accepts
    lines, result = bench("cli-2048", seed, 0)
    defect = [line for line in lines if "wrong outcome: dverify [s-0x-hex]" in line]
    assert len(defect) == 1 and "known defect" in defect[0]
    assert f"x{result['failed']}" in defect[0]
    assert not [line for line in lines if "wrong outcome" in line and line not in defect]


def test_same_seed_gives_same_inputs(tmp_path):
    keys = []
    for seed in (7, 7, 8):
        workload = WORKLOADS["bulk-4m"](seed, tmp_path)
        workload.setup()
        keys.append(([m.y.value for m in workload.directory.members], workload.buffer[:64]))
    assert keys[0] == keys[1] != keys[2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "quorum-512", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def secrets(monkeypatch):
    """Record every exponent, power, hash input and output, and Shamir share.

    These cover private keys, nonces, shares, shadows, recovered commitments
    and partial results, plus public values the benchmark has no reason to
    print either.
    """
    seen: set = set()
    pow_ = dirsig.GroupElement.__pow__
    to_scalar = dirsig.Sha256Hash.hash_to_scalar
    split = dirsig.threshold.split

    def recording_pow(self, exponent):
        result = pow_(self, exponent)
        seen.update((int(exponent) % self.group.q, result.value))
        return result

    def recording_hash(self, element, message):
        result = to_scalar(self, element, message)
        seen.update((element.value, result.value))
        return result

    def recording_split(secret, k, ids, *args, **kwargs):
        shares = split(secret, k, ids, *args, **kwargs)
        seen.update([secret.value] + [share.v.value for share in shares])
        return shares

    monkeypatch.setattr(dirsig.GroupElement, "__pow__", recording_pow)
    monkeypatch.setattr(dirsig.Sha256Hash, "hash_to_scalar", recording_hash)
    monkeypatch.setattr(dirsig.threshold, "split", recording_split)
    return seen


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_no_secret_in_benchmark_output(workload, secrets, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", "1"]) == 0
    out = capsys.readouterr()
    trace_file = re.search(r"spans in (\S+)", out.out).group(1)
    written = out.out + out.err + (run.ROOT / trace_file).read_text()
    assert len(secrets) > 10
    for value in secrets:
        if value.bit_length() <= 64:  # too short to tell apart from a timestamp
            continue
        for text in (str(value), format(value, "x"), format(value, "X")):
            assert text not in written
