"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _error_rate(workload) -> float:
    outcomes = [workload.execute(q) for q in workload.queries]
    return sum(not o.ok for o in outcomes) / len(outcomes)


def test_flipped_eigenvalue_counts_as_error(monkeypatch, tmp_path):
    from mixedcirc import cli, spectrum

    wl = workloads.SpectrumLarge(5, "tiny", str(tmp_path))
    assert _error_rate(wl) == 0

    def flipped(spec):
        s = spectrum.eigenvalues_closed_form(spec)
        gamma = list(s.gamma)
        gamma[1] = -gamma[1] - 1
        return spectrum.Spectrum(n=s.n, gamma=tuple(gamma))

    monkeypatch.setattr(cli, "eigenvalues_closed_form", flipped)
    assert _error_rate(wl) > 0


def test_off_quarter_target_counts_as_error(monkeypatch, tmp_path):
    import mixedcirc

    wl = workloads.TransferScan(5, "tiny", str(tmp_path))
    real = mixedcirc.pair_restriction_check
    monkeypatch.setattr(mixedcirc, "pair_restriction_check", lambda s: real(s) | {1})
    assert _error_rate(wl) > 0


def test_missing_quarter_target_counts_as_error(monkeypatch, tmp_path):
    import mixedcirc

    wl = workloads.TransferScan(5, "tiny", str(tmp_path))
    assert any(wl.call(q)[3].kind == "mst" for q in wl.queries)
    real = mixedcirc.pair_restriction_check
    monkeypatch.setattr(mixedcirc, "pair_restriction_check", lambda s: real(s) - {3 * s.n // 4})
    assert _error_rate(wl) > 0


def test_unknown_mismatch_shape_counts_as_error(tmp_path):
    wl = workloads.Sweep(5, "tiny", str(tmp_path))
    q = wl.queries[0]
    code, stdout = wl.call(q)
    assert wl.check(q, (code, stdout), 0.1).ok
    doc = json.loads(stdout)
    doc["mismatches"] = [{"spec": '{"B":[],"D":[],"n":4,"sigma":{}}', "classifier": True,
                          "valuation": False, "numeric": False}]
    assert not wl.check(q, (1, json.dumps(doc)), 0.1).ok


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("spectrum_large", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_counts_an_lru_cached_function(monkeypatch):
    from tracing import Tracer

    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.kernels")

    def square(x):
        return x * x

    square.__module__ = "fakepkg.kernels"
    mod.square = functools.lru_cache(maxsize=None)(square)
    pkg.square = mod.square
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.kernels", mod)
    original = mod.square
    tracer = Tracer("fakepkg")
    with tracer:
        assert mod.square is not original and pkg.square is mod.square
        assert [pkg.square(3), mod.square(3), mod.square(4)] == [9, 9, 16]
        assert mod.square.cache_info().misses == 2
    assert mod.square is original and pkg.square is original
    assert tracer.stat("kernels", "square").calls == 3
