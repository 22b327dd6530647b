"""Tests of the end-to-end benchmark at a tiny scale.

Every workload must emit exactly the metrics ``BENCHMARK.json`` declares,
with their units, and every correctness check must fail on a deliberately
corrupted outcome.  Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import repro
from perfbench import run as bench
from perfbench.checks import check_reevaluated, check_same_bytes
from perfbench.measure import ROOT
from perfbench.offline import OfflineScale, run_offline
from perfbench.search import canonical_bytes, run_search
from perfbench.served import ServedScale, run_served
from perfbench.tracing import Tracer

TINY_OFFLINE = OfflineScale(network="bert", budget=120, warmup_budget=60,
                            setups=1, min_searches=2, traced_searches=1)
TINY_SERVED = ServedScale(setups=1, min_jobs=4)


def declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def assert_emits_declared(result, trace: bool) -> None:
    line = bench.summary(result, trace)
    assert line["correct"], result.failures
    assert line["attempted"] >= 1 and line["failed"] == 0
    expected = declared("per_layer" if trace else "end_to_end")
    assert {name: metric["unit"] for name, metric in line["metrics"].items()} \
        == expected
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], float)


def test_benchmark_json_follows_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [workload["name"] for workload in spec["workloads"]] \
        == list(bench.WORKLOADS)
    names = [metric["name"] for section in ("end_to_end", "per_layer")
             for metric in spec[section]]
    assert len(names) == len(set(names))
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("strategy", ["dosa", "random"])
def test_offline_workload_emits_every_metric(strategy, trace):
    result = run_offline(f"{strategy}-bert", strategy, 0, 0.0, trace,
                         TINY_OFFLINE)
    assert_emits_declared(result, trace)


@pytest.mark.parametrize("trace", [False, True])
def test_served_workload_emits_every_metric(trace):
    result = run_served(0, 0.0, trace, TINY_SERVED)
    assert_emits_declared(result, trace)
    assert result.attempted >= TINY_SERVED.min_jobs


def test_traced_run_repeats_its_counts_and_accounts_for_search_time():
    result = run_offline("dosa-bert", "dosa", 1, 0.0, True, TINY_OFFLINE)
    again = run_offline("dosa-bert", "dosa", 1, 0.0, True, TINY_OFFLINE)
    for name in ("best_edp.geomean", "autodiff.steps",
                 "autodiff.overflow_warnings", "autodiff.nonfinite_grad_ratio",
                 "optimizer.rounding_points", "eval.cache_hit_ratio"):
        assert again.metrics[name] == result.metrics[name], name
    # The spans on disk are the second run's.
    spans = json.loads(
        (ROOT / ".perfbench-out" / "dosa-bert-seed1-spans.json").read_text())
    roots = [span for span in spans["spans"] if span["name"] == "search.dosa"]
    wall = sum(span["end"] - span["start"] for span in roots) / len(roots)
    layers = sum(value for name, value in again.metrics.items()
                 if name.endswith("_s") and not name.startswith(
                     ("service.", "setup.", "host.")))
    assert layers == pytest.approx(wall, rel=1e-9)
    assert again.metrics["autodiff.steps"] > 0


def small_outcome():
    return repro.optimize("bert", strategy="random", budget=60, seed=3)


def test_reevaluation_check_catches_a_mutated_best_edp():
    outcome = small_outcome()
    assert check_reevaluated(outcome) is None
    performance = outcome.best.performance
    outcome.best = dataclasses.replace(
        outcome.best, performance=dataclasses.replace(
            performance, total_energy=performance.total_energy * (1 + 1e-12)))
    assert "re-evaluates" in check_reevaluated(outcome)


def test_a_corrupted_search_counts_as_failed(monkeypatch):
    optimize = repro.optimize

    def corrupted(*args, **kwargs):
        outcome = optimize(*args, **kwargs)
        performance = outcome.best.performance
        outcome.best = dataclasses.replace(
            outcome.best, performance=dataclasses.replace(
                performance, total_latency=performance.total_latency * 2))
        return outcome

    monkeypatch.setattr(repro, "optimize", corrupted)
    search = run_search("bert", "random", 60, 3, 0)
    assert search.error is not None and "re-evaluates" in search.error


def test_byte_check_catches_a_perturbed_result():
    served = canonical_bytes(small_outcome())
    assert check_same_bytes(served, served, "same") is None
    position = served.index(b'"best_edp"') + 13
    perturbed = (served[:position]
                 + (b"1" if served[position:position + 1] != b"1" else b"2")
                 + served[position + 1:])
    assert "differs" in check_same_bytes(served, perturbed, "served")
    assert "differs" in check_same_bytes(served, served[:-1], "served")


def test_a_perturbed_served_result_counts_as_failed(monkeypatch):
    from repro.service import Client

    result_bytes = Client.result_bytes
    calls = []

    def perturbed(self, job_id, deterministic=True):
        data = result_bytes(self, job_id, deterministic)
        calls.append(job_id)
        return data.replace(b'"seed"', b'"sead"') if len(calls) == 1 else data

    monkeypatch.setattr(Client, "result_bytes", perturbed)
    result = run_served(0, 0.0, False, TINY_SERVED)
    assert result.failed == 1
    assert "served result vs offline" in result.failures[0]


def test_a_traced_outcome_that_differs_counts_as_failed(monkeypatch):
    optimize = repro.optimize
    from repro.autodiff.tape import Tape
    plain_forward = Tape.forward

    def drifting(*args, **kwargs):
        outcome = optimize(*args, **kwargs)
        if Tape.forward is not plain_forward:  # the shims are installed
            outcome.network = "drifted"
        return outcome

    monkeypatch.setattr(repro, "optimize", drifting)
    result = run_offline("dosa-bert", "dosa", 0, 0.0, True, TINY_OFFLINE)
    assert result.failed == 1
    assert "traced outcome vs untraced" in result.failures[0]


def test_tracer_nests_spans_and_restores_originals():
    class Layer:
        def work(self, depth):
            if depth:
                self.work(depth - 1)
            return depth

    original = Layer.work
    tracer = Tracer()
    tracer.patch(Layer, "work", "layer.work")
    with tracer.span("root", request="r"):
        assert Layer().work(2) == 2
    tracer.restore()
    assert Layer.work is original
    assert [span.parent for span in tracer.spans] == [None, 0, 1, 2]
    assert {span.request for span in tracer.spans} == {"r"}
    self_time = tracer.self_times()
    assert sum(self_time.values()) == pytest.approx(tracer.spans[0].duration)


def test_runs_refuse_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dosa-resnet50",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
