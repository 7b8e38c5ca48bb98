"""Smoke tests of the benchmark harness at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def tiny_gnp_run(budget: int):
    lib = workloads.import_library()
    workload = workloads.Gnp(lib, seed=0, budget=budget)
    ops = workload.ops[:len(workloads.GNP_CELLS)]
    measured = workloads.measure(workload, ops, None)
    return workload, measured["results"], workloads.summarize_ops(workload, [measured])


def test_budget_exhaustion_is_counted_not_dropped():
    workload, results, summary = tiny_gnp_run(budget=200)
    assert summary["attempted"] == len(workloads.GNP_CELLS)
    assert summary["budget_exhausted"] >= 1
    assert summary["decided"] >= 1
    assert summary["decided"] + summary["budget_exhausted"] == summary["attempted"]
    assert summary["failed"] == 0
    assert summary["decided_share"] == summary["decided"] / summary["attempted"]
    workload.finish(results)
    assert workload.failures == []


def test_wrong_code_fails_the_run():
    workload, results, _ = tiny_gnp_run(budget=200)
    op, outcome, sigma = next(r for r in results if r[1] == workloads.DECIDED)
    wrong = sigma[:-1] + (sigma[-1] * 2,)
    workload.finish([(op, outcome, wrong)])
    assert workload.failures and "wrong code" in workload.failures[0]
