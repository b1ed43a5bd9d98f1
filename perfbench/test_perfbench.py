"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They run small batches of each workload and take well under a minute."""

import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

# the cheapest operations of each workload, for a minimal-size batch
CHEAP = {
    "cli-cold": lambda op: op["argv"][0] in ("bracket", "char", "schur"),
    "hodge-session": lambda op: op["op"] in ("hurwitz_to_hodge", "pde_solver",
                                             "conjugated_equation"),
    "tau-session": lambda op: op["op"] in ("genus_table", "string_dilaton"),
}


def small_batch(workload):
    full = workloads.BATCHES[workload]

    def make(rng, ref, pools):
        return [op for op in full(rng, ref, pools) if CHEAP[workload](op)]
    return make


def run_small(workload, trace, seed=3):
    batches = run.measure(workload, seed, 0, trace, batch=small_batch(workload))
    return batches, run.summarize(workload, batches, trace)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_minimal_run_prints_every_metric_with_its_unit(workload, trace):
    _, (result, env) = run_small(workload, trace)
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert env["src_lines_total"] > 0 and env["latency_tail"]["samples"] >= 1


def test_malformed_invocations_count_as_failed_until_they_exit_2():
    ops = [workloads.cli_op(argv, "usage_error") for argv in workloads.MALFORMED]
    b = run.run_batch("cli-cold", ops, False, time.monotonic() + 60, HERE)
    # exit 2 with a one-line error is the contract; the failures are the
    # malformed inputs the program does not reject that way
    assert b["attempted"] == len(ops) and not b["wrong"]
    assert b["failed"] == sum(1 for rc, _ in b["answers"] if rc != 2)


def test_perturbed_reference_value_counts_as_failed():
    ref = workloads.load_reference()
    argv = "bracket --indices 2,3,3"
    good = workloads.cli_op(argv, "exact", ref["readme"][argv])
    bad = workloads.cli_op(argv, "exact", "5/145")
    b = run.run_batch("cli-cold", [good, bad], False, time.monotonic() + 60, HERE)
    assert b["failed"] == 1 and len(b["wrong"]) == 1
    table = workloads.session_op("genus_table", [1], "equal", ref["genus_tables"]["1"])
    assert workloads.check_session(table, {"2": "1/24"}) is None
    assert workloads.check_session(table, {"2": "1/25"}) is not None
    region = workloads.session_op("kdv_check", ["F01", 0], "region", [6, True])
    assert workloads.check_session(region, [6, True]) is None
    assert workloads.check_session(region, [7, True]) is None
    assert workloads.check_session(region, [5, True]) is not None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_returns_the_untraced_answers(workload):
    ops = small_batch(workload)(random.Random(5), workloads.load_reference(),
                                workloads.load_pools())
    until = time.monotonic() + 120
    plain = run.run_batch(workload, ops, False, until, HERE)
    traced = run.run_batch(workload, ops, True, until, HERE)
    assert traced["traces"] and not plain["traces"]
    assert plain["answers"] == traced["answers"]


def test_refuses_to_run_without_the_program(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark's own files
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-cold",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0 and '"metrics"' not in p.stdout
