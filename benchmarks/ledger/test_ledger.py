"""The ledger at ``--smoke`` scale: every metric, every workload, end to end.

Not collected by tier-1 (``testpaths = ["tests"]``); run it with
``python -m pytest benchmarks/ledger/test_ledger.py``.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "results.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout
    return out, done.stdout, json.loads(out.read_text())


def test_benchmark_json_is_the_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    # The driver refuses any other key, so "claim": null, fail_frac (always 0)
    # and the frozen sizes are in spec.py and in every results file instead.
    assert set(committed) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                              "per_layer"}
    assert spec.CLAIM is None
    assert "setup_s" in [row["name"] for row in committed["end_to_end"]]
    assert max(row["bound"] for row in committed["end_to_end"]) <= 0.25


def test_name_budget():
    assert len(spec.END_TO_END) + 1 <= 16  # + fail_frac
    assert len(spec.PER_LAYER) == 66 <= 128
    names = [row["name"] for row in spec.END_TO_END + (spec.FAIL_FRAC,) + spec.PER_LAYER]
    names += list(spec.WORKLOAD_NAMES)
    assert len(names) == len(set(names))
    assert all(spec.NAME_PATTERN.fullmatch(name) for name in names)


def test_every_metric_on_every_workload(results):
    _, stdout, data = results
    assert tuple(data["workloads"]) == tuple(sorted(spec.WORKLOAD_NAMES))
    for name, workload in data["workloads"].items():
        for row in spec.END_TO_END + (spec.FAIL_FRAC,):
            assert math.isfinite(workload["end_to_end"][row["name"]]), (name, row["name"])
        for row in spec.PER_LAYER:
            assert math.isfinite(workload["per_layer"][row["name"]]), (name, row["name"])
            assert f"  {row['name']} " in stdout
        assert workload["end_to_end"]["wall_s"] > 0
        assert workload["end_to_end"]["sim_s_per_s"] > 0


def test_layer_shares_sum_to_one(results):
    for name, workload in results[2]["workloads"].items():
        total = sum(workload["per_layer"][f"{layer}.share"] for layer in spec.LAYERS)
        assert total == pytest.approx(1.0, abs=0.01), name


def test_the_warm_cli_runs_no_simulation(results):
    layers = results[2]["workloads"]["cli-warm"]["per_layer"]
    assert sum(layers[f"{layer}.share"] for layer in spec.SIMULATION_LAYERS) <= 0.05


def test_no_failed_operation_and_equal_digests(results):
    # A pass whose digest differs from the warm-up pass's counts as failed.
    for name, workload in results[2]["workloads"].items():
        assert workload["failed"] == 0, (name, workload["failures"])
        assert workload["attempted"] >= 5  # warm-up, three timed, traced
        assert len(workload["sim_digest"]) == 64


def test_spans_and_environment(results):
    out, _, data = results
    spans = [json.loads(line) for line in out.with_name("spans.jsonl").read_text().splitlines()]
    assert {"setup.import", "setup.inputs", "pass.build", "pass.run", "pass.reduce"} <= {
        span["name"] for span in spans
    }
    assert all(span["end"] >= span["start"] for span in spans)
    assert {span["workload"] for span in spans} == set(spec.WORKLOAD_NAMES)
    assert {"nproc", "python", "compiled_core", "numpy", "fluid_backend", "commit", "dirty",
            "seed", "scale", "seconds"} <= set(data["environment"])
    assert data["claim"] is None
    assert all(workload["size"] == spec.size_for(name, smoke=True)
               for name, workload in data["workloads"].items())


def test_compare_accepts_a_file_against_itself_and_refuses_another_seed(results, tmp_path):
    out, _, data = results
    compare = [sys.executable, str(HERE / "compare.py")]
    same = subprocess.run(compare + [str(out), str(out)], stdout=subprocess.PIPE, text=True)
    assert same.returncode == 0, same.stdout
    # Three tiny passes can spread wider than a bound ("unresolved"), never regress.
    assert ", 0 regressed," in same.stdout

    slower = json.loads(json.dumps(data))
    slower["workloads"]["bulk-steered"]["end_to_end"]["peak_rss_mb"] *= 1.5
    (tmp_path / "slower.json").write_text(json.dumps(slower))
    worse = subprocess.run(compare + [str(out), str(tmp_path / "slower.json")],
                           stdout=subprocess.PIPE, text=True)
    assert worse.returncode == 1 and "regressed" in worse.stdout

    data["environment"]["seed"] += 1
    (tmp_path / "other.json").write_text(json.dumps(data))
    refused = subprocess.run(compare + [str(out), str(tmp_path / "other.json")],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert refused.returncode == 2 and "environment.seed" in refused.stderr
