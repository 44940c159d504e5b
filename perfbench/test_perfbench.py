"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs each workload on a short prefix of its operations; the whole file
takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hvectors  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_code_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(monkeypatch, capsys, name, trace):
    build = workloads.WORKLOADS[name]

    def prefix(seed):
        workload = build(seed)
        workload.ops = workload.ops[:40]
        return workload

    monkeypatch.setitem(workloads.WORKLOADS, name, prefix)
    monkeypatch.setattr(run, "IMPORT_ROUNDS", 2)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 40
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_a_wrong_expectation_counts_as_a_failed_op():
    wrong_code = workloads.cli_op(["check", "1,3,4,3,1"], 1)  # an SI vector exits 0
    wrong_degree = workloads.not_realizable_op("realize", (1, 2, 4), 3)  # growth fails at degree 2
    right = workloads.cli_op(["check", "1,3,4,3,1"], 0)
    outcome = run.run_passes(workloads.Workload([wrong_code, right, wrong_degree], list, 1.0), 0, passes=1)
    assert outcome["attempted"] == 3
    assert len(outcome["failures"]) == 2


def test_a_catalog_mismatch_fails_the_campaign_gate(monkeypatch):
    monkeypatch.setitem(workloads.SI_COUNTS, 8, 27)
    assert workloads.campaign(1).gate() == ["catalog e=8: 26 SI, 15599 non-SI"]


def test_reference_predicates_agree_with_the_package():
    for n in range(1, 300):
        for i in range(1, 7):
            assert oracle.growth_bound(n, i) == hvectors.macaulay_bound(n, i), (n, i)
    assert sum(len(oracle.si_vectors(3, e, 40)) for e in range(2, 21)) == 5254
    for e in range(2, 9):
        family = hvectors.EnumerationSpec(e, 3, 25, hvectors.SequenceFilter.SI)
        assert oracle.si_vectors(3, e, 25) == [h.entries for h in hvectors.enumerate_hvectors(family)]


def test_tracer_nests_spans_and_restores_the_package():
    original = hvectors.decomposition.enumerate_hvectors
    tracer = tracing.Tracer()
    tracer.install()
    try:
        hvectors.refute_non_si(hvectors.HVector((1, 3, 6, 6, 5, 6, 6, 3, 1)))
    finally:
        tracer.uninstall()
    assert hvectors.decomposition.enumerate_hvectors is original
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"decomposition.refute_non_si", "enumeration.enumerate_hvectors"} <= names
    for span in tracer.spans:
        assert 0 <= span[tracing.CHILD] <= span[tracing.BUSY] + 1e-9
    values = tracing.layer_values(tracer.spans, {})
    assert values["decomposition.refute_non_si.calls"] == 1
    assert values["decomposition.refute_non_si.candidates"] == 8  # the refute golden's count
    assert values["enumeration.enumerate_hvectors.from_decomposition.calls"] >= 1


def test_a_vanished_layer_reads_zero(monkeypatch):
    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + (("decomposition", "no_such_search", False, None),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert set(tracing.layer_values([], {}).values()) == {0}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
