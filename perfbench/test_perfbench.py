"""Tests of the benchmark itself: tiny runs, and checks that reject tampering.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name):
    workload = workloads.WORKLOADS[name]
    return dataclasses.replace(workload, shape=workloads.TINY_SHAPES[name])


def run_tiny(name, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
        "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=HERE.parent)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_tiny_with_every_end_to_end_metric(name):
    result = run_tiny(name, trace=0)
    assert result["correct"] is True
    # the warm-up, the timed ops and the two extra set-ups
    assert result["attempted"] == workloads.TINY_OPS + 3
    assert result["failed"] == 0
    expected = {(m["name"], m["unit"]) for m in SPEC["end_to_end"]}
    assert {(k, v["unit"]) for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    result = run_tiny(name, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    expected = {(m["name"], m["unit"]) for m in SPEC["per_layer"]}
    assert {(k, v["unit"]) for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["config.parse_config.s"] > 0
    if name == "net-mid":
        assert values["net.endpoints"] == 6
        assert values["net.stop.s"] > 0
        assert values["wire.bytes.query"] > 0
        assert 0 < values["net.run_networked_session.self_s"] <= values["net.run_networked_session.s"]
    else:
        assert values["net.endpoints"] == 0
    if name == "audit-exhaustive":
        assert values["audit.answers_for_realization.calls"] > 0
        assert values["audit.realizations_per_s"] > 0
    else:
        assert values["audit.answers_for_realization.calls"] == 0
        assert values["leader.decode.answers"] > 0


def test_inputs_follow_the_seed():
    workload = tiny("mem-wide")
    assert workload.instances(7, 3) == workload.instances(7, 3)
    assert workload.instances(7, 3) != workload.instances(8, 3)


def _memory_op(name):
    workload = tiny(name)
    inst = workload.instances(11, 1)[0]
    config = workloads.parse(inst.text)
    return workload, inst, config, workload.op(config).output


def test_session_check_accepts_a_correct_transcript():
    workload, inst, config, output = _memory_op("mem-wide")
    problems, wire = workload.check(inst, config, output)
    assert problems == [] and wire > 0


def test_session_check_rejects_a_dropped_element():
    workload, inst, config, (transcript, data) = _memory_op("mem-wide")
    result = transcript.result
    assert result.decoded, "the generated instance plants a nonempty intersection"
    dropped = dataclasses.replace(result, decoded=result.decoded - {min(result.decoded)})
    tampered = dataclasses.replace(transcript, result=dropped)
    problems, _ = workload.check(inst, config, (tampered, data))
    assert any("decoded" in p for p in problems)


def test_session_check_rejects_a_download_cost_off_by_one():
    workload, inst, config, (transcript, data) = _memory_op("mem-wide")
    result = transcript.result
    off = dataclasses.replace(result, download_cost_actual=result.download_cost_actual + 1)
    tampered = dataclasses.replace(transcript, result=off)
    problems, _ = workload.check(inst, config, (tampered, data))
    assert any("download cost" in p for p in problems)


def test_audit_check_rejects_a_missing_case():
    workload, inst, config, reports = _memory_op("audit-exhaustive")
    assert workload.check(inst, config, reports)[0] == []
    reliability = reports[0]
    short = dataclasses.replace(reliability, cases=reliability.cases - 1)
    problems, _ = workload.check(inst, config, (short,) + reports[1:])
    assert any("cases" in p for p in problems)


def test_property_checks_pass_on_the_program():
    for name in ("net-mid", "audit-exhaustive"):
        workload = tiny(name)
        config = workloads.parse(workload.instances(2, 1)[0].text)
        assert workload.prop(config) == []


def test_tracer_restores_every_wrapped_name():
    import mppsi.client
    import mppsi.net
    import mppsi.protocol

    before = (mppsi.protocol.answer_all, mppsi.client.answer_all, mppsi.net.DatabaseEndpoint.stop)
    tracer = tracing.Tracer()
    tracer.install()
    assert mppsi.protocol.answer_all is not before[0]
    assert mppsi.client.answer_all is not before[1]
    tracer.uninstall()
    after = (mppsi.protocol.answer_all, mppsi.client.answer_all, mppsi.net.DatabaseEndpoint.stop)
    assert after == before


def test_self_time_subtracts_covered_child_time():
    spans = [
        (1, "net.run_networked_session", 0.0, 10.0, None, 1, None),
        (2, "leader.generate_queries", 1.0, 3.0, 1, 1, None),
        (3, "leader.make_partition_plan", 2.0, 4.0, 1, 1, None),
        (4, "client.answer_all", 0.0, 9.0, None, 1, None),  # another thread
    ]
    values = tracing.op_layer_values(spans, {})
    assert values["net.run_networked_session.self_s"] == pytest.approx(7.0)
