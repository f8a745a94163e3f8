import importlib
import json

import pytest

import run
import tracing
import workloads

EXPECTED = json.loads(run.EXPECTED_PATH.read_text())


def snapshot(targets=tracing.TARGETS):
    out = {}
    for modname, clsname, attr, _ in targets:
        owner = importlib.import_module(modname)
        if clsname:
            owner = getattr(owner, clsname)
        out[(modname, clsname, attr)] = vars(owner).get(attr)
    return out


def traced_decision(tmp_path, iid, problem, doc):
    cli = importlib.import_module("resilp.cli")
    argv = run.write_instance(tmp_path, iid, problem, doc)
    tracer = tracing.Tracer()
    with tracer.installed():
        _, code, out = run.decide_in_process(cli, argv, 30, tracer, iid)
    return tracer, code, out


def test_installed_restores_every_wrapped_attribute():
    before = snapshot()
    tracer = tracing.Tracer()
    with tracer.installed():
        during = snapshot()
        assert all(during[k] is not before[k] for k in before)
    assert snapshot() == before
    assert all(snapshot()[k] is before[k] for k in before)


def test_installed_restores_after_an_exception():
    before = snapshot()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("boom")
    assert all(snapshot()[k] is before[k] for k in before)


def test_missing_or_uncalled_targets_report_zero():
    targets = tracing.TARGETS + (("resilp.engine", None, "no_such_function", "ilp.solve"),)
    tracer = tracing.Tracer()
    with tracer.installed(targets):
        pass
    assert tracer.missing == ["resilp.engine.no_such_function"]
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["ilp.solve_calls"] == 0
    assert metrics["engine.solves_per_scenario"] == 0
    assert metrics["cli.main_self_ms"] == 0


def test_layer_counts_match_the_verdict(tmp_path):
    iid, problem, doc = workloads.SCHED_SCALED[1]  # 84 scenarios, resilient
    tracer, code, out = traced_decision(tmp_path, iid, problem, doc)
    assert run.judge(code, out, EXPECTED[iid]) is None
    m = tracing.layer_metrics(tracer.spans, 1)
    assert m["parse.calls"] == 1
    assert m["encode.calls"] == 1
    assert m["engine.scenarios"] == EXPECTED[iid]["scenarios_checked"] == 84
    assert m["engine.substitute_calls"] == m["ilp.solve_calls"] == 84
    assert m["engine.solves_per_scenario"] == 1.0
    assert m["ilp.feasible_ratio"] == 1.0
    assert m["engine.errors"] == m["parse.errors"] == 0
    assert m["encode.vars"] > 0 and m["encode.rows"] > 0
    assert m["ilp.solve_busy_s"] <= m["ilp.solve_ms_p90"] * 84 / 1e3 + 1e-9
    assert {s.trace for s in tracer.spans} == {iid}


def test_spans_nest_and_self_time_excludes_children(tmp_path):
    iid, problem, doc = workloads.SCHED_SCALED[2]  # fails at scenario 118
    tracer, code, out = traced_decision(tmp_path, iid, problem, doc)
    assert code == 1
    spans = tracer.spans
    root = spans[0]
    assert root.name == "cli.main" and root.parent is None
    by_id = {s.sid: s for s in spans}
    for s in spans[1:]:
        parent = by_id[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end
    check = next(s for s in spans if s.name == "engine.check")
    children = [s for s in spans if s.parent == check.sid]
    assert {s.name for s in children} == {"engine.enumerate", "engine.substitute", "ilp.solve"}
    assert check.self_time == pytest.approx(check.duration - sum(c.duration for c in children))
    m = tracing.layer_metrics(spans, 1)
    assert m["engine.scenarios"] == 118
    assert m["ilp.feasible_ratio"] == pytest.approx(117 / 118)


def test_written_spans_read_back(tmp_path):
    iid, problem, doc = workloads.SCHED_SCALED[1]
    tracer, _, _ = traced_decision(tmp_path, iid, problem, doc)
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    again = run.read_spans(path)
    assert tracing.layer_metrics(again, 1) == tracing.layer_metrics(tracer.spans, 1)
