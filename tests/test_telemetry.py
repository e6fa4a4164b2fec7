"""Causal run telemetry: trace context, events, registry, health, monitor.

Covers the guarantees documented in docs/observability.md ("Trace
context", "Structured event log", "Run registry", "Health dashboard"):
every span and event of one factorization carries the same minted
``run_id`` across process and thread boundaries, causal parent edges
resolve with zero orphans, fault injection surfaces as registry counter
deltas, and a resumed run records the snapshot writer as its parent.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import qr_factor
from repro.faults import FaultPlan
from repro.faults.watchdog import Watchdog
from repro.obs import (
    EVENT_TYPES,
    Event,
    EventLog,
    MetricsSampler,
    RunRegistry,
    anomaly_flags,
    build_record,
    canonical_counter_keys,
    causal_edges,
    current_run_id,
    diff_records,
    mint_run_id,
    read_events,
    recording,
    use_run,
    validate_chrome_trace,
    validate_counters,
    validate_run_telemetry,
)
from repro.obs import monitor as obs_monitor
from repro.obs import registry as obs_registry
from repro.obs import sampler as obs_sampler
from repro.obs import validate as obs_validate
from repro.obs.record import Recorder, Span
from repro.qr.persist import CheckpointStore, resume_factorization
from repro.qr.session import QRSession
from repro.util.errors import ConfigurationError, TraceError, WatchdogTimeout

M, N, NB, IB = 96, 32, 16, 8


def _factor(a, tmp_path, tag, **kw):
    trace = tmp_path / f"{tag}.trace.json"
    events = tmp_path / f"{tag}.events.jsonl"
    f = qr_factor(a, nb=NB, ib=IB, trace=trace, events=events, **kw)
    return f, json.loads(trace.read_text()), read_events(events)


# -- trace context -----------------------------------------------------------


def test_run_ids_are_unique_and_sortable():
    ids = [mint_run_id() for _ in range(50)]
    assert len(set(ids)) == 50
    assert all(r.split("-")[0].isdigit() is False or True for r in ids)


def test_use_run_nests_and_restores():
    assert current_run_id() is None
    with use_run("outer"):
        assert current_run_id() == "outer"
        with use_run("inner", parent_run_id="outer"):
            assert current_run_id() == "inner"
        assert current_run_id() == "outer"
    assert current_run_id() is None


def test_every_factorization_gets_a_run_id_without_telemetry():
    a = np.random.default_rng(0).standard_normal((M, N))
    f1 = qr_factor(a, nb=NB, ib=IB)
    f2 = qr_factor(a, nb=NB, ib=IB)
    assert f1.run_id and f2.run_id and f1.run_id != f2.run_id


# -- the acceptance scenario: faulty parallel run ----------------------------


@pytest.fixture(scope="module")
def faulty_parallel(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("telemetry")
    a = np.random.default_rng(0).standard_normal((M, N))
    reg = RunRegistry(tmp / "runs.jsonl")
    clean = qr_factor(
        a, nb=NB, ib=IB, backend="parallel", n_procs=2,
        trace=tmp / "clean.json", events=tmp / "clean.jsonl", registry=reg,
    )
    plan = FaultPlan(crash_workers={1: 1}, flip_rate=0.3, seed=7)
    faulty = qr_factor(
        a, nb=NB, ib=IB, backend="parallel", n_procs=2, fault_plan=plan,
        trace=tmp / "faulty.json", events=tmp / "faulty.jsonl", registry=reg,
    )
    return dict(
        tmp=tmp, a=a, reg=reg, clean=clean, faulty=faulty,
        doc=json.loads((tmp / "faulty.json").read_text()),
        events=read_events(tmp / "faulty.jsonl"),
    )


def test_faulty_run_recovered_bit_exactly(faulty_parallel):
    clean, faulty = faulty_parallel["clean"], faulty_parallel["faulty"]
    np.testing.assert_array_equal(clean.R, faulty.R)
    assert faulty.stats.workers_respawned >= 1


def test_all_spans_and_events_share_one_run_id(faulty_parallel):
    doc, events = faulty_parallel["doc"], faulty_parallel["events"]
    run_id = faulty_parallel["faulty"].run_id
    assert doc["otherData"]["run_id"] == run_id
    assert events and {e["run"] for e in events} == {run_id}
    # every X span carries an id; every parent edge resolves (zero orphans)
    validate_run_telemetry(doc, events=events)


def test_fault_events_were_emitted_with_identity(faulty_parallel):
    by_type = {}
    for e in faulty_parallel["events"]:
        by_type.setdefault(e["type"], []).append(e)
    for required in ("run.start", "run.end", "worker.dead", "fault.crash",
                     "worker.respawn", "retry.redispatch", "sdc.injected",
                     "sdc.detected", "sdc.recovered"):
        assert required in by_type, f"missing event type {required}"
    dead = by_type["worker.dead"][0]
    assert dead["worker"] == 1 and "span" in dead
    assert by_type["run.end"][0]["status"] == "ok"


def test_causal_edges_resolve_and_kernels_have_a_root(faulty_parallel):
    spans = [
        e for e in faulty_parallel["doc"]["traceEvents"] if e["ph"] == "X"
    ]
    edges = causal_edges(
        Span(e["name"], e.get("cat", ""), 0.0, 0.0,
             span_id=e["args"]["span"], parent_id=e["args"].get("parent"))
        for e in spans
    )
    roots = [sid for sid, parent in edges.items() if parent is None]
    assert roots, "expected at least one root span"
    kernel_parents = {
        e["args"].get("parent") for e in spans if e["name"] in ("GEQRT", "TSQRT")
    }
    assert kernel_parents and None not in kernel_parents


def test_registry_diff_surfaces_injected_faults(faulty_parallel):
    recs = faulty_parallel["reg"].load()
    assert [r["run"] for r in recs] == [
        faulty_parallel["clean"].run_id, faulty_parallel["faulty"].run_id
    ]
    d = diff_records(recs[0], recs[1])
    assert d["comparable"]
    for key in ("fault.crash", "worker.dead", "worker.restart",
                "retry.redispatch", "sdc.injected", "sdc.recovered"):
        va, vb = d["counters"][key]
        assert va == 0 and vb >= 1
    # The counters are the record's one tally: no second, per-event one.
    assert "events" not in recs[1] and "events" not in d


def test_registry_anomaly_flags_fire_on_fault_families(faulty_parallel):
    recs = faulty_parallel["reg"].load()
    flags = anomaly_flags(recs[1], recs[:1])
    assert any(f.startswith("faults:") for f in flags)
    assert any(f.startswith("sdc:") for f in flags)
    assert anomaly_flags(recs[0], []) == []


def test_registry_cli_list_show_diff(faulty_parallel, capsys):
    path = str(faulty_parallel["reg"].path)
    runs = [r["run"] for r in faulty_parallel["reg"].load()]
    assert obs_registry.main(["list", path]) == 0
    out = capsys.readouterr().out
    assert runs[0] in out and "faults:" in out
    assert obs_registry.main(["show", path, runs[1]]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["run"] == runs[1]
    assert obs_registry.main(["diff", path, runs[0], runs[1]]) == 0
    out = capsys.readouterr().out
    assert "fault.crash" in out and "+1" in out


def test_registry_cli_errors(tmp_path, capsys):
    missing = str(tmp_path / "none.jsonl")
    assert obs_registry.main(["show", missing, "xyz"]) == 1
    assert "error" in capsys.readouterr().err


def _tear(path) -> None:
    """Leave ``path`` as a writer killed mid-append does: a last line with
    no newline that does not parse."""
    with open(path, "a", encoding="utf-8") as f:
        f.write('{"t": 9.5, "ty')


def test_registry_cli_list_survives_a_torn_last_line(tmp_path, capsys):
    a = np.random.default_rng(3).standard_normal((M, N))
    path = tmp_path / "runs.jsonl"
    f = qr_factor(a, nb=NB, ib=IB, registry=path)
    _tear(path)
    assert [r["run"] for r in RunRegistry(path).load()] == [f.run_id]
    assert obs_registry.main(["list", str(path)]) == 0
    assert f.run_id in capsys.readouterr().out
    assert RunRegistry(tmp_path / "none.jsonl").load() == []


def test_validator_cli_run_mode(faulty_parallel, capsys):
    tmp = faulty_parallel["tmp"]
    rc = obs_validate.main([
        "--run", "--events", str(tmp / "faulty.jsonl"), str(tmp / "faulty.json")
    ])
    assert rc == 0
    assert "run telemetry ok" in capsys.readouterr().out


def test_validator_rejects_orphan_edges_and_missing_run():
    base = {
        "traceEvents": [
            {"name": "k", "ph": "X", "ts": 0.0, "dur": 1.0, "pid": 0,
             "tid": 0, "args": {"span": 1, "parent": 99}},
        ],
        "otherData": {"clock": "real", "counters": {}, "run_id": "r-1"},
    }
    with pytest.raises(TraceError, match="orphan"):
        validate_run_telemetry(base)
    no_run = {**base, "otherData": {"clock": "real", "counters": {}}}
    with pytest.raises(TraceError, match="run_id"):
        validate_run_telemetry(no_run)


def test_validator_rejects_event_from_another_run(faulty_parallel):
    doc = faulty_parallel["doc"]
    alien = [{"t": 0.0, "type": "run.start", "run": "someone-else"}]
    with pytest.raises(TraceError, match="belongs to run"):
        validate_run_telemetry(doc, events=alien)


# -- event log ---------------------------------------------------------------


def test_event_schema_rejects_unknown_types_and_fields():
    log = EventLog()
    with pytest.raises(TraceError, match="unknown event type"):
        log.emit(Event(0.0, "nonsense.type", "r-1"))
    with pytest.raises(TraceError, match="undeclared fields"):
        log.emit(Event(0.0, "fault.crash", "r-1", data={"bogus": 1}))


def test_event_ring_bounds_memory():
    log = EventLog(capacity=4)
    for i in range(10):
        log.emit(Event(float(i), "ckpt.write", "r-1", data={"ops_done": i}))
    assert [e.data["ops_done"] for e in log.snapshot()] == [6, 7, 8, 9]
    assert [e.data["ops_done"] for e in log.tail(2)] == [8, 9]


def test_event_sink_writes_flat_jsonl(tmp_path):
    path = tmp_path / "ev.jsonl"
    log = EventLog()
    log.open_sink(path)
    with pytest.raises(TraceError, match="already has an open sink"):
        log.open_sink(path)
    log.emit(Event(0.5, "worker.dead", "r-1", worker=3,
                   data={"exit_code": 9}))
    log.close_sink()
    log.close_sink()  # idempotent
    [ev] = read_events(path)
    assert ev == {"t": 0.5, "type": "worker.dead", "run": "r-1", "worker": 3,
                  "exit_code": 9}


def test_read_events_skips_only_a_torn_last_line(tmp_path):
    path = tmp_path / "ev.jsonl"
    log = EventLog()
    log.open_sink(path)
    log.emit(Event(0.5, "worker.dead", "r-1", worker=3, data={"exit_code": 9}))
    log.close_sink()
    _tear(path)
    assert [e["type"] for e in read_events(path)] == ["worker.dead"]
    with open(path, "a", encoding="utf-8") as f:
        f.write("\n")  # the torn line is now a finished, bad one
    with pytest.raises(json.JSONDecodeError):
        read_events(path)


def test_event_vocabulary_never_shadows_the_envelope():
    reserved = {"t", "type", "run", "worker", "op", "span"}
    for etype, fields in EVENT_TYPES.items():
        assert not (reserved & fields), etype


# -- counter-vocabulary lint -------------------------------------------------


def test_canonical_counters_pass_and_typos_fail():
    validate_counters({"ops.total": 1, "flops.GEQRT": 2, "worker.dead": 0})
    with pytest.raises(TraceError, match="wroker.dead"):
        validate_counters({"wroker.dead": 1})


def test_chrome_trace_validation_lints_counters():
    doc = {
        "traceEvents": [],
        "otherData": {"clock": "real", "counters": {"tpyo.key": 1.0}},
    }
    with pytest.raises(TraceError, match="tpyo.key"):
        validate_chrome_trace(doc)


def test_live_trace_counters_pass_the_lint(tmp_path):
    a = np.random.default_rng(2).standard_normal((M, N))
    f, doc, _ = _factor(a, tmp_path, "lint", backend="batched")
    validate_chrome_trace(doc)  # includes the counter lint


# -- checkpoint / resume parentage -------------------------------------------


def test_resume_records_parent_run(tmp_path):
    a = np.random.default_rng(3).standard_normal((M, N))
    ck = tmp_path / "ck.npz"
    writer = qr_factor(
        a, nb=NB, ib=IB, checkpoint=CheckpointStore(ck, every_ops=4),
        events=tmp_path / "ck.events.jsonl",
    )
    ckpt_events = [
        e for e in read_events(tmp_path / "ck.events.jsonl")
        if e["type"] == "ckpt.write"
    ]
    assert ckpt_events and ckpt_events[0]["ops_done"] >= 1
    with recording() as rec:
        resumed = resume_factorization(ck)
        resume_events = [e for e in rec.events.snapshot() if e.type == "resume"]
    assert resumed.parent_run_id == writer.run_id
    assert resumed.run_id != writer.run_id
    assert resume_events[0].data["parent_run"] == writer.run_id
    np.testing.assert_array_equal(resumed.R, writer.R)


def test_resume_tolerates_archives_without_run_entry(tmp_path):
    from repro.qr import persist

    a = np.random.default_rng(4).standard_normal((M, N))
    ck = tmp_path / "ck.npz"
    qr_factor(a, nb=NB, ib=IB, checkpoint=CheckpointStore(ck, every_ops=4))
    arrays = persist._read_archive(ck, persist._FMT_CHECKPOINT)
    del arrays["__run__"], arrays["__digest__"]
    arrays["__digest__"] = persist._archive_digest(arrays)
    persist._atomic_write_npz(str(ck), arrays, compressed=False)
    resumed = resume_factorization(ck)
    assert resumed.parent_run_id is None


# -- session health ----------------------------------------------------------


def test_session_health_snapshot():
    a = np.random.default_rng(5).standard_normal((M, N))
    with QRSession(n_procs=2) as sess:
        before = sess.health()
        assert before["last_run_id"] is None and not before["closed"]
        f = sess.factor(a, nb=NB, ib=IB)
        h = sess.health()
    assert h["last_run_id"] == f.run_id
    assert h["pool"]["size"] == 2 and h["pool"]["alive"] == 2
    assert all(w["alive"] for w in h["pool"]["workers"])
    assert h["plan_cache"] == {"hits": 0, "misses": 1}
    assert sess.health()["closed"]


def test_session_health_without_pool():
    with QRSession(n_procs=1) as sess:
        assert sess.health()["pool"] is None


def test_session_run_propagates_one_run_id(tmp_path):
    a = np.random.default_rng(6).standard_normal((M, N))
    with QRSession(n_procs=2) as sess:
        trace = tmp_path / "sess.json"
        events = tmp_path / "sess.jsonl"
        f = sess.factor(a, nb=NB, ib=IB, trace=trace, events=events)
        doc = json.loads(trace.read_text())
        validate_run_telemetry(doc, events=events)
        assert doc["otherData"]["run_id"] == f.run_id
        evs = read_events(events)
        assert {e["run"] for e in evs} == {f.run_id}
        assert any(e["type"] == "pool.lease" for e in evs)
        assert any(e["type"] == "pool.spawn" for e in evs)


# -- pulsar ------------------------------------------------------------------


def test_pulsar_spans_events_and_packets_share_the_run(tmp_path):
    a = np.random.default_rng(7).standard_normal((M, N))
    f, doc, events = _factor(
        a, tmp_path, "pulsar", backend="pulsar", n_nodes=2, workers_per_node=2
    )
    validate_run_telemetry(doc, events=events)
    assert doc["otherData"]["run_id"] == f.run_id
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    fire_ids = {e["args"]["span"] for e in spans if e["name"] == "fire"}
    kernels = [e for e in spans if e["name"] in ("GEQRT", "TSQRT", "TTQRT")]
    assert kernels
    assert all(e["args"].get("parent") in fire_ids for e in kernels)


def test_pulsar_packet_carries_run_id():
    from repro.pulsar.packet import Packet

    pkt = Packet(data=np.zeros(2))
    assert pkt.run_id is None
    pkt2 = Packet(data=np.zeros(2), run_id="r-42")
    assert pkt2.run_id == "r-42"


def test_pulsar_lossy_fabric_emits_retry_events(tmp_path):
    a = np.random.default_rng(8).standard_normal((M, N))
    plan = FaultPlan(drop_rate=0.3, seed=5)
    f, doc, events = _factor(
        a, tmp_path, "lossy", backend="pulsar", n_nodes=2, workers_per_node=1,
        fault_plan=plan,
    )
    validate_run_telemetry(doc, events=events)
    assert f.stats.retransmits > 0
    assert any(e["type"] == "retry.resend" for e in events)


#: Event types whose counter goes by another name; every other event type
#: with a counter shares its name.
_COUNTER_OF = {
    "pool.spawn": "pool.spawns",
    "pool.lease": "pool.leases",
    "worker.respawn": "worker.restart",
    "ckpt.write": "ckpt.writes",
}
#: The data field an event carries when it stands for several occurrences
#: (a worker's SDC delta, the ops re-dispatched after a death).  Every other
#: event is one occurrence: ``retry.resend``'s ``n`` is the attempt number.
_COUNT_FIELD = {
    "sdc.injected": "n", "sdc.detected": "n", "sdc.recovered": "n",
    "retry.redispatch": "n_ops",
}


def test_counters_and_the_event_log_agree(tmp_path):
    """Each counter equals the occurrences its events stand for."""
    runs = {
        "faulty": dict(
            a=np.random.default_rng(0).standard_normal((320, 64)), nb=16, ib=8,
            tree="hier", h=2, backend="parallel", n_procs=2,
            fault_plan=FaultPlan(crash_workers={1: 1}, flip_rate=0.3, seed=7),
        ),
        "lossy": dict(
            a=np.random.default_rng(8).standard_normal((M, N)), nb=NB, ib=IB,
            backend="pulsar", n_nodes=2, workers_per_node=1,
            fault_plan=FaultPlan(drop_rate=0.3, seed=5),
        ),
    }
    counted = {
        etype: _COUNTER_OF.get(etype, etype) for etype in EVENT_TYPES
        if _COUNTER_OF.get(etype, etype) in canonical_counter_keys()
    }
    assert set(_COUNTER_OF) <= set(counted)
    for tag, kw in runs.items():
        path = tmp_path / f"{tag}.jsonl"
        f = qr_factor(kw.pop("a"), **kw, events=path)
        tally = {etype: 0 for etype in counted}
        for e in read_events(path):
            if e["type"] in counted:
                tally[e["type"]] += e.get(_COUNT_FIELD.get(e["type"]), 1)
        assert any(tally.values()), tag
        for etype, key in counted.items():
            assert f.counters.get(key, 0) == tally[etype], (tag, etype)


# -- watchdog ----------------------------------------------------------------


def test_watchdog_emits_stall_event():
    with recording() as rec:
        wd = Watchdog(0.01, what="test-loop")
        wd.note_progress(1)
        time.sleep(0.05)
        with pytest.raises(WatchdogTimeout):
            wd.check()
        stalls = [e for e in rec.events.snapshot() if e.type == "watchdog.stall"]
    assert stalls and stalls[0].data["what"] == "test-loop"
    assert stalls[0].data["stalled_s"] >= 0.01


# -- causal_edges unit behaviour ---------------------------------------------


def test_causal_edges_detects_duplicates_and_orphans():
    ok = causal_edges([
        Span("a", "c", 0.0, 1.0, span_id=1),
        Span("b", "c", 0.0, 1.0, span_id=2, parent_id=1),
        Span("legacy", "c", 0.0, 1.0),  # id 0: skipped
    ])
    assert ok == {1: None, 2: 1}
    with pytest.raises(TraceError, match="duplicate span id"):
        causal_edges([Span("a", "c", 0, 1, span_id=1),
                      Span("b", "c", 0, 1, span_id=1)])
    with pytest.raises(TraceError, match="absent"):
        causal_edges([Span("a", "c", 0, 1, span_id=2, parent_id=7)])


# -- monitor CLI -------------------------------------------------------------


@pytest.fixture()
def metrics_run(tmp_path):
    a = np.random.default_rng(9).standard_normal((M, N))
    metrics = tmp_path / "metrics.jsonl"
    events = tmp_path / "events.jsonl"
    f = qr_factor(a, nb=NB, ib=IB, metrics=metrics, events=events)
    return f, metrics, events


def test_monitor_summary_cli(metrics_run, capsys):
    _, metrics, _ = metrics_run
    assert obs_monitor.main([str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "samples over" in out and "ops.total" in out


def test_monitor_summary_missing_file(tmp_path, capsys):
    assert obs_monitor.main([str(tmp_path / "nope.jsonl")]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_monitor_follow_tails_until_timeout(metrics_run, capsys):
    _, metrics, _ = metrics_run
    assert obs_monitor.main([str(metrics), "--follow", "--timeout", "0.2"]) == 0
    out = capsys.readouterr().out
    assert out.count("t=") >= 1


def test_monitor_follow_starts_over_when_a_run_rewrites_the_file(
    tmp_path, monkeypatch, capsys
):
    path = tmp_path / "metrics.jsonl"

    def write(mode, ts, **gauges):
        with open(path, mode, encoding="utf-8") as f:
            for t in ts:
                f.write(json.dumps({"t": t, "gauges": gauges}) + "\n")

    write("w", [0.0, 0.1, 0.2, 0.3, 0.4])
    # Each poll's sleep moves the file on: a new run rewrites it (shorter,
    # with longer lines), appends past the old offset, then the user quits.
    steps = iter([
        lambda: write("w", [0.0], **{"parallel.workers_alive": 2}),
        lambda: write("a", [0.1, 0.2, 0.3, 0.4, 0.5], **{"parallel.workers_alive": 2}),
    ])

    def sleep(_):
        step = next(steps, None)
        if step is None:
            raise KeyboardInterrupt
        step()

    monkeypatch.setattr(obs_monitor.time, "sleep", sleep)
    assert obs_monitor.main([str(path), "--follow"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11
    assert lines[5].startswith("t=0.000s") and "parallel.workers_alive=2" in lines[5]


def test_monitor_dashboard_cli(metrics_run, capsys):
    f, metrics, events = metrics_run
    rc = obs_monitor.main(
        [str(metrics), "--dashboard", "--events", str(events)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert f"run {f.run_id}" in out
    assert "run.end" in out  # event tail rendered


def test_monitor_dashboard_follow_exits_on_timeout(metrics_run):
    _, metrics, events = metrics_run
    rc = obs_monitor.main([
        str(metrics), "--dashboard", "--events", str(events),
        "--follow", "--timeout", "0.2",
    ])
    assert rc == 0


def test_monitor_survives_a_torn_last_line(metrics_run, capsys):
    f, metrics, events = metrics_run
    _tear(metrics)
    _tear(events)
    assert obs_monitor.main([str(metrics)]) == 0
    assert "samples over" in capsys.readouterr().out
    assert obs_monitor.main([str(metrics), "--dashboard", "--events", str(events)]) == 0
    out = capsys.readouterr().out
    assert f"run {f.run_id}" in out and "run.end" in out


def test_monitor_reads_a_parallel_run_in_all_four_modes(tmp_path, capsys):
    """The sampler runs beside a pool: a parallel run's metrics and events
    read in summary, dashboard, follow and dashboard-follow mode."""
    a = np.random.default_rng(0).standard_normal((320, 64))
    metrics, events = str(tmp_path / "metrics.jsonl"), str(tmp_path / "events.jsonl")
    f = qr_factor(a, nb=16, ib=8, tree="hier", h=2, backend="parallel", n_procs=2,
                  metrics=metrics, events=events)
    assert f.stats.mode == "parallel"
    assert obs_monitor.main([metrics]) == 0
    assert "samples over" in capsys.readouterr().out
    assert obs_monitor.main([metrics, "--dashboard", "--events", events]) == 0
    assert f"run {f.run_id}" in capsys.readouterr().out
    assert obs_monitor.main([metrics, "--follow", "--timeout", "0.2"]) == 0
    assert "t=" in capsys.readouterr().out
    assert obs_monitor.main([metrics, "--dashboard", "--events", events,
                             "--follow", "--timeout", "0.2"]) == 0


def test_monitor_events_requires_dashboard(metrics_run, capsys):
    _, metrics, events = metrics_run
    with pytest.raises(SystemExit):
        obs_monitor.main([str(metrics), "--events", str(events)])


def test_render_dashboard_is_pure():
    samples = [
        {"t": 0.0, "run": "r-9", "counters": {"ops.total": 0.0},
         "gauges": {"parallel.workers_alive": 2}, "rates": {}},
        {"t": 1.0, "run": "r-9", "counters": {"ops.total": 17.0},
         "gauges": {"parallel.workers_alive": 2},
         "rates": {"ops.total/s": 17.0}},
    ]
    events = [{"t": 0.5, "type": "worker.dead", "run": "r-9", "worker": 1,
               "exit_code": 9}]
    out = obs_monitor.render_dashboard(samples, events)
    assert "run r-9" in out and "parallel.workers_alive" in out
    assert "worker.dead" in out and "exit_code=9" in out
    assert obs_monitor.render_dashboard([]) == "no samples yet"


# -- sampler robustness ------------------------------------------------------


def test_sampler_samples_carry_run_id(tmp_path):
    path = tmp_path / "m.jsonl"
    with recording() as rec:
        with MetricsSampler(rec, path, interval=10.0):
            rec.count("ops.total", 5)
    samples = [json.loads(line) for line in path.read_text().splitlines()]
    assert all(s["run"] == rec.run_id for s in samples)


def test_sampler_flushes_on_abnormal_exit(tmp_path):
    """An exception that skips sampler.stop() still yields a closed,
    final-sample-bearing metrics file (the atexit safety net)."""
    path = tmp_path / "m.jsonl"
    code = (
        "import sys; sys.path.insert(0, {src!r})\n"
        "from repro.obs import recording, MetricsSampler\n"
        "rec = recording().__enter__()\n"
        "sampler = MetricsSampler(rec, {path!r}, interval=60.0).start()\n"
        "rec.count('ops.total', 7)\n"
        "raise SystemExit(3)\n"
    ).format(src="src", path=str(path))
    proc = subprocess.run([sys.executable, "-c", code], cwd=str(
        __import__("pathlib").Path(__file__).resolve().parent.parent
    ))
    assert proc.returncode == 3
    samples = [json.loads(line) for line in path.read_text().splitlines()]
    # one sample at start() plus the atexit-driven final one
    assert len(samples) >= 2
    assert samples[-1]["counters"]["ops.total"] == 7.0


def test_sampler_thread_survives_a_raising_gauge(tmp_path):
    path = tmp_path / "m.jsonl"
    with recording() as rec:
        rec.register_gauge("bad.gauge", lambda: 1 / 0)
        with MetricsSampler(rec, path, interval=0.01) as sampler:
            time.sleep(0.05)
            rec.unregister_gauge("bad.gauge")
            rec.register_gauge("good.gauge", lambda: 4.0)
            time.sleep(0.05)
        assert sampler.n_samples >= 2  # thread kept running after the error
    samples = [json.loads(line) for line in path.read_text().splitlines()]
    assert samples[-1]["gauges"].get("good.gauge") == 4.0


def test_gauge_table_lists_exactly_the_registered_gauges(tmp_path, small_matrix, monkeypatch):
    """The sampler's vocabulary table names every gauge a backend registers
    during a sampled run, and nothing else."""
    registered: set[str] = set()
    register = Recorder.register_gauge

    def spy(self, name, fn):
        registered.add(name)
        register(self, name, fn)

    monkeypatch.setattr(Recorder, "register_gauge", spy)
    geometry = dict(nb=8, ib=4, tree="hier", h=3)
    for i, kw in enumerate((
        dict(backend="serial"), dict(backend="batched"),
        dict(backend="parallel", n_procs=2),
        dict(backend="pulsar", n_nodes=2, workers_per_node=1),
    )):
        qr_factor(small_matrix, **geometry, **kw, metrics=tmp_path / f"m{i}.jsonl")
    table = set(re.findall(r"^``([a-z_.]+)``", obs_sampler.__doc__, re.MULTILINE))
    assert table == registered


# -- registry primitives -----------------------------------------------------


def test_build_record_and_find_prefix(tmp_path):
    reg = RunRegistry(tmp_path / "r.jsonl")
    rec = build_record(
        run_id="20260101T000000-1.0-aaaa", backend="serial",
        geometry={"m": M, "n": N, "nb": NB, "ib": IB}, wall_s=0.25,
        counters={"ops.total": 17}, status="ok",
    )
    reg.append(rec)
    reg.append({**rec, "run": "20260101T000000-1.1-bbbb"})
    assert reg.find("20260101T000000-1.0")["run"].endswith("aaaa")
    with pytest.raises(ConfigurationError, match="ambiguous"):
        reg.find("20260101")
    with pytest.raises(ConfigurationError, match="no run matching"):
        reg.find("zzz")
    with pytest.raises(ConfigurationError, match="'run' id"):
        reg.append({"backend": "serial"})
    # Lines written when records also kept per-event totals still load and
    # diff; the old section is ignored.
    reg.append({**rec, "run": "legacy", "events": {"run.start": 1}})
    assert "events" not in rec and reg.find("legacy")["events"] == {"run.start": 1}
    assert diff_records(rec, reg.find("legacy"))["counters"] == {}
    assert obs_registry.main(["list", str(reg.path)]) == 0
