"""Flight recorder: ring bounds, triggers, incident I/O, replay identity."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.architecture import build_lightweight_cnn
from repro.core.detector import DetectorConfig, FallDetector
from repro.faults import builtin_scenarios
from repro.obs import (
    FlightConfig,
    FlightRecorder,
    load_incident,
    render_replay_report,
    replay_incident,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeConfig, ServeEngine
from tests.detector_oracle import OracleDetector


class _ContentModel:
    """Deterministic stand-in: probability derived from window content."""

    def predict(self, x):
        x = np.asarray(x)
        if x.shape[0] == 0:
            return np.empty((0, 1))
        return np.abs(np.tanh(x.sum(axis=(1, 2), keepdims=True)))[:, :, 0]


def _detector(model, config=None, recorder=None):
    return FallDetector(
        model, config or DetectorConfig(),
        registry=MetricsRegistry(), metric_prefix="t", recorder=recorder,
    )


def _quiet_stream(n, seed=0, fs=100.0):
    rng = np.random.default_rng(seed)
    accel = rng.normal(0.0, 0.02, size=(n, 3))
    accel[:, 2] += 1.0
    gyro = rng.normal(0.0, 2.0, size=(n, 3))
    t = np.arange(n) / fs
    return accel, gyro, t


# ----------------------------------------------------------------------
# recorder mechanics
# ----------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError):
        FlightConfig(capacity=0)
    with pytest.raises(ValueError):
        FlightConfig(post_trigger_samples=-1)
    with pytest.raises(ValueError):
        FlightConfig(max_incidents=0)
    with pytest.raises(ValueError):
        FlightConfig(triggers=("detection", "nonsense"))


def test_ring_is_bounded():
    rec = FlightRecorder(FlightConfig(capacity=16, triggers=()))
    det = _detector(None, recorder=rec)   # fallback-only: cheap samples
    accel, gyro, t = _quiet_stream(200)
    for i in range(200):
        det.push(accel[i], gyro[i], t[i])
    events = rec.events()
    assert len(events) == 16
    # Oldest events were evicted: the ring holds the most recent samples.
    sample_idx = [e["i"] for e in events if e["kind"] == "sample"]
    assert min(sample_idx) > 100


def test_trigger_freeze_and_post_context(tmp_path):
    rec = FlightRecorder(
        FlightConfig(capacity=512, post_trigger_samples=10,
                     out_dir=str(tmp_path)),
        stream_id="unit",
    )
    det = _detector(None, recorder=rec)
    accel, gyro, t = _quiet_stream(120)
    for i in range(60):
        det.push(accel[i], gyro[i], t[i])
    assert not rec.pending and not rec.incidents
    rec.mark("operator")
    assert rec.pending
    for i in range(60, 120):
        det.push(accel[i], gyro[i], t[i])
    assert not rec.pending
    assert len(rec.incidents) == 1
    incident = rec.incidents[0]
    assert incident.meta["trigger"] == "mark"
    assert incident.meta["stream_id"] == "unit"
    assert incident.meta["config_sha256"]
    assert incident.meta["metrics"]["health"]["health"] == "fault"  # no model
    # Exactly 10 samples of post-trigger context follow the mark event.
    kinds = [e["kind"] for e in incident.events]
    after_mark = kinds[kinds.index("mark") + 1:]
    assert after_mark.count("sample") == 10
    assert incident.path and incident.path.endswith("-mark.jsonl")


def test_flush_and_max_incidents(tmp_path):
    rec = FlightRecorder(
        FlightConfig(capacity=64, post_trigger_samples=1000,
                     out_dir=str(tmp_path), max_incidents=2),
        stream_id="cap",
    )
    det = _detector(None, recorder=rec)
    accel, gyro, t = _quiet_stream(30)
    for i in range(30):
        det.push(accel[i], gyro[i], t[i])
    rec.mark()
    assert rec.pending                    # countdown longer than the data
    assert rec.flush() is not None        # force-freeze
    assert not rec.pending
    rec.mark()
    rec.flush()
    assert len(rec.incidents) == 2
    rec.mark()                            # over the cap: suppressed
    assert rec.suppressed_triggers == 1
    assert not rec.pending
    assert len(rec.incident_paths) == 2


def test_load_incident_validation(tmp_path):
    good = tmp_path / "ok.jsonl"
    rec = FlightRecorder(FlightConfig(out_dir=str(tmp_path)), stream_id="v")
    det = _detector(None, recorder=rec)
    accel, gyro, t = _quiet_stream(10)
    for i in range(10):
        det.push(accel[i], gyro[i], t[i])
    rec.mark()
    rec.flush()
    incident = load_incident(rec.incident_paths[0])
    assert incident.meta["trigger"] == "mark"
    assert incident.samples() and incident.stream_id == "v"

    (tmp_path / "empty.jsonl").write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_incident(tmp_path / "empty.jsonl")
    good.write_text('{"format": "something-else", "version": 1}\n')
    with pytest.raises(ValueError, match="not a repro-incident"):
        load_incident(good)
    good.write_text('{"format": "repro-incident", "version": 99}\n')
    with pytest.raises(ValueError, match="version"):
        load_incident(good)
    # Tamper detection: header declares more events than the file holds.
    lines = open(rec.incident_paths[0], encoding="utf-8").read().splitlines()
    truncated = tmp_path / "trunc.jsonl"
    truncated.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(ValueError, match="declares"):
        load_incident(truncated)


def test_reset_clears_ring_and_freezes_pending():
    rec = FlightRecorder(FlightConfig(capacity=512, post_trigger_samples=50))
    det = _detector(None, recorder=rec)
    accel, gyro, t = _quiet_stream(40)
    for i in range(40):
        det.push(accel[i], gyro[i], t[i])
    rec.mark()
    det.reset()
    # The pending capture froze at the reset boundary instead of leaking
    # into the next trial, and the ring restarted from the reset event.
    assert len(rec.incidents) == 1
    assert rec.events()[0]["kind"] == "reset"


# ----------------------------------------------------------------------
# deterministic replay
# ----------------------------------------------------------------------
def test_replay_identity_cnn_recorded_and_live(tmp_path):
    config = DetectorConfig()
    model = _ContentModel()
    rec = FlightRecorder(
        FlightConfig(capacity=4096, post_trigger_samples=30,
                     out_dir=str(tmp_path)),
        stream_id="cnn",
    )
    det = _detector(model, config, recorder=rec)
    det.reset()
    accel, gyro, t = _quiet_stream(300, seed=3)
    accel[150:155] = np.nan               # NaN burst: repair + degraded
    for i in range(300):
        det.push(accel[i], gyro[i], t[i])
    rec.flush()
    assert rec.incident_paths
    path = rec.incident_paths[-1]

    result = replay_incident(path, model="recorded")
    assert result["identical"], result
    assert result["windows"] > 0
    # Live-model replay recomputes every probability and still matches
    # bit for bit (same process, deterministic forward).
    live = replay_incident(path, model=model)
    assert live["identical"], live
    assert live["model"] == "live"
    report = render_replay_report(result)
    assert "REPLAY IDENTICAL" in report


def test_replay_fallback_only_incident():
    rec = FlightRecorder(FlightConfig(capacity=2048,
                                      post_trigger_samples=20))
    det = _detector(None, recorder=rec)
    det.reset()
    accel, gyro, t = _quiet_stream(260, seed=5)
    accel[120:150, 2] -= 0.9              # free-fall dip: fallback fires
    accel[150:155, 2] += 3.0
    for i in range(260):
        det.push(accel[i], gyro[i], t[i])
    rec.flush()
    incident = rec.incidents[-1]
    assert incident.meta["has_model"] is False
    assert any(e["source"] == "fallback" for e in incident.decisions())
    result = replay_incident(incident, model="recorded")
    assert result["identical"], result


def test_replay_detects_tampered_probability(tmp_path):
    model = _ContentModel()
    rec = FlightRecorder(
        FlightConfig(capacity=4096, out_dir=str(tmp_path)), stream_id="tam")
    det = _detector(model, recorder=rec)
    det.reset()
    accel, gyro, t = _quiet_stream(200, seed=9)
    for i in range(200):
        det.push(accel[i], gyro[i], t[i])
    rec.flush()
    path = rec.incident_paths[-1]
    # Corrupt one recorded raw sample; the live-model replay must notice
    # (window hashes and probabilities diverge downstream).
    lines = open(path, encoding="utf-8").read().splitlines()
    out = []
    poisoned = False
    for line in lines:
        event = json.loads(line)
        if not poisoned and event.get("kind") == "sample":
            event["accel"][2] += 0.5
            poisoned = True
        out.append(json.dumps(event))
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(out) + "\n")
    result = replay_incident(tampered, model=model)
    assert not result["identical"]
    assert result["window_hash_diffs"] > 0 or result["probability_diffs"] > 0
    assert "DIVERGED" in render_replay_report(result)


def test_replay_injects_recorded_latency():
    """Deadline outcomes replay from the record, not the replay machine."""
    class _Slow:
        def __init__(self):
            self.calls = 0

        def predict(self, x):
            return np.full((np.asarray(x).shape[0], 1), 0.1)

    rec = FlightRecorder(FlightConfig(capacity=4096,
                                      triggers=("deadline",)))
    config = DetectorConfig(deadline_ms=1e-9)   # everything violates
    det = _detector(_Slow(), config, recorder=rec)
    det.reset()
    accel, gyro, t = _quiet_stream(200, seed=2)
    for i in range(200):
        det.push(accel[i], gyro[i], t[i])
    rec.flush()
    incident = rec.incidents[-1]
    assert any(e["violation"] for e in incident.windows())
    result = replay_incident(incident, model="recorded")
    assert result["identical"], result
    assert result["deadline_diffs"] == 0


# ----------------------------------------------------------------------
# property test: every built-in fault scenario replays identically
# ----------------------------------------------------------------------
def _scenario_stream(name, n=500):
    """A quiet stream with a fall-like dip, under builtin scenario ``name``."""
    scenario = builtin_scenarios(seed=7)[name]
    accel, gyro, t = _quiet_stream(n, seed=11)
    accel[200:230, 2] -= 0.85             # a fall-like dip mid-stream
    accel[230:240, 2] += 3.5
    gyro[200:230] += 80.0
    return scenario.apply_arrays(t, accel, gyro)


@pytest.mark.parametrize("name", sorted(builtin_scenarios(seed=7)))
def test_replay_identity_under_every_builtin_scenario(name):
    config = DetectorConfig()
    model = build_lightweight_cnn(config.window_samples)
    rec = FlightRecorder(FlightConfig(capacity=8192,
                                      post_trigger_samples=40))
    det = _detector(model, config, recorder=rec)
    t, accel, gyro = _scenario_stream(name)

    det.reset()
    for i in range(len(t)):
        det.push(accel[i], gyro[i], float(t[i]))
    recorded_transitions = det.health_transitions
    rec.flush()
    assert rec.incidents, f"{name}: no incident captured"
    incident = rec.incidents[-1]

    result = replay_incident(incident, model="recorded")
    assert result["identical"], (name, result)
    assert result["decision_diffs"] == 0
    assert result["health_transition_diffs"] == 0
    # The recorded health transitions really were exercised (sanity: the
    # property is not vacuous for scenarios that degrade the stream).
    if name in ("nan_burst", "gyro_dead"):
        assert recorded_transitions


# ----------------------------------------------------------------------
# incidents recorded by the engine's block pushes, and by the per-sample
# oracle (the inline path incidents were recorded with before push
# became a one-row push_block), replay identically
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(builtin_scenarios(seed=7)))
def test_engine_block_incidents_replay_identically(name):
    config = DetectorConfig()
    engine = ServeEngine(
        build_lightweight_cnn(config.window_samples),
        ServeConfig(detector=config,
                    flight=FlightConfig(capacity=8192,
                                        post_trigger_samples=40)),
        registry=MetricsRegistry(),
    )
    t, accel, gyro = _scenario_stream(name)
    for i in range(len(t)):
        engine.submit("s", accel[i], gyro[i], float(t[i]))
        if (i + 1) % 20 == 0:
            engine.step()
    engine.step()
    recorder = engine.session("s").recorder
    recorder.flush()
    assert recorder.incidents, f"{name}: no incident captured"
    for incident in recorder.incidents:
        result = replay_incident(incident, model="recorded")
        assert result["identical"], (name, result)
        assert result["windows"] > 0


@pytest.mark.parametrize("name", sorted(builtin_scenarios(seed=7)))
def test_oracle_recorded_incident_replays_identically(name):
    config = DetectorConfig()
    model = build_lightweight_cnn(config.window_samples)
    rec = FlightRecorder(FlightConfig(capacity=8192,
                                      post_trigger_samples=40))
    det = OracleDetector(model, config, registry=MetricsRegistry(),
                         metric_prefix="t", recorder=rec)
    t, accel, gyro = _scenario_stream(name)
    det.reset()
    for i in range(len(t)):
        det.push(accel[i], gyro[i], float(t[i]))
    rec.flush()
    assert rec.incidents, f"{name}: no incident captured"
    for incident in rec.incidents:
        result = replay_incident(incident, model=model)
        assert result["identical"], (name, result)


def test_directory_incident_cap_prunes_oldest(tmp_path):
    """Many recorders sharing one out_dir: max_dir_incidents bounds the
    directory, oldest files pruned first, newest always kept."""
    import os
    import time

    for i in range(5):
        rec = FlightRecorder(
            FlightConfig(post_trigger_samples=0, out_dir=str(tmp_path),
                         max_dir_incidents=3),
            stream_id=f"s{i:03d}",
        )
        rec.mark()                         # freezes + writes immediately
        # Distinct mtimes so "oldest" is well defined on coarse clocks.
        past = time.time() - (5 - i)
        os.utime(rec.incident_paths[0], (past, past))
    names = sorted(p.name for p in tmp_path.glob("incident-*.jsonl"))
    assert len(names) == 3
    assert [n.split("-")[1] for n in names] == ["s002", "s003", "s004"]
    # The capping recorder never pruned its own just-written file.
    assert any("s004" in n for n in names)

    with pytest.raises(ValueError, match="max_dir_incidents"):
        FlightConfig(max_dir_incidents=0)
