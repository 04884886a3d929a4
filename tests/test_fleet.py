"""Sharded fleet front: routing, backpressure, supervision, failover."""

import time
import zlib

import numpy as np
import pytest

from repro import obs
from repro.core.detector import DetectorConfig
from repro.experiments import MagnitudeProbeModel
from repro.fleet import FleetConfig, FleetFront
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_collector
from repro.serve.engine import ServeConfig, ServeEngine

DET = DetectorConfig()
HOP = DET.hop_samples


def _serve_config():
    return ServeConfig(detector=DET, per_stream_metrics=False)


def _streams(n_streams=4, n_samples=400, pulse_t=2.5, seed=0):
    """Tiny deterministic population with one high-g pulse per stream."""
    rng = np.random.default_rng(seed)
    streams = {}
    for i in range(n_streams):
        accel = rng.normal(0, 0.02, (n_samples, 3)) + [0.0, 0.0, 1.0]
        t = np.arange(n_samples) / DET.fs
        accel[:, 2] += 3.0 * np.exp(-0.5 * ((t - pulse_t) / 0.1) ** 2)
        gyro = rng.normal(0, 1.0, (n_samples, 3))
        streams[f"s{i:03d}"] = (accel, gyro, t)
    return streams


def _feed(front_or_engine, streams, pump, *, kill_at=None, on_kill=None):
    n = len(next(iter(streams.values()))[2])
    out = {sid: [] for sid in streams}
    for i in range(n):
        for sid, (accel, gyro, t) in streams.items():
            front_or_engine.submit(sid, accel[i], gyro[i], t[i])
        if kill_at is not None and (i + 1) / DET.fs >= kill_at:
            on_kill()
            kill_at = None
        if (i + 1) % HOP == 0:
            for sid, det in pump():
                out[sid].append(det)
    return out


@pytest.fixture
def front():
    registry = MetricsRegistry()
    front = FleetFront(
        MagnitudeProbeModel(),
        FleetConfig(n_shards=2, serve=_serve_config(),
                    worker_timeout_s=5.0, restart_initial_s=0.02),
        registry=registry,
    )
    yield front
    front.close()


class _SpanningModel(MagnitudeProbeModel):
    """Opens a parent span with a child span around every forward."""

    def predict(self, x):
        with obs.span("test/predict", windows=len(x)):
            with obs.span("test/predict/inner"):
                return super().predict(x)


class TestTracing:
    def test_worker_spans_are_adopted_with_parent_links(self):
        obs.enable_tracing()
        try:
            collector = get_collector()
            collector.clear()
            front = FleetFront(
                _SpanningModel(),
                FleetConfig(n_shards=2, serve=_serve_config(),
                            worker_timeout_s=5.0),
                registry=MetricsRegistry(),
            )
            try:
                _feed(front, _streams(n_streams=4, n_samples=120),
                      front.pump)
            finally:
                front.close()
            records = collector.records()
            outer = {r.span_id: r for r in records
                     if r.name == "test/predict"}
            inner = [r for r in records if r.name == "test/predict/inner"]
            assert outer and len(inner) == len(outer)
            assert {r.parent_id for r in inner} == set(outer)
            span_ids = [r.span_id for r in records]
            assert len(span_ids) == len(set(span_ids))
        finally:
            obs.disable_tracing()
            get_collector().clear()


class TestRouting:
    def test_crc32_assignment_is_deterministic(self, front):
        for sid in ("a", "b", "walker-7", "s042"):
            expected = zlib.crc32(sid.encode()) % 2
            assert front.shard_for(sid) == expected
            assert front.shard_for(sid) == expected  # stable on re-ask

    def test_streams_spread_over_shards(self, front):
        homes = {front.shard_for(f"s{i:03d}") for i in range(32)}
        assert homes == {0, 1}


class TestBackpressure:
    def test_overflow_sheds_oldest_and_never_raises(self):
        registry = MetricsRegistry()
        front = FleetFront(
            MagnitudeProbeModel(),
            FleetConfig(n_shards=1, serve=_serve_config(),
                        queue_capacity=10),
            registry=registry,
        )
        try:
            for i in range(25):
                accepted = front.submit("only", (0, 0, 1), (0, 0, 0),
                                        t=i / DET.fs)
                assert accepted == (i < 10)
            shard = front._shards[0]
            assert len(shard.pending) == 10
            # Oldest-first: the surviving samples are the 15 freshest.
            surviving_t = [s[3] for s in shard.pending]
            assert surviving_t == [i / DET.fs for i in range(15, 25)]
            assert front.shed_samples == 15
            front.pump()
            assert registry.counter("fleet/shed_samples").value == 15
        finally:
            front.close()

    def test_no_surviving_shard_drops_instead_of_raising(self):
        # max_restarts=1 with crashes recurring before any healthy round
        # (a healthy round resets the backoff by design), so the shard
        # fails permanently and later submits drop instead of raising.
        registry = MetricsRegistry()
        front = FleetFront(
            MagnitudeProbeModel(),
            FleetConfig(n_shards=1, serve=_serve_config(),
                        worker_timeout_s=0.5, restart_initial_s=0.01,
                        max_restarts=1),
            registry=registry,
        )
        try:
            front.kill_worker(0)
            front._shards[0].process.join(timeout=5.0)
            assert front.heartbeat() == [0]     # crash detected
            deadline = time.monotonic() + 20.0
            while front.worker_restarts == 0 and time.monotonic() < deadline:
                front._restart_due(time.monotonic())
                time.sleep(0.005)
            assert front.worker_restarts == 1   # the only allowed restart
            front.kill_worker(0)
            front._shards[0].process.join(timeout=5.0)
            assert front.heartbeat() == [0]     # second crash: exhausted
            assert front._shards[0].failed
            assert front.worker_failures == 1
            assert front.submit("x", (0, 0, 1), (0, 0, 0), t=0.1) is False
            assert front.dropped_samples >= 1
        finally:
            front.close()


class TestBitIdentity:
    def test_fleet_matches_single_engine(self):
        streams = _streams(n_streams=5, n_samples=400)
        single_engine = ServeEngine(MagnitudeProbeModel(), _serve_config(),
                                    registry=MetricsRegistry())
        single = _feed(single_engine, streams,
                       lambda: single_engine.step())
        for sid, det in single_engine.step():
            single[sid].append(det)

        front = FleetFront(
            MagnitudeProbeModel(),
            FleetConfig(n_shards=3, serve=_serve_config()),
            registry=MetricsRegistry(),
        )
        try:
            fleet = _feed(front, streams, front.pump)
            for sid, det in front.drain():
                fleet[sid].append(det)
        finally:
            front.close()
        assert all(len(v) > 0 for v in single.values())
        assert fleet == single  # frozen float dataclasses: bitwise equality


class TestFailover:
    def test_worker_kill_loses_no_streams_and_resumes(self):
        streams = _streams(n_streams=6, n_samples=500, pulse_t=3.5)
        registry = MetricsRegistry()
        front = FleetFront(
            MagnitudeProbeModel(),
            # worker_timeout_s is deliberately huge: on a loaded 1-core
            # box a legitimate round can take seconds, and a spurious
            # hang-timeout would kill shard 1 before the explicit SIGKILL
            # does, breaking the crashes==1 accounting. Crash detection
            # goes through the dead-process short-circuit, not the
            # timeout, so the large value costs nothing here.
            FleetConfig(n_shards=2, serve=_serve_config(),
                        worker_timeout_s=120.0, restart_initial_s=0.02),
            registry=registry,
        )
        try:
            out = _feed(front, streams, front.pump, kill_at=2.0,
                        on_kill=lambda: front.kill_worker(1))
            for sid, det in front.drain():
                out[sid].append(det)
            report = front.close()
        finally:
            front.close()
        assert report["worker_crashes"] == 1
        assert report["worker_restarts"] >= 1
        assert report["rehomed_streams"] >= 1
        assert report["worker_failures"] == 0
        # Zero streams lost: every session reports after the kill.
        assert set(front.stream_report()) == set(streams)
        # Detections resumed: every stream caught the post-kill pulse.
        for sid, dets in out.items():
            assert any(d.time_s >= 3.0 for d in dets), sid
        assert registry.counter("fleet/worker_restarts").value >= 1

    def test_rehomed_detector_reports_interruption_then_recovers(self):
        # The unit-level core of degraded-then-healthy: a rebuilt session
        # seeded with note_interruption starts degraded and recovers
        # after the configured clean streak, like any mid-stream fault.
        from repro.core.detector import FallDetector

        rng = np.random.default_rng(3)
        detector = FallDetector(MagnitudeProbeModel(), DET,
                                registry=MetricsRegistry())
        detector.note_interruption(last_t=1.0)
        assert detector.health == "degraded"
        for i in range(DET.recovery_samples + 2):
            # Plausible idle telemetry: gravity plus noise (exact zeros
            # on the gyro would trip the gyro-dead standing fault).
            detector.push(
                np.array([0.0, 0.0, 1.0]) + rng.normal(0, 0.01, 3),
                rng.normal(0, 1.0, 3), t=1.5 + i / DET.fs)
        assert detector.health == "healthy"

    def test_hang_detection_times_out_and_restarts(self):
        registry = MetricsRegistry()
        front = FleetFront(
            MagnitudeProbeModel(),
            FleetConfig(n_shards=1, serve=_serve_config(),
                        worker_timeout_s=0.3, restart_initial_s=0.02),
            registry=registry,
        )
        try:
            front.submit("h0", (0, 0, 1), (0, 0, 0), t=0.0)
            assert front.hang_worker(0, seconds=30.0)
            front.pump()                       # round times out
            assert front.worker_timeouts == 1
            assert front.redelivered_samples == 1
            deadline = time.monotonic() + 20.0
            while front.worker_restarts == 0 and time.monotonic() < deadline:
                front.pump()
                time.sleep(0.005)
            assert front.worker_restarts == 1
            assert front.live_shards == [0]
        finally:
            front.close()

    def test_heartbeat_detects_dead_worker(self, front):
        assert front.heartbeat() == []
        front._shards[1].process.kill()
        front._shards[1].process.join(timeout=5.0)
        assert front.heartbeat() == [1]
        assert front.worker_crashes == 1


class TestShipBack:
    def test_close_merges_worker_metrics_and_latency(self):
        streams = _streams(n_streams=4, n_samples=300)
        registry = MetricsRegistry()
        front = FleetFront(
            MagnitudeProbeModel(),
            FleetConfig(n_shards=2, serve=_serve_config()),
            registry=registry,
        )
        try:
            _feed(front, streams, front.pump)
            front.drain()
        finally:
            report = front.close()
        names = {e["name"] for e in registry.entries()}
        # Worker-side engine metrics arrived via merge_entries ...
        assert "serve/windows_inferred" in names
        assert "fleet/window_latency_ms" in names
        # ... and the merged latency equals the sum of shard reports.
        windows = sum(r["windows_inferred"]
                      for r in front.shard_reports().values())
        assert front.fleet_latency().summary()["count"] == windows
        assert windows > 0
        assert report["rounds"] > 0
        assert len(front.shard_reports()) == 2
