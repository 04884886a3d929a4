"""Multi-stream serving engine: batching, isolation and shedding.

The contracts under test:

* the engine's micro-batched detections for a stream are identical to
  serving that stream alone — even when another stream in the batch is
  feeding NaNs and timestamp gaps;
* one broken stream (a detector breaking its never-raises promise) is
  quarantined without stalling the others;
* bounded queues shed oldest-first and account for every drop;
* batch wall-clock feeds each stream's deadline machinery, so sustained
  pressure sheds the CNN per stream and the magnitude fallback takes
  over.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.detector import DetectorConfig
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeConfig, ServeEngine
from repro.serve.bench import ServeBenchConfig, synth_stream

CFG = DetectorConfig(window_ms=200.0, overlap=0.5, threshold=0.4,
                     consecutive_required=1)


class _ConstantModel:
    def __init__(self, probability=0.1):
        self.probability = probability

    def predict(self, x):
        return np.full((len(x), 1), self.probability)


class _SleepyModel(_ConstantModel):
    def __init__(self, sleep_s=0.002):
        super().__init__(0.1)
        self.sleep_s = sleep_s

    def predict(self, x):
        time.sleep(self.sleep_s)
        return super().predict(x)


class _PoisonBatchModel(_ConstantModel):
    """Raises whenever a saturated-at-the-rails window is in the batch."""

    def __init__(self):
        super().__init__(0.7)

    def predict(self, x):
        if np.any(np.abs(x) > 10.0):
            raise RuntimeError("poison window")
        return super().predict(x)


def _engine(model, detector_cfg=CFG, **kwargs):
    cfg = ServeConfig(detector=detector_cfg, **kwargs)
    return ServeEngine(model, cfg, registry=MetricsRegistry())


def _feed(engine, streams, step_every=10):
    """Round-robin interleave streams into the engine; collect per-stream."""
    detections = {stream_id: [] for stream_id in streams}
    n = max(len(t) for _, _, t in streams.values())
    for i in range(n):
        for stream_id, (accel, gyro, t) in streams.items():
            if i < len(t):
                engine.submit(stream_id, accel[i], gyro[i], t[i])
        if (i + 1) % step_every == 0:
            for stream_id, hit in engine.step():
                detections[stream_id].append(hit)
    for stream_id, hit in engine.step():
        detections[stream_id].append(hit)
    return detections


def _bench_streams(indices, n_streams=8, duration_s=2.0):
    bench = ServeBenchConfig(n_streams=n_streams, duration_s=duration_s,
                             detector=CFG)
    return {f"s{i}": synth_stream(i, bench) for i in indices}


def _faulted_stream(index):
    """A stream with a NaN burst and a long timestamp gap."""
    accel, gyro, t = _bench_streams([index])[f"s{index}"]
    accel = accel.copy()
    t = t.copy()
    accel[50:70] = np.nan
    t[120:] += 1.5
    return accel, gyro, t


def test_batched_matches_solo_with_faulty_neighbour():
    """A NaN/gap-faulted stream must not change healthy streams' output."""
    model = _ConstantModel(0.6)
    healthy = _bench_streams([0, 1, 2])
    solo = {}
    for stream_id, stream in healthy.items():
        solo.update(_feed(_engine(model), {stream_id: stream}))
    mixed = dict(healthy)
    mixed["bad"] = _faulted_stream(9)
    together = _feed(_engine(model), mixed)
    for stream_id in healthy:
        assert together[stream_id] == solo[stream_id]


def test_faulty_stream_degrades_only_itself():
    model = _ConstantModel(0.2)
    engine = _engine(model)
    streams = _bench_streams([0])
    streams["bad"] = _faulted_stream(9)
    _feed(engine, streams)
    report = engine.stream_report()
    assert report["bad"]["health"] != "healthy" or \
        engine.session("bad").detector.health_report()["repaired_samples"] > 0
    assert report["s0"]["health"] == "healthy"
    assert engine.session("s0").detector.health_report()["repaired_samples"] == 0


def test_quarantine_contains_raising_detector():
    model = _ConstantModel(0.2)
    engine = _engine(model)
    streams = _bench_streams([0, 1])
    _feed(engine, streams, step_every=50)

    class _Broken:
        health = "healthy"
        deadline_violations = 0
        fallback_detections = 0

        def health_report(self):
            return {"cnn_shed": False}

        def push_block(self, *a, **k):
            raise RuntimeError("detector bug")

    engine.session("s1").detector = _Broken()
    detections = _feed(engine, streams, step_every=50)
    report = engine.stream_report()
    assert report["s1"]["health"] == "quarantined"
    assert report["s0"]["health"] == "healthy"
    assert engine.stream_errors == 1
    # Quarantined stream stops accepting work; healthy one keeps flowing.
    accel, gyro, t = streams["s1"]
    assert engine.submit("s1", accel[0], gyro[0], None) is False
    assert detections["s0"] or engine.session("s0").detector.samples_seen > 0


def test_poisoned_batch_retries_per_window():
    """A window that crashes the model only hurts its own stream."""
    model = _PoisonBatchModel()
    engine = _engine(model)
    streams = _bench_streams([1, 2])  # quiet ADL streams (no fall event)
    accel, gyro, t = _bench_streams([4])["s4"]
    accel = accel.copy()
    accel[:] = 16.0  # pinned at the accelerometer rail: valid but extreme
    streams["poison"] = (accel, gyro, t)
    detections = _feed(engine, streams)
    assert engine.batch_errors > 0
    # Healthy streams still got CNN verdicts above threshold.
    assert detections["s1"] and detections["s2"]
    assert all(h.source == "cnn" for h in detections["s1"])
    poison = engine.session("poison").detector
    assert poison.health_report()["inference_errors"] > 0


def test_queue_overflow_sheds_oldest_and_counts():
    engine = _engine(_ConstantModel(), queue_capacity=4)
    accel = np.array([0.0, 0.0, 1.0])
    gyro = np.zeros(3)
    for i in range(10):
        assert engine.submit("s0", accel, gyro, i / 100.0)
    session = engine.session("s0")
    assert len(session.queue) == 4
    assert session.dropped_samples == 6
    assert engine.dropped_samples == 6
    # The freshest samples survived.
    assert session.queue[0][2] == pytest.approx(0.06)


def test_queue_depth_gauge_reports_burst_peak_then_steady_state():
    """The gauge exposes the deepest burst, then settles to 0 post-drain."""
    engine = _engine(_ConstantModel())
    observed = []
    real_gauge = engine._queue_depth_gauge

    class _SpyGauge:
        def set(self, value):
            observed.append(value)
            real_gauge.set(value)

    engine._queue_depth_gauge = _SpyGauge()
    accel = np.array([0.0, 0.0, 1.0])
    gyro = np.zeros(3)
    for i in range(10):
        engine.submit("s0", accel, gyro, i / 100.0)
    engine.step()
    # Pre-drain reading is the burst peak; the final reading is the
    # post-drain depth, so tail readers between bursts see 0, not a
    # stale pre-drain depth.
    assert observed[0] == 10.0
    assert observed[-1] == 0.0
    assert real_gauge.value == 0.0


def test_max_streams_rejects_new_streams():
    engine = _engine(_ConstantModel(), max_streams=2)
    accel = np.array([0.0, 0.0, 1.0])
    gyro = np.zeros(3)
    assert engine.submit("a", accel, gyro, 0.0)
    assert engine.submit("b", accel, gyro, 0.0)
    assert engine.submit("c", accel, gyro, 0.0) is False
    assert engine.rejected_streams == 1
    assert sorted(engine.stream_ids) == ["a", "b"]


def test_deadline_pressure_sheds_to_fallback_per_stream():
    """Slow batches trip per-stream shedding; fallback stays armed."""
    cfg = DetectorConfig(window_ms=200.0, overlap=0.5, threshold=0.4,
                         deadline_ms=0.05, degraded_after_violations=1,
                         shed_after_violations=2, consecutive_required=1)
    engine = _engine(_SleepyModel(0.002), cfg)
    streams = _bench_streams([0, 3])  # stream 0 has a fall event
    detections = _feed(engine, streams)
    report = engine.stream_report()
    for stream_id in streams:
        assert report[stream_id]["deadline_violations"] > 0
        assert report[stream_id]["cnn_shed"]
    # The fall stream still fires via the magnitude fallback.
    fallback_hits = [h for h in detections["s0"] if h.source == "fallback"]
    assert fallback_hits


def test_empty_step_is_safe_and_counts_a_batch():
    engine = _engine(_ConstantModel())
    assert engine.step() == []
    assert engine.batches == 1
    assert engine.windows_inferred == 0


def test_engine_requires_model():
    with pytest.raises(ValueError):
        ServeEngine(None, ServeConfig(), registry=MetricsRegistry())


def test_serve_config_validation():
    with pytest.raises(ValueError):
        ServeConfig(queue_capacity=0)
    with pytest.raises(ValueError):
        ServeConfig(max_streams=0)


def test_engine_report_shape():
    engine = _engine(_ConstantModel())
    _feed(engine, _bench_streams([0]))
    report = engine.report()
    assert report["streams"] == 1
    assert report["samples_in"] == 200
    assert report["windows_inferred"] > 0
    assert report["batch_size"]["count"] == report["batches"]
