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
  over;
* each round runs every stream's front half (validation, timestamps,
  fusion) and its SOS filter in one stacked pass each, bit-identical to
  solo detectors for every stream, faulty ones included, with raising
  sessions contained around both;
* non-finite timestamps never move the stream clock.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.detector import DetectorConfig, FallDetector
from repro.experiments import MagnitudeProbeModel
from repro.faults import builtin_scenarios
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeConfig, ServeEngine
from repro.serve.bench import ServeBenchConfig, synth_stream
from repro.signal import filters
from repro.signal.orientation import ComplementaryFilter

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


def test_batched_matches_solo_for_every_stream_under_every_fault(
        monkeypatch):
    """Every builtin fault scenario and some clean streams share one
    engine, stepped at an uneven cadence: each stream — faulty ones
    included — matches a solo detector fed the same blocks through
    ``push_block``: staged windows byte for byte, detections, health
    transitions and the ``health_report`` counters."""
    model = MagnitudeProbeModel()
    streams = _bench_streams([0, 1, 2], n_streams=8, duration_s=3.0)
    base = _bench_streams([3], n_streams=8, duration_s=3.0)["s3"]
    for name, scenario in builtin_scenarios(seed=5).items():
        accel, gyro, t = base
        t, accel, gyro = scenario.apply_arrays(t, accel, gyro)
        streams[name] = (accel, gyro, t)
    windows: dict[FallDetector, list] = {}     # keeps every detector alive
    real_complete = FallDetector.complete

    def spy_complete(self, request, *args, **kwargs):
        windows.setdefault(self, []).append(
            (request.sample_index, request.window.tobytes()))
        return real_complete(self, request, *args, **kwargs)

    monkeypatch.setattr(FallDetector, "complete", spy_complete)
    cadence = [1, 7, 2, 23, 3, 13, 40, 5]
    cuts, row = [], 0
    while row < 300:
        row += cadence[len(cuts) % len(cadence)]
        cuts.append(row)
    engine = _engine(model)
    got = {sid: [] for sid in streams}
    start = 0
    for stop in cuts:
        for i in range(start, stop):
            for sid, (accel, gyro, t) in streams.items():
                if i < len(t):
                    engine.submit(sid, accel[i], gyro[i], t[i])
        for sid, hit in engine.step():
            got[sid].append(hit)
        start = stop
    assert engine.stream_errors == 0
    for sid, (accel, gyro, t) in streams.items():
        solo = FallDetector(model, CFG, registry=MetricsRegistry())
        expected = []
        start = 0
        for stop in cuts:
            rows = slice(start, min(stop, len(t)))
            start = stop
            if rows.start >= rows.stop:
                continue
            hits, requests = solo.push_block(accel[rows], gyro[rows],
                                             t[rows])
            expected.extend(hits)
            for request in requests:
                prob = float(model.predict(request.window[None])[0, 0])
                hit = solo.complete(request, prob, latency_ms=0.0)
                if hit is not None:
                    expected.append(hit)
        served = engine.session(sid).detector
        assert got[sid] == expected, sid
        assert windows.get(served, []) == windows.get(solo, []), sid
        assert served.health_transitions == solo.health_transitions, sid
        assert served.health_report() == solo.health_report(), sid
    assert any(engine.session(name).detector.health_transitions
               for name in builtin_scenarios())


def test_non_finite_timestamps_leave_the_clock_and_neighbours_intact():
    """A stream whose first timestamp is NaN, one whose first is +inf
    and one that later sends +inf and -inf: ``step()`` keeps working
    with SLO tracking armed, ``last_round_t`` is the latest *finite*
    timestamp, nobody is quarantined and the clean streams' detections
    match serving them alone."""
    model = _ConstantModel(0.6)
    clean = _bench_streams([0, 1])
    solo = {}
    for sid, stream in clean.items():
        solo.update(_feed(_engine(model), {sid: stream}))
    mixed = dict(clean)
    for sid, index, bad in (("nan_first", 2, {0: np.nan}),
                            ("inf_first", 3, {0: np.inf}),
                            ("inf_later", 4, {30: np.inf, 31: -np.inf})):
        accel, gyro, t = _bench_streams([index])[f"s{index}"]
        t = t.copy()
        for row, value in bad.items():
            t[row] = value
        mixed[sid] = (accel, gyro, t)
    engine = _engine(model)
    assert engine.slo is not None
    together = _feed(engine, mixed)
    assert engine.stream_errors == 0
    for sid in clean:
        assert together[sid] == solo[sid]
    finite = [v for _, _, t in mixed.values() for v in t if np.isfinite(v)]
    assert engine.last_round_t == max(finite)
    assert engine.session("inf_later").detector.clock_anomalies == 2


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

        def begin_block(self, *a, **k):
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


@pytest.mark.parametrize("arm", ["stacked", "retried", "fusion"])
def test_stacked_round_contains_raisers_and_matches_solo(monkeypatch, arm):
    """One round mixes a two-job block (a long-gap reset), a one-row
    block, an empty queue, a detector raising inside the stacked front
    half and one raising after the filter: only the raisers are
    quarantined, everyone else rides one stacked filter call and matches
    a solo detector fed the same blocks, window for window and bit for
    bit.  The front-half raiser makes the round's ``begin_blocks`` pass
    raise, so every block is retried alone; since that pass writes no
    detector before it succeeds, the retried blocks are not ingested
    twice.

    In the ``retried`` arm the stacked filter call itself raises: every
    begun block is retried alone, the one-row block's retry raises too,
    and only that session joins the quarantined raisers.  In the
    ``fusion`` arm the stacked fusion recurrence raises on the round
    before (every block is retried alone and nobody is quarantined) and
    on the one-row block's retry, which quarantines that session."""
    model = _ConstantModel(0.6)
    ids = ["gap", "one", "idle", "early", "late"]
    data = {sid: stream for sid, stream in
            zip(ids, _bench_streams(range(5)).values())}
    accel, gyro, t = data["gap"]
    t = t.copy()
    t[75:] += 0.5                         # > max_gap_ms: a stream reset
    data["gap"] = (accel, gyro, t)
    # Per round, the rows each stream submits.
    rounds = [{sid: slice(0, 30) for sid in ids},
              {sid: slice(30, 60) for sid in ids},
              {"gap": slice(60, 90), "one": slice(60, 61),
               "early": slice(60, 70), "late": slice(60, 70)},
              {sid: slice(90, 120) for sid in ("gap", "one", "idle")}]

    windows: dict[FallDetector, list] = {}     # keeps every detector alive
    real_complete = FallDetector.complete

    def spy_complete(self, request, *args, **kwargs):
        windows.setdefault(self, []).append(
            (request.sample_index, request.window.copy()))
        return real_complete(self, request, *args, **kwargs)

    monkeypatch.setattr(FallDetector, "complete", spy_complete)
    real_fuse = ComplementaryFilter.run
    fused: list = []

    def spy_fuse(self, accel_g, gyro_dps, starts, states, **kwargs):
        fused.append(len(starts))
        if arm == "fusion" and (len(fused) == 1 or accel_g.shape[0] == 1):
            raise RuntimeError("fusion bug")
        return real_fuse(self, accel_g, gyro_dps, starts, states, **kwargs)

    engine = _engine(model)
    got = {sid: [] for sid in ids}
    stacked_calls = []
    for k, plan in enumerate(rounds):
        for sid, rows in plan.items():
            a, g, ts = data[sid]
            for i in range(rows.start, rows.stop):
                engine.submit(sid, a[i], g[i], ts[i])
        if k in (1, 2):
            monkeypatch.setattr(ComplementaryFilter, "run", spy_fuse)
        if k == 2:
            def _raise(*args, **kwargs):
                raise RuntimeError("detector bug")

            monkeypatch.setattr(engine.session("early").detector,
                                "_begin_rows", _raise)
            monkeypatch.setattr(engine.session("late").detector,
                                "finish_block", _raise)
            real_run_jobs = filters._run_jobs

            def spy_run_jobs(coeffs, prime, jobs):
                stacked_calls.append(len(jobs))
                if arm == "retried" and (len(stacked_calls) == 1
                                         or jobs[0][1].shape[0] == 1):
                    raise RuntimeError("filter bug")
                return real_run_jobs(coeffs, prime, jobs)

            monkeypatch.setattr(filters, "_run_jobs", spy_run_jobs)
        for sid, hit in engine.step():
            got[sid].append(hit)
        if k == 2:
            monkeypatch.setattr(filters, "_run_jobs", real_run_jobs)
            monkeypatch.setattr(ComplementaryFilter, "run", real_fuse)
    # Round 1 fuses five one-segment blocks together (raising in the
    # ``fusion`` arm, then each alone).  Round 2's front half raises at
    # ``early`` before fusing anything and is retried block by block:
    # gap (two segments), one, late.
    assert fused == ([5, 1, 1, 1, 1, 1] if arm == "fusion" else [5]) + [
        2, 1, 1]
    # gap: 2 jobs (reset), one: 1 (unless its front half raised), late:
    # 1 (it raises after the filter); retried, each block alone in
    # session order.
    assert stacked_calls == ([4, 2, 1, 1] if arm == "retried" else
                             [3] if arm == "fusion" else [4])
    raisers = {"early", "late"} | ({"one"} if arm != "stacked" else set())
    report = engine.stream_report()
    assert {sid for sid in ids
            if report[sid]["health"] == "quarantined"} == raisers
    assert engine.stream_errors == len(raisers)
    assert engine.session("gap").detector.stream_resets == 1

    for sid in sorted({"gap", "one", "idle"} - raisers):
        solo = FallDetector(model, CFG, registry=MetricsRegistry())
        a, g, ts = data[sid]
        expected = []
        for plan in rounds:
            rows = plan.get(sid)
            if rows is None:
                continue
            hits, requests = solo.push_block(a[rows], g[rows], ts[rows])
            expected.extend(hits)
            for request in requests:
                hit = solo.complete(request, 0.6, latency_ms=0.0)
                if hit is not None:
                    expected.append(hit)
        served = engine.session(sid).detector
        assert got[sid] == expected
        mine, theirs = windows[served], windows[solo]
        assert [i for i, _ in mine] == [i for i, _ in theirs]
        assert all(np.array_equal(w, v)
                   for (_, w), (_, v) in zip(mine, theirs))
        assert np.array_equal(served._filter.state, solo._filter.state)
        assert np.array_equal(served._buffer, solo._buffer)
        assert served.health_report() == solo.health_report()
        assert served.health_transitions == solo.health_transitions


def test_serve_path_does_not_import_scipy_signal():
    """``scipy.signal`` costs ~75 MB of resident memory per process: the
    engine and every fleet worker filter with the hand-written SOS loop
    and must not import it."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, repro.serve.engine, repro.fleet.worker; "
            "sys.exit('scipy.signal' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0
