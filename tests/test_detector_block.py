"""``push_block`` ≡ the per-sample oracle — the bit-identity property suite.

The detector's one ingestion path, ``FallDetector.push_block``, promises
*bit-identical* results to the per-sample deferred-inference loop of the
reference in ``tests/detector_oracle.py`` (with completes deferred to
the block boundary).  These tests drive both over every builtin fault
scenario and random block splits and compare everything observable:
staged windows byte for byte, detections, health transitions, metric
counters, the window buffer and the sample clock.  ``make check`` runs
this via ``make test`` — it is the identity gate for every serving path.
A second suite holds ``push`` (a one-row ``push_block`` with inline
inference) to the oracle's inline ``push``.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.core.detector import DetectorConfig, FallDetector
from repro.faults import (
    FaultScenario,
    FaultWindow,
    NonFinite,
    SensorDead,
    StuckChannel,
    builtin_scenarios,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve.bench import ServeBenchConfig, synth_stream
from tests.detector_oracle import OracleDetector

CFG = DetectorConfig(window_ms=200.0, overlap=0.5, threshold=0.4,
                     consecutive_required=1)


class _TanhModel:
    """Deterministic CNN stand-in: a pure function of the window bytes."""

    def predict(self, x):
        x = np.asarray(x)
        return (0.5 + 0.5 * np.tanh(4.0 * x.mean(axis=(1, 2))))[:, None]


def _base_stream(index=0, duration_s=4.0):
    bench = ServeBenchConfig(n_streams=1, duration_s=duration_s,
                             detector=CFG)
    return synth_stream(index, bench)


def _intermittent_stream():
    """Faults that start *and end*, so carried streaks must reset: a
    non-finite first sample, two stuck episodes on different channels
    and a gyroscope that dies (past ``dead_sensor_samples``) and comes
    back."""
    accel, gyro, t = _base_stream(0, duration_s=6.0)
    w = FaultWindow
    scenario = FaultScenario("intermittent", [
        w(NonFinite(rate=1.0, value="nan", channels=(0, 4)),
          start=0.0, end=0.03),
        w(StuckChannel(channel=1), start=0.5, end=1.0),
        w(StuckChannel(channel=4), start=1.3, end=1.5),
        w(SensorDead(sensor="gyro", mode="zero"), start=2.0, end=3.3),
        w(StuckChannel(channel=4), start=3.8, end=4.2),
        w(SensorDead(sensor="accel", mode="nan"), start=4.5, end=5.0),
    ], seed=3)
    t, accel, gyro = scenario.apply_arrays(t, accel, gyro)
    return accel, gyro, t


def _random_splits(n, rng, n_blocks=12):
    """Random interior cut points giving ~``n_blocks`` uneven blocks."""
    if n < 2:
        return []
    cuts = rng.choice(np.arange(1, n), size=min(n_blocks, n - 1),
                      replace=False)
    return sorted(int(c) for c in cuts)


def _drive(detector, model, accel, gyro, t, splits, *, use_block,
           latency_ms=0.5):
    """Feed the stream block by block; returns the observable trace.

    Both arms follow the deferred-inference protocol with completes at
    the block boundary — the contract ``push_block`` is specified
    against.  The loop arm converts the block API's NaN timestamp
    sentinel back to ``None`` for the oracle's ``push_collect``.
    """
    trace = []
    start = 0
    for stop in list(splits) + [len(accel)]:
        if use_block:
            tb = None if t is None else t[start:stop]
            hits, requests = detector.push_block(
                accel[start:stop], gyro[start:stop], tb)
        else:
            hits, requests = [], []
            for i in range(start, stop):
                ti = None if t is None else float(t[i])
                if ti is not None and ti != ti:   # NaN -> no timestamp
                    ti = None
                hit, reqs = detector.push_collect(accel[i], gyro[i], ti)
                if hit is not None:
                    hits.append(hit)
                requests.extend(reqs)
        for req in requests:
            trace.append(("request", req.sample_index, float(req.time_s),
                          bool(req.fallback_hit), req.window.tobytes()))
            if model is not None:
                prob = float(np.asarray(
                    model.predict(req.window[None, :, :])).reshape(-1)[0])
                hit = detector.complete(req, prob, latency_ms=latency_ms)
                if hit is not None:
                    hits.append(hit)
        for h in hits:
            trace.append(("detection", h.sample_index, float(h.time_s),
                          float(h.probability), h.source))
        start = stop
    return trace


def _assert_identical(accel, gyro, t, splits, *, cfg=CFG, with_model=True,
                      latency_ms=0.5):
    arms = {}
    for use_block in (False, True):
        model = _TanhModel() if with_model else None
        registry = MetricsRegistry()
        cls = FallDetector if use_block else OracleDetector
        detector = cls(model, cfg, registry=registry)
        trace = _drive(detector, model, accel, gyro, t, splits,
                       use_block=use_block, latency_ms=latency_ms)
        arms[use_block] = (trace, detector, registry)
    trace_loop, det_loop, reg_loop = arms[False]
    trace_block, det_block, reg_block = arms[True]
    assert trace_block == trace_loop
    assert det_block.samples_seen == det_loop.samples_seen
    assert det_block.health_report() == det_loop.health_report()
    assert det_block.health_transitions == det_loop.health_transitions
    np.testing.assert_array_equal(det_block._buffer, det_loop._buffer)
    assert reg_block.snapshot() == reg_loop.snapshot()
    return trace_block


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_block_matches_loop_on_every_builtin_scenario(name):
    accel, gyro, t = _base_stream(0)
    scenario = builtin_scenarios(seed=7)[name]
    t, accel, gyro = scenario.apply_arrays(t, accel, gyro)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for trial in range(3):
        splits = _random_splits(len(accel), rng)
        _assert_identical(accel, gyro, t, splits)


def test_block_matches_loop_on_faults_that_end():
    accel, gyro, t = _intermittent_stream()
    rng = np.random.default_rng(15)
    for trial in range(3):
        _assert_identical(accel, gyro, t, _random_splits(len(accel), rng))
    trace = _assert_identical(accel, gyro, t, list(range(1, len(accel))))
    assert any(kind == "request" for kind, *_ in trace)


def test_block_matches_loop_single_sample_blocks():
    """Degenerate split: every block holds exactly one sample."""
    accel, gyro, t = _base_stream(0, duration_s=2.0)
    splits = list(range(1, len(accel)))
    trace = _assert_identical(accel, gyro, t, splits)
    assert any(kind == "detection" for kind, *_ in trace)


def test_block_matches_loop_with_empty_blocks():
    """Repeated cut points make zero-length blocks; both arms no-op."""
    accel, gyro, t = _base_stream(0, duration_s=2.0)
    splits = [40, 40, 40, 95, 95, 180]
    _assert_identical(accel, gyro, t, splits)


def test_block_matches_loop_with_mixed_missing_timestamps():
    """NaN sentinel rows (block) ≡ ``t=None`` samples (loop)."""
    accel, gyro, t = _base_stream(0)
    t = t.copy()
    t[::7] = np.nan
    rng = np.random.default_rng(11)
    splits = _random_splits(len(accel), rng)
    _assert_identical(accel, gyro, t, splits)


def test_block_matches_loop_without_timestamps():
    accel, gyro, _ = _base_stream(3)
    rng = np.random.default_rng(12)
    splits = _random_splits(len(accel), rng)
    _assert_identical(accel, gyro, None, splits)


def test_block_matches_loop_without_model_fallback_only():
    accel, gyro, t = _base_stream(0)
    rng = np.random.default_rng(13)
    splits = _random_splits(len(accel), rng)
    trace = _assert_identical(accel, gyro, t, splits, with_model=False)
    assert all(kind != "request" for kind, *_ in trace)


def test_block_matches_loop_under_deadline_shedding():
    """Slow completes shed the CNN identically in both arms."""
    cfg = DetectorConfig(window_ms=200.0, overlap=0.5, threshold=0.4,
                         deadline_ms=1.0, degraded_after_violations=1,
                         shed_after_violations=2, consecutive_required=1)
    accel, gyro, t = _base_stream(0)
    rng = np.random.default_rng(14)
    splits = _random_splits(len(accel), rng)
    trace = _assert_identical(accel, gyro, t, splits, cfg=cfg,
                              latency_ms=50.0)
    assert any(kind == "detection" and rest[-1] == "fallback"
               for kind, *rest in trace)


# ----------------------------------------------------------------------
# push (a one-row push_block, windows inferred inline) ≡ the oracle's
# inline per-sample push
# ----------------------------------------------------------------------
#: A deadline no wall-clock stall reaches: ``push`` times its own model
#: runs, and a stall in one arm must not read as a behaviour difference.
PUSH_CFG = DetectorConfig(window_ms=200.0, overlap=0.5, threshold=0.4,
                          consecutive_required=1, deadline_ms=60_000.0)


def _push_arm(cls, model, accel, gyro, t):
    registry = MetricsRegistry()
    detector = cls(model, PUSH_CFG, registry=registry)
    trace = []
    for i in range(len(accel)):
        ti = None if t is None else float(t[i])
        hit = detector.push(accel[i], gyro[i], ti)
        trace.append(None if hit is None else (
            hit.sample_index, float(hit.time_s), float(hit.probability),
            hit.source))
    return trace, detector, registry


def _assert_push_identical(accel, gyro, t, model_cls=_TanhModel):
    arms = {cls: _push_arm(cls, model_cls() if model_cls else None,
                           accel, gyro, t)
            for cls in (OracleDetector, FallDetector)}
    (trace_o, det_o, reg_o), (trace_p, det_p, reg_p) = arms.values()
    assert trace_p == trace_o
    assert det_p.samples_seen == det_o.samples_seen
    assert det_p.health_report() == det_o.health_report()
    assert det_p.health_transitions == det_o.health_transitions
    assert det_p.latency.count == det_o.latency.count
    np.testing.assert_array_equal(det_p._buffer, det_o._buffer)
    assert reg_p.snapshot() == reg_o.snapshot()
    return trace_p, det_p


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_push_matches_oracle_push_on_every_builtin_scenario(name):
    accel, gyro, t = _base_stream(0)
    scenario = builtin_scenarios(seed=7)[name]
    t, accel, gyro = scenario.apply_arrays(t, accel, gyro)
    _, detector = _assert_push_identical(accel, gyro, t)
    assert detector.latency.count > 0


def test_push_matches_oracle_push_on_faults_that_end():
    accel, gyro, t = _intermittent_stream()
    _, detector = _assert_push_identical(accel, gyro, t)
    states = {to for _, _, to in detector.health_transitions}
    assert {"fault", "healthy"} <= states


def test_push_matches_oracle_push_across_gap_fills_and_resets():
    """Gaps shorter than ``max_gap_ms`` make one push stage several
    windows (its fill rows' and its own); they complete after the
    one-row block, in order — the same decisions as inferring each fill
    window before the next fill row."""
    accel, gyro, t = _base_stream(0)
    keep = np.ones(len(t), dtype=bool)
    keep[50:62] = False          # 120 ms gap: 12 fill rows, > one hop
    keep[150:190] = False        # 400 ms gap: stream reset
    keep[260:275] = False
    accel, gyro, t = accel[keep], gyro[keep], t[keep]
    trace, detector = _assert_push_identical(accel, gyro, t)
    assert detector.gap_filled_samples == 27
    assert detector.stream_resets == 1
    assert any(hit is not None for hit in trace)


def test_push_matches_oracle_push_without_model_or_timestamps():
    accel, gyro, t = _base_stream(2)
    _assert_push_identical(accel, gyro, None)
    _assert_push_identical(accel, gyro, t, model_cls=None)


class _NanOnCall:
    """``_TanhModel`` whose ``k``-th predict call returns NaN (a failed
    inference, which sheds the CNN)."""

    def __init__(self, k):
        self.k = k
        self.calls = 0

    def predict(self, x):
        self.calls += 1
        out = _TanhModel().predict(x)
        return np.full_like(out, np.nan) if self.calls == self.k else out


def test_push_fill_window_shed_reaches_health_one_sample_later():
    """The one pinned difference from the oracle's inline push.

    A gap's fill windows now complete after the sample's one-row block,
    so when a fill window's inference fails, the shed reaches the health
    machine at the *next* sample: the revealing sample reads the gap as
    ``degraded`` first.  The oracle inferred the fill window before that
    sample's health update and went straight to ``fault``.  Detections,
    fallback decisions and every anomaly counter still match.
    """
    accel, gyro, t = _base_stream(0)
    keep = np.ones(len(t), dtype=bool)
    keep[50:62] = False          # sample 62 reveals fills 50..61
    accel, gyro, t = accel[keep], gyro[keep], t[keep]
    # Windows are due at samples 19, 29, 39, 49, then fill row 59.
    (trace_o, det_o, _), (trace_p, det_p, _) = (
        _push_arm(cls, _NanOnCall(5), accel, gyro, t)
        for cls in (OracleDetector, FallDetector))
    assert trace_p == trace_o
    recovery = [(310, "fault", "degraded"), (311, "degraded", "healthy")]
    assert det_o.health_transitions == [(62, "healthy", "fault"),
                                        *recovery]
    assert det_p.health_transitions == [(62, "healthy", "degraded"),
                                        (63, "degraded", "fault"),
                                        *recovery]
    report_o, report_p = det_o.health_report(), det_p.health_report()
    for key in ("transitions", "states_seen"):
        del report_o[key], report_p[key]
    assert report_p == report_o
    assert report_p["inference_errors"] == 1


def test_update_block_matches_oracle_update_bit_for_bit():
    """Fusion: the block recurrence ≡ the oracle's per-sample ``update``,
    across uneven block splits and a mid-stream reset."""
    from repro.signal.orientation import ComplementaryFilter
    from tests.detector_oracle import OracleComplementaryFilter

    rng = np.random.default_rng(21)
    accel = rng.normal([0, 0, 1], 0.3, size=(600, 3))
    gyro = rng.normal(0, 80, size=(600, 3))
    oracle = OracleComplementaryFilter(fs=100.0)
    want = []
    for i in range(600):
        if i == 333:
            oracle.reset()
        want.append(oracle.update(accel[i], gyro[i]))
    block = ComplementaryFilter(fs=100.0)
    cuts = [0, 1, 2, 90, 300, 301, 599, 600]
    got = np.vstack([
        block.update_block(accel[a:b], gyro[a:b],
                           reset_rows=[333 - a] if a <= 333 < b else None)
        for a, b in zip(cuts[:-1], cuts[1:])
    ])
    np.testing.assert_array_equal(got, np.vstack(want))
