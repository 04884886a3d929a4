"""SLO engine: stage attribution, burn-rate alerting, fleet surfacing.

Covers the three layers of ``repro.obs.slo``: the :class:`StageTimer`
attribution contract (stage sums ≡ end-to-end on ``push_block`` and on
the per-sample oracle, and instrumentation that cannot perturb the block
bit-identity gate), the
:class:`SLOTracker` burn-rate rules riding a real ``AlertManager`` on
synthetic stream time, and the serving-engine surfacing
(``slo_report``/``fleet_stages``/liveness counters) plus the
``repro slo`` eval harness's synthetic-overload fast-burn page.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.alerts import AlertConfig, AlertManager
from repro.core.detector import DetectorConfig, FallDetector
from repro.experiments import SLOEvalConfig, run_slo_eval
from repro.experiments.alerts_runner import MagnitudeProbeModel
from repro.obs import (
    STAGES,
    BurnRateRule,
    MetricsSampler,
    SLOConfig,
    SLOTracker,
    StageTimer,
    metric_to_family,
    stage_attribution,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeConfig, ServeEngine
from repro.serve.bench import ServeBenchConfig, synth_stream
from tests.detector_oracle import OracleDetector

CFG = DetectorConfig(window_ms=200.0, overlap=0.5, threshold=0.4,
                     consecutive_required=1)


def _stream(duration_s=3.0, index=0):
    bench = ServeBenchConfig(n_streams=1, duration_s=duration_s,
                             detector=CFG)
    return synth_stream(index, bench)


def _tight_slo() -> SLOConfig:
    """Burn windows in stream-seconds so tests never sleep."""
    return SLOConfig(
        fast_burn=BurnRateRule(name="fast_burn", short_window_s=1.0,
                               long_window_s=3.0, threshold=14.4,
                               severity="critical"),
        slow_burn=BurnRateRule(name="slow_burn", short_window_s=2.0,
                               long_window_s=5.0, threshold=6.0,
                               severity="suspect"),
        budget_window_s=30.0,
        bucket_s=0.25,
    )


class _TickClock:
    """``perf_counter`` stand-in: each read advances a fixed step."""

    def __init__(self, step_s=0.001):
        self.step_s = step_s
        self._now = 0.0

    def __call__(self):
        self._now += self.step_s
        return self._now


# ----------------------------------------------------------------------
# StageTimer
# ----------------------------------------------------------------------
def test_stage_timer_flush_observes_stage_sum_into_e2e():
    timer = StageTimer(clock=lambda: 0.0)
    timer.add("ingest", 0.002)             # 2 ms, paired-clock seconds
    timer.add_ms("inference", 3.5)
    assert timer.pending_ms("inference") == pytest.approx(3.5)
    total = timer.flush()
    assert total == pytest.approx(5.5)
    assert timer.windows == 1
    assert timer.e2e.summary()["mean"] == pytest.approx(5.5)
    assert all(timer.pending_ms(stage) == 0.0 for stage in STAGES)
    # discard_pending drops an open window without observing it
    timer.add_ms("filter", 1.0)
    timer.discard_pending()
    assert timer.windows == 1
    assert timer.totals_ms["filter"] == 0.0


def _drive_detector(use_block, accel, gyro, t):
    model = MagnitudeProbeModel()
    cls = FallDetector if use_block else OracleDetector
    detector = cls(model, CFG, registry=MetricsRegistry(),
                   stage_clock=_TickClock())
    hop = CFG.hop_samples
    for start in range(0, len(accel), hop):
        sl = slice(start, start + hop)
        if use_block:
            _, requests = detector.push_block(accel[sl], gyro[sl], t[sl])
        else:
            requests = []
            for i in range(start, min(start + hop, len(accel))):
                _, reqs = detector.push_collect(accel[i], gyro[i],
                                                float(t[i]))
                requests.extend(reqs)
        for req in requests:
            prob = float(np.asarray(
                model.predict(req.window[None])).reshape(-1)[0])
            detector.complete(req, prob, latency_ms=0.5)
    return detector


@pytest.mark.parametrize("use_block", [False, True])
def test_stage_timings_nonnegative_and_sum_to_e2e(use_block):
    """The property pair: every stage cost is finite and non-negative,
    and the flushed stage totals sum to the end-to-end total exactly
    (modulo float addition order) — on ``push_block`` and on the
    per-sample oracle."""
    accel, gyro, t = _stream()
    detector = _drive_detector(use_block, accel, gyro, t)
    timer = detector.stages
    report = detector.stage_report()
    assert report["windows"] > 0
    for stage in STAGES:
        stats = report["stages"][stage]
        assert np.isfinite(stats["mean"]) and stats["mean"] >= 0.0
        assert timer.totals_ms[stage] >= 0.0
        assert timer.histograms[stage].count == report["windows"]
    e2e_total = report["e2e"]["mean"] * report["windows"]
    assert sum(timer.totals_ms.values()) == pytest.approx(e2e_total,
                                                          rel=1e-9)
    # inference was charged through complete()'s latency_ms
    assert timer.totals_ms["inference"] == pytest.approx(
        0.5 * report["windows"])


def test_stage_timer_merge_is_fleet_rollup():
    a, b = StageTimer(clock=lambda: 0.0), StageTimer(clock=lambda: 0.0)
    a.add_ms("filter", 2.0)
    a.flush()
    b.add_ms("filter", 4.0)
    b.flush()
    a.merge(b)
    assert a.windows == 2
    assert a.totals_ms["filter"] == pytest.approx(6.0)
    assert a.e2e.summary()["mean"] == pytest.approx(3.0)


def test_stage_attribution_shares():
    timer = StageTimer(clock=lambda: 0.0)
    timer.add_ms("filter", 30.0)
    timer.add_ms("inference", 60.0)
    timer.flush()
    rows = stage_attribution(timer.report(), budget_ms=150.0)
    by = {row["stage"]: row for row in rows}
    assert by["inference"]["share_of_budget"] == pytest.approx(0.4)
    assert by["filter"]["share_of_e2e"] == pytest.approx(1 / 3)
    assert sum(row["share_of_e2e"] for row in rows) == pytest.approx(1.0)


def _run_identity_arm(cfg, use_block, accel, gyro, t):
    registry = MetricsRegistry()
    model = MagnitudeProbeModel()
    cls = FallDetector if use_block else OracleDetector
    detector = cls(model, cfg, registry=registry)
    trace = []
    hop = cfg.hop_samples
    for start in range(0, len(accel), hop):
        sl = slice(start, start + hop)
        if use_block:
            hits, requests = detector.push_block(accel[sl], gyro[sl], t[sl])
        else:
            hits, requests = [], []
            for i in range(start, min(start + hop, len(accel))):
                hit, reqs = detector.push_collect(accel[i], gyro[i],
                                                  float(t[i]))
                if hit is not None:
                    hits.append(hit)
                requests.extend(reqs)
        for req in requests:
            prob = float(np.asarray(
                model.predict(req.window[None])).reshape(-1)[0])
            hit = detector.complete(req, prob, latency_ms=0.5)
            if hit is not None:
                hits.append(hit)
        for h in hits:
            trace.append((h.sample_index, float(h.time_s),
                          float(h.probability), h.source))
    return trace, registry.snapshot()


def test_stage_timing_leaves_block_identity_untouched():
    """The regression the off-registry design buys: enabling stage
    timing changes neither the observable trace nor the registry
    snapshot, on ``push_block`` or the oracle — so the bit-identity gate
    stays green."""
    accel, gyro, t = _stream(duration_s=2.0)
    results = {}
    for timing in (False, True):
        cfg = replace(CFG, stage_timing=timing)
        results[timing] = {
            use_block: _run_identity_arm(cfg, use_block, accel, gyro, t)
            for use_block in (False, True)
        }
    for timing in (False, True):
        assert results[timing][False] == results[timing][True]
    assert results[True] == results[False]


# ----------------------------------------------------------------------
# SLOTracker + AlertManager
# ----------------------------------------------------------------------
def test_fast_burn_pages_critical_through_alert_manager_then_resolves():
    registry = MetricsRegistry()
    manager = AlertManager(AlertConfig(), registry=registry)
    tracker = SLOTracker(_tight_slo(), registry=registry, alerts=manager)
    # 100% of windows over the 150 ms budget: burn rate 1/0.01 = 100x.
    for i in range(20):
        tracker.record(latency_ms=500.0, deadline_miss=False, now=0.1 * i)
    transitions = tracker.evaluate(now=2.0)
    subjects = {t["subject"] for t in transitions if t["burning"]}
    assert "slo/window_latency_p99/fast_burn" in subjects
    assert tracker.alerts_raised >= 1
    active = {a.stream: a for a in manager.active_alerts()}
    alert = active["slo/window_latency_p99/fast_burn"]
    assert alert.severity == "critical" and alert.source == "slo"
    # The burn subsides once the windows age out; the tracker (not the
    # escalation machinery) resolves its own direct alerts.
    tracker.record(latency_ms=1.0, deadline_miss=False, now=40.0)
    tracker.evaluate(now=40.0)
    assert tracker.alerts_resolved >= 1
    assert not any(a.stream.startswith("slo/")
                   for a in manager.active_alerts())


def test_burn_needs_both_windows_and_min_events():
    tracker = SLOTracker(_tight_slo())
    # 100% bad but below min_events: silent.
    for i in range(5):
        tracker.record(latency_ms=500.0, deadline_miss=True, now=0.1 * i)
    assert tracker.evaluate(now=1.0) == []
    report = tracker.report(now=1.0)
    assert report["objectives"]["window_latency_p99"]["bad"] == 5
    # Enough good events dilute the long window below threshold while the
    # short window still burns: still silent (both windows must burn).
    tracker = SLOTracker(_tight_slo())
    for i in range(200):
        tracker.record(latency_ms=1.0, deadline_miss=False,
                       now=0.01 * i)                      # good: t in [0,2)
    for i in range(4):
        tracker.record(latency_ms=500.0, deadline_miss=False,
                       now=2.2 + 0.1 * i)                 # bad burst at end
    assert tracker.evaluate(now=2.6) == []


def test_slo_counters_roll_up_through_registry():
    registry = MetricsRegistry()
    tracker = SLOTracker(_tight_slo(), registry=registry)
    tracker.record(latency_ms=200.0, deadline_miss=True, n=3, now=0.0)
    tracker.record(latency_ms=1.0, deadline_miss=False, n=2, now=0.1)
    assert registry.counter("slo/window_latency_p99/events").value == 5
    assert registry.counter("slo/window_latency_p99/bad").value == 3
    assert registry.counter("slo/deadline_miss/events").value == 5
    assert registry.counter("slo/deadline_miss/bad").value == 3
    # merge_entries is the fleet rollup: counters add.
    front = MetricsRegistry()
    front.merge_entries(registry.entries())
    front.merge_entries(registry.entries())
    assert front.counter("slo/window_latency_p99/bad").value == 6


def test_tracker_reads_injected_clock_when_now_omitted():
    tracker = SLOTracker(_tight_slo(), clock=lambda: 5.0)
    tracker.record(latency_ms=500.0, deadline_miss=False)
    report = tracker.report()
    assert report["objectives"]["window_latency_p99"]["events"] == 1
    assert report["objectives"]["window_latency_p99"]["bad"] == 1


def test_metric_to_family_folds_stage_and_slo_namespaces():
    assert metric_to_family("serve/stage/filter/latency_ms") == (
        "repro_serve_stage_latency_ms", {"stage": "filter"})
    assert metric_to_family("slo/deadline_miss/events") == (
        "repro_slo_events", {"slo": "deadline_miss"})


def test_sampler_clock_injection_and_wait():
    registry = MetricsRegistry()
    registry.counter("x").inc()
    ticks = iter([0.0, 0.5, 1.0])
    sampler = MetricsSampler(registry, interval_s=1.0,
                             clock=lambda: next(ticks))
    sampler.sample()                       # reads 0.0
    assert sampler.maybe_sample() is None  # 0.5: cadence not due
    assert sampler.maybe_sample() is not None  # 1.0: due
    assert sampler.wait_for_samples(2, timeout=0)
    assert not sampler.wait_for_samples(3, timeout=0)


# ----------------------------------------------------------------------
# engine surfacing + eval harness
# ----------------------------------------------------------------------
def test_engine_slo_report_attribution_and_liveness():
    engine = ServeEngine(
        MagnitudeProbeModel(),
        ServeConfig(detector=CFG, slo=_tight_slo()),
        registry=MetricsRegistry(),
    )
    accel, gyro, t = _stream(duration_s=2.0)
    hop = CFG.hop_samples
    for i in range(len(accel)):
        engine.submit("s000", accel[i], gyro[i], float(t[i]))
        if (i + 1) % hop == 0:
            engine.step()
    engine.step()
    assert engine.rounds > 0
    assert engine.last_round_t is not None
    report = engine.slo_report()
    assert report["objectives"]["window_latency_p99"]["events"] > 0
    rows = report["attribution"]
    assert sum(row["share_of_e2e"] for row in rows) == pytest.approx(1.0)
    stages = engine.fleet_stages()
    assert stages.windows == report["stages"]["windows"] > 0
    assert report["latency_budget_ms"] == pytest.approx(150.0)


def test_engine_slo_disabled_by_config_none():
    engine = ServeEngine(MagnitudeProbeModel(),
                         ServeConfig(detector=CFG, slo=None),
                         registry=MetricsRegistry())
    assert engine.slo is None
    assert engine.slo_report() is None
    accel, gyro, t = _stream(duration_s=1.0)
    for i in range(len(accel)):
        engine.submit("s000", accel[i], gyro[i], float(t[i]))
    engine.step()
    assert engine.fleet_stages() is not None  # stage timing is separate


def test_slo_eval_overload_pages_fast_burn():
    """The acceptance criterion: the synthetic overload condition drives
    a fast-burn alert through the AlertManager; the clean fleet keeps
    its whole error budget."""
    config = SLOEvalConfig(n_streams=2, faulted_streams=0, duration_s=4.0)
    result = run_slo_eval(config, scenarios=[])
    clean = result["conditions"]["clean"]
    overload = result["conditions"]["overload"]
    assert clean["alerts_raised"] == 0 and clean["burning"] == []
    latency = clean["objectives"]["window_latency_p99"]
    assert latency["budget_remaining"] == pytest.approx(1.0)
    assert overload["fast_burn_alert"]
    assert overload["alerts_raised"] >= 1
    assert "slo/window_latency_p99/fast_burn" in overload["alert_subjects"]
    burned = overload["objectives"]["window_latency_p99"]
    assert burned["bad_fraction"] == pytest.approx(1.0)
    assert burned["budget_remaining"] < 0
    # attribution stays exact under overload too
    shares = sum(row["share_of_e2e"] for row in overload["attribution"])
    assert shares == pytest.approx(1.0)
