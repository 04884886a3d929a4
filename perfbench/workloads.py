"""The four workloads: set-up, one timed pass, and the oracle check.

``setup`` is what ``setup_s`` times: model load, int8 conversion
(with the engine's batch-invariance probe) and engine, fleet or
detector construction up to ready-to-serve; what it returns is released
with :func:`release`.  ``run`` makes one timed pass and returns a
:class:`Pass`; ``check`` compares it with the workload's reference and
returns the verdict plus, for every reference window, ``(decision
latency in ms, deciding call)`` (``None`` when it was never decided;
see ``drivers.py`` for the clock).
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field

import numpy as np

from repro.alerts import AlertConfig
from repro.core.detector import FallDetector
from repro.fleet.front import FleetConfig, FleetFront
from repro.obs import StageTimer
from repro.obs.metrics import MetricsRegistry
from repro.quant import QuantizedModel
from repro.serve.engine import ServeConfig, ServeEngine

import oracle
import spans
from drivers import (Capture, WorkerClock, capture_in_workers, closed_loop,
                     open_loop, worker_windows)
from inputs import (DETECTOR, FLEET_SHARDS, bulk_feed, fleet_feed,
                    packets_feed, pinned_model, wearable_recordings)

#: Where fleet workers leave the windows they predicted for the oracle.
WORKER_WINDOWS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  "out", "fleet_windows")


@dataclass
class Pass:
    """What one timed pass leaves for the metrics and the oracle."""

    busy_s: float                     # summed service time, see drivers
    rows: int
    run: object                       # OpenLoopRun or list of PushRun
    windows: list = field(default_factory=list)  # (window key, prob.)
    qmodel: object = None             # int8 model served, if any
    detections: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)      # program's counters
    stages: dict | None = None        # stage -> ms per CNN window
    cnn_windows: int = 0
    child_hwm_kb: int = 0
    tally: object = None              # wearable: checked as it was pushed


def release(ready) -> None:
    """Stop what a set-up started (the fleet's worker processes)."""
    if isinstance(ready, FleetFront):
        ready.close()


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set of a live process, from /proc."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _stage_means(report: dict | None) -> dict | None:
    if report is None:
        return None
    return {stage: stats["mean"] for stage, stats in report["stages"].items()}


def _open_loop_latencies(ref, feed, run, verdict) -> list:
    """Window's last sample due -> return of the call that drained it."""
    streams = {s.sid: s for s in feed.streams}
    out = []
    for i, w in enumerate(ref.windows):
        if i in verdict.bad:
            out.append(None)
            continue
        s = streams[w.sid]
        call, due = s.tick[w.row], s.due[w.row]
        out.append((1000.0 * (run.v_end[call] - due), int(call)))
    return out


class EngineWorkload:
    """Open-loop replay into one ``ServeEngine``; batched ≡ solo."""

    def __init__(self, name, make_feed, config: ServeConfig):
        self.name = name
        self.make_feed = make_feed
        self.config = config
        self.int8 = config.backend == "int8"

    def inputs(self, seconds, seed):
        return self.make_feed(seconds, seed)

    def setup(self, calibration):
        return ServeEngine(pinned_model(), self.config,
                           registry=MetricsRegistry(),
                           calibration=calibration if self.int8 else None)

    def run(self, engine, feed, seconds) -> Pass:
        capture = Capture(engine.model)
        try:
            run = open_loop(feed, engine.submit, engine.step,
                            between=capture.compact)
        finally:
            capture.close()
        report = engine.report()
        sessions = [engine.session(sid) for sid in engine.stream_ids]
        report["quarantined_streams"] = sum(s.quarantined for s in sessions)
        report["samples_seen"] = {s.stream_id: s.detector.samples_seen
                                  for s in sessions}
        return Pass(
            busy_s=run.busy_s, rows=feed.rows, run=run,
            windows=capture.take(),
            qmodel=engine.model if self.int8 else None,
            detections=run.detections, report=report,
            stages=_stage_means(engine.fleet_stages().report()),
            cnn_windows=sum(s.detector.latency.count for s in sessions),
        )

    def check(self, p: Pass, feed, seed):
        model = p.qmodel if self.int8 else pinned_model()
        ref = oracle.engine_reference(model, self.config, feed, solo=True)
        verdict = oracle.compare_windows(ref, p.windows, p.detections)
        if self.int8:
            verdict.checks["int8_equals_reference"] = (
                oracle.int8_matches_reference(p.qmodel, ref.windows, seed))
        return verdict, _open_loop_latencies(ref, feed, p.run, verdict)


class FleetWorkload:
    """Open-loop replay into a 2-shard ``FleetFront``; fleet ≡ engine."""

    name = "fleet_2shard"
    config = FleetConfig(n_shards=FLEET_SHARDS)

    def inputs(self, seconds, seed):
        return fleet_feed(seconds, seed)

    def setup(self, calibration):
        model = pinned_model()
        capture_in_workers(model, WORKER_WINDOWS_DIR)
        front = FleetFront(model, self.config, registry=MetricsRegistry())
        if front.heartbeat():
            front.close()
            raise RuntimeError("fleet workers did not answer the first ping")
        return front

    def run(self, front, feed, seconds) -> Pass:
        pids = [child.pid for child in multiprocessing.active_children()]
        worker_windows(WORKER_WINDOWS_DIR, pids, forget=True)
        try:
            run = open_loop(feed, front.submit, front.pump,
                            WorkerClock(pids))
            hwm = sum(_vm_hwm_kb(pid) for pid in pids)
        finally:
            front.close()
        stages = front.fleet_stage_latency()
        report = front.report()
        shards = front.shard_reports().values()
        for key in ("batches", "dropped_samples", "batch_errors",
                    "windows_inferred"):
            report[key] = sum(r[key] for r in shards)
        batches = sum(r["batch_size"]["count"] for r in shards)
        report["batch_size"] = {"mean": (
            sum(r["batch_size"]["mean"] * r["batch_size"]["count"]
                for r in shards) / batches if batches else 0.0)}
        report["quarantined_streams"] = sum(
            r["health"] == "quarantined"
            for r in front.stream_report().values())
        return Pass(
            busy_s=run.busy_s, rows=feed.rows, run=run,
            windows=worker_windows(WORKER_WINDOWS_DIR, pids),
            detections=run.detections, report=report,
            stages={stage: hist.summary()["mean"]
                    for stage, hist in stages.items()} or None,
            cnn_windows=report["windows_inferred"],
            child_hwm_kb=hwm,
        )

    def check(self, p: Pass, feed, seed):
        ref = oracle.engine_reference(pinned_model(), self.config.serve,
                                      feed, solo=False)
        p.report["samples_seen"] = ref.samples_seen
        verdict = oracle.compare_windows(ref, p.windows, p.detections)
        return verdict, _open_loop_latencies(ref, feed, p.run, verdict)


class WearableWorkload:
    """One device pushing sample by sample through ``FallDetector.push``
    on the int8 model (batch of 1), closed loop."""

    name = "wearable_push"

    def inputs(self, seconds, seed):
        return wearable_recordings(seed)

    def setup(self, calibration):
        qmodel = QuantizedModel.convert(pinned_model(), calibration)
        FallDetector(qmodel, DETECTOR, registry=MetricsRegistry())
        return qmodel

    def run(self, qmodel, recordings, seconds) -> Pass:
        # The reference needs nothing from the timed pass, so it is built
        # first and each recording is checked as soon as it is pushed.
        with spans.paused():
            tally = oracle.PushTally(
                oracle.push_block_reference(qmodel, recordings))
        capture = Capture(qmodel)
        stages, seen, cnn = StageTimer(), {}, []

        def after(run, detector):
            tally.add(run, capture.take())
            stages.merge(detector.stages)
            seen[str(len(seen))] = detector.samples_seen
            cnn.append(detector.latency.count)

        try:
            runs = closed_loop(
                recordings,
                lambda: FallDetector(qmodel, DETECTOR,
                                     registry=MetricsRegistry()),
                seconds, after)
        finally:
            capture.close()
        return Pass(
            busy_s=float(sum(np.sum(r.service, dtype=float) for r in runs)),
            rows=sum(len(r.service) for r in runs), run=runs,
            qmodel=qmodel, tally=tally,
            detections={str(i): r.detections for i, r in enumerate(runs)},
            report={"samples_seen": seen},
            stages=_stage_means(stages.report()), cnn_windows=sum(cnn),
        )

    def check(self, p: Pass, recordings, seed):
        tally = p.tally
        verdict = tally.verdict
        verdict.checks["int8_equals_reference"] = (
            oracle.int8_matches_reference(
                p.qmodel, [w for ref in tally.refs for w in ref.windows],
                seed))
        latencies = []
        for run, offset in zip(p.run, tally.offsets):
            for k, w in enumerate(tally.refs[run.recording].windows):
                latencies.append(
                    None if offset + k in verdict.bad
                    else (1000.0 * float(run.service[w.row]),
                          (offset, w.row)))
        return verdict, latencies


WORKLOADS = {
    "bulk_int8": EngineWorkload("bulk_int8", bulk_feed,
                                ServeConfig(backend="int8")),
    "packets_faulty": EngineWorkload("packets_faulty", packets_feed,
                                     ServeConfig(alerts=AlertConfig())),
    "wearable_push": WearableWorkload(),
    "fleet_2shard": FleetWorkload(),
}
