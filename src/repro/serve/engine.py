"""Micro-batched multi-stream inference engine.

The single-stream :class:`~repro.core.detector.FallDetector` costs one
batch-of-1 ``Model.predict`` per due window — N concurrent wearables cost
N full forwards.  :class:`ServeEngine` amortises that: it accepts
interleaved ``(stream_id, accel, gyro, t)`` samples into bounded
per-stream queues, advances every session's filter/ring-buffer state, and
collects *all* windows that come due across sessions into **one** batched
``Model.predict`` call per inference round.

Correctness contract
--------------------
* **Isolation** — every stream owns its full detector state; a stream
  feeding NaNs, gaps or garbage degrades only itself.  A model exception
  on a batch is retried per window so one poisoned window cannot take
  detections away from healthy streams, and a session whose detector
  breaks its never-raises promise is quarantined, not propagated.
* **Bitwise reproducibility** — batched forwards run under
  :func:`repro.nn.batch_invariant`, so a stream's probabilities (and
  therefore its detections) are byte-identical no matter which other
  streams share its batches; a solo run of the same stream through an
  engine reproduces them exactly.
* **Deadline pressure** — every window is charged the wall-clock of the
  whole batch it rode in (its result is not available any earlier).
  Sustained violations trip the per-stream detector's load shedding
  exactly like the single-stream path: that stream's CNN is shed and its
  :class:`~repro.core.detector.MagnitudeFallback` becomes authoritative
  until the retry probe succeeds, while other streams keep the CNN.

Throughput, batch-size/latency histograms, queue depths and per-stream
deadline violations are exported through :mod:`repro.obs`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..alerts import AlertConfig, AlertManager
from ..core.detector import Detection, DetectorConfig
from ..nn.config import batch_invariant
from ..obs import (
    FlightConfig,
    Histogram,
    SLOConfig,
    SLOTracker,
    StageTimer,
    get_logger,
    get_registry,
    stage_attribution,
)
from .session import StreamSession

__all__ = ["ServeConfig", "ServeEngine"]

_logger = get_logger(__name__)

#: Batch-size histogram edges: exact buckets for the small batches that
#: dominate, then powers of two up to 4096 windows.
_BATCH_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
_LATENCY_BUCKETS_MS = tuple(0.01 * 2 ** i for i in range(23))


@dataclass(frozen=True)
class ServeConfig:
    """Engine-level knobs; per-stream behaviour lives in ``detector``."""

    detector: DetectorConfig = field(default_factory=DetectorConfig)
    #: Numeric backend for the window model: ``"float32"`` serves the
    #: float graph as-is; ``"int8"`` converts it once at engine
    #: construction (post-training quantization, needs ``calibration``
    #: windows unless the model is already a
    #: :class:`~repro.quant.QuantizedModel`) and routes every forward —
    #: batched rounds and the per-window retry path alike — through the
    #: batched integer kernels.
    backend: str = "float32"
    #: Bounded per-stream queue; when full the *oldest* sample is shed
    #: (freshest data wins — a pre-impact detector must not fall behind).
    queue_capacity: int = 512
    #: Hard cap on concurrent sessions; submits for new streams beyond it
    #: are rejected (and counted) instead of growing without bound.
    max_streams: int = 4096
    #: Run batched forwards under :func:`repro.nn.batch_invariant` so
    #: results are independent of batch composition.  Disable only when
    #: last-ulp reproducibility matters less than raw BLAS throughput.
    batch_invariant: bool = True
    metric_prefix: str = "serve"
    #: Give each stream its own metric namespace
    #: (``<prefix>/stream/<id>/...``).  Disable to share one namespace
    #: when stream cardinality would flood the registry.
    per_stream_metrics: bool = True
    #: Attach a :class:`repro.obs.FlightRecorder` with this config to
    #: every session, so incidents (detections, shedding, health flips,
    #: quarantines) freeze the stream's recent history to disk.  ``None``
    #: serves without flight recording.
    flight: FlightConfig | None = None
    #: Attach an :class:`repro.alerts.AlertManager` with this config:
    #: every detection feeds the per-stream escalation machines, alerts
    #: are deduped fleet-wide, demoted on bad stream health, persisted
    #: to the configured event store and exported as ``alerts/*``
    #: metrics.  ``None`` serves without the alert pipeline.
    alerts: AlertConfig | None = None
    #: SLO objectives + burn-rate policy (:class:`repro.obs.SLOConfig`).
    #: Armed by default — the tracker is a few counters per round; every
    #: window completion feeds the error budgets, and burn-rate alerts
    #: ride the attached :class:`~repro.alerts.AlertManager` (no-op
    #: without one).  ``None`` disables SLO tracking.
    slo: SLOConfig | None = field(default_factory=SLOConfig)

    def __post_init__(self):
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.max_streams < 1:
            raise ValueError("max_streams must be >= 1")
        if self.backend not in ("float32", "int8"):
            raise ValueError(
                f"backend must be 'float32' or 'int8', got {self.backend!r}"
            )


class ServeEngine:
    """Cross-stream micro-batching scheduler around one window model.

    Usage::

        engine = ServeEngine(model)
        for sample in telemetry:               # interleaved streams
            engine.submit(sample.stream_id, sample.accel, sample.gyro,
                          t=sample.t)
        for stream_id, detection in engine.step():   # drain + infer
            fire_airbag(stream_id, detection)
    """

    def __init__(self, model, config: ServeConfig | None = None, *,
                 registry=None, latency_clock=None, stage_clock=None,
                 calibration=None):
        if model is None:
            raise ValueError(
                "ServeEngine needs a window model; a fallback-only "
                "deployment does not benefit from batching"
            )
        self.config = config or ServeConfig()
        self.registry = registry if registry is not None else get_registry()
        self._sessions: dict[str, StreamSession] = {}
        cfg = self.config
        window_n = cfg.detector.window_samples
        self.model = self._resolve_backend(model, calibration, window_n)
        self._empty_batch = np.empty((0, window_n, 9))
        prefix = cfg.metric_prefix
        self.registry.gauge(f"{prefix}/backend_int8").set(
            1.0 if cfg.backend == "int8" else 0.0)
        self._batch_size_hist = self.registry.histogram(
            f"{prefix}/batch_size", buckets=_BATCH_BUCKETS)
        self._batch_latency_hist = self.registry.histogram(
            f"{prefix}/batch_latency_ms", buckets=_LATENCY_BUCKETS_MS)
        self._queue_depth_gauge = self.registry.gauge(f"{prefix}/queue_depth")
        self._active_gauge = self.registry.gauge(f"{prefix}/active_streams")
        # Hot-path totals accumulate as plain ints and sync to registry
        # counters once per step — per-sample lock traffic would tax the
        # very throughput this engine exists to buy.
        self.samples_in = 0
        self.dropped_samples = 0
        self.rejected_streams = 0
        self.windows_inferred = 0
        self.batches = 0
        self.batch_errors = 0
        self.stream_errors = 0
        self.detections = 0
        self._synced: dict[str, int] = {}
        self._inference_s = 0.0
        # Deepest any stream's queue got since the last step — bursty
        # submits between steps are otherwise invisible to the gauge.
        self._peak_queue_depth = 0
        #: Fleet alert pipeline (``None`` unless ``config.alerts``).
        self.alerts = (AlertManager(cfg.alerts, registry=self.registry)
                       if cfg.alerts is not None else None)
        # Injectable clocks: `latency_clock` times the batched forward
        # (swap in a synthetic clock to drive overload scenarios and
        # burn-rate tests deterministically); `stage_clock` reaches each
        # session's detector StageTimer.
        self._clock = (latency_clock if latency_clock is not None
                       else time.perf_counter)
        self._stage_clock = stage_clock
        #: SLO tracker (``None`` when ``config.slo`` is).  Driven on
        #: stream time, so burn-rate behaviour is deterministic.
        self.slo = (SLOTracker(cfg.slo, registry=self.registry,
                               alerts=self.alerts)
                    if cfg.slo is not None else None)
        self.rounds = 0
        #: Stream time of the latest completed step — the liveness stamp
        #: ``/healthz`` reports so "serving" and "stuck" look different.
        self.last_round_t: float | None = None
        self._latest_t: float | None = None

    # ------------------------------------------------------------------
    # backend
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """Numeric backend serving this engine's forwards."""
        return self.config.backend

    def _resolve_backend(self, model, calibration, window_n: int):
        """Materialize the configured backend's model, converting once.

        ``backend="int8"`` accepts either a float model plus
        ``calibration`` windows (converted here, post-training) or an
        already-converted :class:`~repro.quant.QuantizedModel` (so a
        pruned+quantized model can be served directly).  The integer
        kernels are batch-invariant by construction — no float matmul is
        involved — and this asserts it on a probe batch rather than
        trusting the construction.
        """
        if self.config.backend == "float32":
            return model
        from ..quant.qmodel import QuantizedModel

        if isinstance(model, QuantizedModel):
            quantized = model
        else:
            if calibration is None:
                raise ValueError(
                    "backend='int8' needs `calibration` windows to "
                    "convert the float model (or pass an already-"
                    "converted QuantizedModel)"
                )
            quantized = QuantizedModel.convert(
                model, np.asarray(calibration, dtype=np.float32))
        self._assert_batch_invariant(quantized, window_n)
        return quantized

    @staticmethod
    def _assert_batch_invariant(quantized, window_n: int) -> None:
        """Probe: batched int8 predictions must be bitwise equal to the
        same windows predicted one at a time."""
        rng = np.random.default_rng(0)
        probe = rng.normal(0.0, 1.0, size=(2, window_n, 9))
        together = quantized.predict(probe)
        singly = np.concatenate(
            [quantized.predict(probe[i : i + 1]) for i in range(len(probe))]
        )
        if not np.array_equal(together, singly):
            raise AssertionError(
                "int8 backend is not batch-invariant: batched probe "
                "predictions differ bitwise from solo predictions"
            )

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def session(self, stream_id: str) -> StreamSession:
        """Get or create the session for ``stream_id``."""
        session = self._sessions.get(stream_id)
        if session is None:
            if len(self._sessions) >= self.config.max_streams:
                raise KeyError(
                    f"stream limit reached ({self.config.max_streams}); "
                    f"cannot admit {stream_id!r}"
                )
            session = StreamSession(
                stream_id,
                self.model,
                self.config.detector,
                registry=self.registry,
                metric_prefix=f"{self.config.metric_prefix}/stream",
                per_stream_metrics=self.config.per_stream_metrics,
                flight=self.config.flight,
                stage_clock=self._stage_clock,
            )
            self._sessions[stream_id] = session
        return session

    def submit(self, stream_id: str, accel_g, gyro_dps,
               t: float | None = None) -> bool:
        """Enqueue one sample; False when it was shed or rejected.

        Never raises on load: an unknown stream beyond ``max_streams`` is
        rejected and counted, a full queue sheds its oldest sample, and a
        quarantined stream's samples are dropped.
        """
        session = self._sessions.get(stream_id)
        if session is None:
            try:
                session = self.session(stream_id)
            except KeyError:
                self.rejected_streams += 1
                return False
        if session.quarantined:
            self.dropped_samples += 1
            return False
        queue = session.queue
        if len(queue) >= self.config.queue_capacity:
            queue.popleft()
            session.dropped_samples += 1
            self.dropped_samples += 1
        queue.append((accel_g, gyro_dps, t))
        if len(queue) > self._peak_queue_depth:
            self._peak_queue_depth = len(queue)
        self.samples_in += 1
        if t is not None and (self._latest_t is None or t > self._latest_t):
            # Fleet stream clock: drives alert confirm-window expiry and
            # auto-resolve even on rounds with no detections.
            self._latest_t = float(t)
        return True

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def step(self) -> list[tuple[str, Detection]]:
        """Drain every queue and run the due windows in micro-batches.

        Each session's whole queue is ingested as one vectorized
        ``push_block`` (bit-identical to a per-sample loop with
        completes deferred to the block boundary), then one batched
        forward runs for all staged windows across streams; rounds repeat
        until every queue is empty.  The queue-depth gauge reports the
        deepest any stream's queue got since the previous step (burst
        peaks included), then settles to the post-drain depth so tail
        readers see steady-state 0 between bursts.  Returns
        ``(stream_id, detection)`` pairs in processing order.
        """
        detections: list[tuple[str, Detection]] = []
        sessions = self._sessions.values()
        depth = max((len(s.queue) for s in sessions), default=0)
        self._queue_depth_gauge.set(float(max(depth, self._peak_queue_depth)))
        self._peak_queue_depth = 0
        first_round = True
        while True:
            staged = self._advance_round(detections)
            if not staged and not first_round:
                break
            self._infer_batch(staged, detections)
            first_round = False
            if not staged:
                break
        self._queue_depth_gauge.set(
            float(max((len(s.queue) for s in sessions), default=0)))
        self.rounds += 1
        if self._latest_t is not None:
            self.last_round_t = self._latest_t
        if self.slo is not None:
            # Evaluate burn rates on stream time (falls back to the
            # tracker's own clock when no sample ever carried one).
            self.slo.evaluate(now=self._latest_t)
        if self.alerts is not None:
            self._feed_alerts(detections)
        self._sync_metrics()
        return detections

    def _advance_round(self, detections) -> list[StreamSession]:
        """Drain each session's queue as one vectorized block; returns
        the sessions that staged windows this round."""
        staged_sessions = []
        for session in self._sessions.values():
            if session.quarantined:
                session.queue.clear()
                continue
            if not session.queue:
                continue
            try:
                accel, gyro, t = session.drain_block()
                hits, requests = session.detector.push_block(accel, gyro, t)
            except Exception:
                self._quarantine(session)
                continue
            for hit in hits:
                session.detections += 1
                self.detections += 1
                detections.append((session.stream_id, hit))
            if requests:
                session.staged = requests
                staged_sessions.append(session)
        return staged_sessions

    def _infer_batch(self, staged_sessions, detections) -> None:
        """One batched forward for every staged window, then fan-out."""
        pairs = [(session, request) for session in staged_sessions
                 for request in session.staged]
        for session in staged_sessions:
            session.staged = []
        if pairs:
            batch = np.stack([request.window for _, request in pairs])
        else:
            batch = self._empty_batch
        t0 = self._clock()
        try:
            with batch_invariant(self.config.batch_invariant):
                out = np.asarray(self.model.predict(batch))
            # (k, 1) sigmoid outputs -> (k,).  reshape(-1) on the empty
            # batch relies on predict keeping the model's output shape
            # for zero-row input (reshape(0, -1) would be ambiguous).
            probs = (out.reshape(len(pairs), -1)[:, 0] if pairs
                     else out.reshape(-1))
        except Exception:
            self.batch_errors += 1
            _logger.exception(
                "batched inference raised for %d windows; retrying "
                "per window", len(pairs),
            )
            self._infer_singly(pairs, detections)
            return
        latency_ms = 1000.0 * (self._clock() - t0)
        self._inference_s += latency_ms / 1000.0
        self.batches += 1
        self.windows_inferred += len(pairs)
        self._batch_size_hist.observe(len(pairs))
        if pairs:
            self._batch_latency_hist.observe(latency_ms)
        for (session, request), prob in zip(pairs, probs):
            self._complete(session, request, prob, latency_ms, False,
                           detections)
        if self.slo is not None and pairs:
            self._record_slo(latency_ms, len(pairs))

    def _infer_singly(self, pairs, detections) -> None:
        """Batch failed: isolate the poison by retrying one window at a
        time, so healthy streams still get their CNN verdicts."""
        for session, request in pairs:
            t0 = self._clock()
            try:
                with batch_invariant(self.config.batch_invariant):
                    prob = float(np.asarray(
                        self.model.predict(request.window[None])
                    ).reshape(-1)[0])
            except Exception:
                self._complete(session, request, None, 0.0, True, detections)
                continue
            latency_ms = 1000.0 * (self._clock() - t0)
            self._inference_s += latency_ms / 1000.0
            self.windows_inferred += 1
            self._complete(session, request, prob, latency_ms, False,
                           detections)
            if self.slo is not None:
                self._record_slo(latency_ms, 1)

    def _record_slo(self, latency_ms: float, n: int) -> None:
        """Charge ``n`` completed windows to the error budgets.

        Every rider of a batch is charged the batch's wall-clock, exactly
        as the detector's deadline accounting does; ``now`` is stream
        time so burn-rate windows advance deterministically.
        """
        self.slo.record(
            latency_ms=latency_ms,
            deadline_miss=(latency_ms
                           > self.config.detector.effective_deadline_ms),
            n=n,
            now=self._latest_t,
        )

    def _complete(self, session, request, prob, latency_ms, failed,
                  detections) -> None:
        try:
            hit = session.detector.complete(
                request, prob, latency_ms=latency_ms, failed=failed,
            )
        except Exception:
            self._quarantine(session)
            return
        if hit is not None:
            session.detections += 1
            self.detections += 1
            detections.append((session.stream_id, hit))

    def _feed_alerts(self, detections) -> None:
        """Escalate this round's detections and advance alert timers.

        The manager's entry points are fail-safe (they contain their own
        exceptions), so alerting can never stall or poison the serve
        path — the same containment story as the AirbagController.
        """
        for stream_id, detection in detections:
            session = self._sessions.get(stream_id)
            self.alerts.observe(
                stream_id,
                t=detection.time_s,
                probability=detection.probability,
                source=detection.source,
                health=session.health if session is not None else "healthy",
                recorder=session.recorder if session is not None else None,
            )
        if self._latest_t is not None:
            self.alerts.tick(self._latest_t)

    def _quarantine(self, session) -> None:
        session.errors += 1
        session.quarantined = True
        session.queue.clear()
        session.staged = []
        self.stream_errors += 1
        if session.recorder is not None:
            # The most valuable capture of all: what the stream looked
            # like right before its detector broke the no-raise promise.
            session.recorder.mark("quarantined")
            session.recorder.flush()
        _logger.exception(
            "detector for stream %r raised; quarantining the session",
            session.stream_id,
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _sync_metrics(self) -> None:
        self._active_gauge.set(float(len(self._sessions)))
        prefix = self.config.metric_prefix
        for name in ("samples_in", "dropped_samples", "rejected_streams",
                     "windows_inferred", "batches", "batch_errors",
                     "stream_errors", "detections"):
            total = getattr(self, name)
            delta = total - self._synced.get(name, 0)
            if delta:
                self.registry.counter(  # metric-name: dynamic
                    f"{prefix}/{name}").inc(delta)
                self._synced[name] = total

    @property
    def inference_seconds(self) -> float:
        """Cumulative wall-clock spent inside ``Model.predict``."""
        return self._inference_s

    @property
    def stream_ids(self) -> list[str]:
        return list(self._sessions)

    def stream_report(self) -> dict:
        """Per-stream health/counter view (see ``StreamSession.report``)."""
        return {sid: session.report()
                for sid, session in self._sessions.items()}

    def stream_health(self, stream_id: str) -> str:
        """Health state of one stream (``healthy`` for unknown streams)."""
        session = self._sessions.get(stream_id)
        return session.health if session is not None else "healthy"

    def fleet_latency(self) -> Histogram:
        """Every stream's per-window latency merged into one histogram.

        The per-stream histograms live on the detectors (identical bucket
        edges), so the fleet view is an exact merge, not an estimate.
        Returns a fresh histogram; pass it to
        :func:`repro.obs.render_exposition` via ``extra=`` — merging into
        the registry would double-count the per-stream series.
        """
        fleet = Histogram(buckets=_LATENCY_BUCKETS_MS)
        for session in self._sessions.values():
            fleet.merge(session.detector.latency)
        return fleet

    def fleet_stages(self) -> StageTimer | None:
        """Every stream's per-stage attribution merged into one timer.

        Stage histograms live off-registry on the detectors (see
        :class:`repro.obs.StageTimer`), so like :meth:`fleet_latency`
        this is an exact merge.  ``None`` when stage timing is disabled.
        """
        fleet = None
        for session in self._sessions.values():
            stages = session.detector.stages
            if stages is None:
                continue
            if fleet is None:
                fleet = StageTimer()
            fleet.merge(stages)
        return fleet

    def slo_report(self) -> dict | None:
        """SLO + budget-attribution view: error-budget status per
        objective, burn-rate state per rule, and the per-stage latency
        attribution against the airbag budget.  ``None`` when SLO
        tracking is disabled."""
        if self.slo is None:
            return None
        report = self.slo.report(now=self._latest_t)
        fleet = self.fleet_stages()
        if fleet is not None:
            stage_report = fleet.report()
            report["stages"] = stage_report
            report["attribution"] = stage_attribution(
                stage_report, self.config.slo.latency_budget_ms)
        return report

    def incident_paths(self) -> list[str]:
        """Incident files written by every stream's flight recorder."""
        return [path for session in self._sessions.values()
                if session.recorder is not None
                for path in session.recorder.incident_paths]

    def flush_incidents(self) -> int:
        """Freeze any pending captures (shutdown / end of bench); returns
        how many incidents were flushed."""
        flushed = 0
        for session in self._sessions.values():
            if (session.recorder is not None
                    and session.recorder.flush() is not None):
                flushed += 1
        return flushed

    def report(self) -> dict:
        """Engine-level serving summary."""
        out = self._base_report()
        if self.alerts is not None:
            out["alerts"] = self.alerts.report()
        if self.slo is not None:
            out["slo"] = self.slo_report()
        return out

    def _base_report(self) -> dict:
        return {
            "backend": self.config.backend,
            "streams": len(self._sessions),
            "rounds": self.rounds,
            "last_round_t": self.last_round_t,
            "samples_in": self.samples_in,
            "dropped_samples": self.dropped_samples,
            "rejected_streams": self.rejected_streams,
            "windows_inferred": self.windows_inferred,
            "batches": self.batches,
            "batch_errors": self.batch_errors,
            "stream_errors": self.stream_errors,
            "detections": self.detections,
            "inference_seconds": self._inference_s,
            "batch_size": self._batch_size_hist.summary(),
            "batch_latency_ms": self._batch_latency_hist.summary(),
        }
