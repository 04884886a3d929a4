"""Streaming real-time fall detector and airbag controller.

This is the deployment-side view of the method: the firmware fuses Euler
angles, low-pass filters the 9-channel stream *causally* (zero-phase
filtering needs the future, so real time uses the forward-only
Butterworth — same coefficients), keeps the last window of samples and
runs the CNN every hop.  One implementation ingests samples,
:meth:`FallDetector.push_block`, vectorized over whatever block the
caller has; a wearable that sees one 100 Hz sample at a time calls
:meth:`FallDetector.push`, which is a one-row block.

Unlike the offline pipeline, the live path cannot assume a perfect
stream.  Ingestion therefore validates and repairs every sample
(NaN/Inf → hold-last, rail clamping), bridges short timestamp gaps by
interpolation, resets and re-primes its streaming state after long ones,
and tracks a three-state health machine:

``healthy``
    Clean stream, CNN path nominal.
``degraded``
    Recoverable trouble — repaired samples, filled gaps, a warm-up after
    a long-gap reset, stuck channels, or a deadline-violation streak.
    The CNN remains authoritative; the fallback shadows it.
``fault``
    The CNN path is unusable — no model, inference raised or returned
    non-finite, the deadline was missed ``shed_after_violations`` times in
    a row (load shedding), or the gyroscope is dead.  The cheap
    accelerometer-magnitude fallback becomes authoritative so the airbag
    is never left unguarded.

Transitions: any anomaly lifts ``healthy`` to ``degraded``; a standing
fault condition forces ``fault``; once the condition clears the state
steps down one level, reaching ``healthy`` after ``recovery_samples``
consecutive clean samples.  Counters and the current state are exported
through the :mod:`repro.obs` metrics registry.

:class:`AirbagController` adds the actuation logic: a single trigger
commits to inflation, which takes 150 ms to complete — the reason the
paper withholds the last 150 ms of the falling phase from training.  The
controller is *fail-safe*: a misbehaving detector can never disarm it (an
exception from ``push`` is contained and counted), and fallback-sourced
detections fire the bag exactly like CNN ones.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from ..obs import Histogram, StageTimer, get_logger, get_registry
from ..signal.filters import OnlineSosFilter, butter_lowpass_sos
from ..signal.orientation import ComplementaryFilter

__all__ = [
    "DetectorConfig",
    "Detection",
    "WindowRequest",
    "FallDetector",
    "MagnitudeFallback",
    "AirbagController",
    "HEALTHY",
    "DEGRADED",
    "FAULT",
    "HEALTH_STATES",
]

_logger = get_logger(__name__)

#: Histogram edges tuned for inference latency in milliseconds: 10 µs
#: resolution at the bottom, covering up to ~84 s in the overflow tail.
_LATENCY_BUCKETS_MS = tuple(0.01 * 2 ** i for i in range(23))

#: Detector health states, in increasing order of severity.
HEALTHY = "healthy"
DEGRADED = "degraded"
FAULT = "fault"
HEALTH_STATES = (HEALTHY, DEGRADED, FAULT)
_HEALTH_LEVEL = {HEALTHY: 0, DEGRADED: 1, FAULT: 2}

#: Bootstrap for hold-last repair before any finite sample was seen:
#: 1 g gravity on z for the accelerometer, zero rates for the gyro.
_REPAIR_DEFAULTS = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
_REPAIR_DEFAULTS.setflags(write=False)
#: The "previous sample" of a stream's first sample: equal to nothing.
_NAN_ROW = np.full((1, 6), np.nan)
_NAN_ROW.setflags(write=False)

#: ``any``/``all`` as bare ufunc reductions (``axis`` positional, ``None``
#: for the whole array): ``ndarray.any``/``all`` add a Python-level
#: wrapper per call, which shows on the one-row blocks ``push`` feeds.
_any = np.logical_or.reduce
_all = np.logical_and.reduce


def _running_streak(cond: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Per-column lengths of consecutive True runs, seeded by ``start``.

    Row ``i`` holds what ``s = np.where(cond[i], s + 1, 0)`` applied row
    by row would: within the block a streak is (1-based row) minus the
    last False row, and runs unbroken since row 0 continue the carried
    ``start``.  Exact integer arithmetic — bit-identity is trivial.
    """
    idx = np.arange(1, cond.shape[0] + 1)[:, None]
    last_false = np.maximum.accumulate(np.where(cond, 0, idx), axis=0)
    streak = idx - last_false
    return np.where(last_false == 0, streak + start, streak)


@dataclass(frozen=True)
class DetectorConfig:
    """Runtime configuration of the streaming detector (paper defaults)."""

    window_ms: float = 400.0
    overlap: float = 0.5
    fs: float = 100.0
    threshold: float = 0.5
    filter_cutoff_hz: float = 5.0
    filter_order: int = 4
    #: Must match the training-time ``PreprocessConfig.channel_scales``.
    channel_scales: tuple = (1.0, 1.0, 1.0, 100.0, 100.0, 100.0,
                             45.0, 45.0, 45.0)
    #: Debounce: require this many *consecutive* above-threshold windows
    #: before emitting a detection.  1 = trigger on the first hit (the
    #: paper's event rule); 2 trades ~hop_ms of latency for fewer false
    #: activations (see the ablation benchmark).
    consecutive_required: int = 1
    #: Real-time deadline for one window inference, in milliseconds.
    #: ``None`` uses the hop interval — inference slower than the hop
    #: cannot keep up with the 100 Hz stream.  The deadline monitor counts
    #: every violation and keeps a latency histogram.
    deadline_ms: float | None = None
    #: Sensor rails: readings outside these ranges are clamped and counted
    #: as saturation anomalies (a ±16 g / ±2000 dps IMU, the usual wearable
    #: part).
    accel_range_g: float = 16.0
    gyro_range_dps: float = 2000.0
    #: Longest timestamp gap bridged by interpolated fill samples; anything
    #: longer resets the streaming state (filter, fusion, ring buffer) and
    #: re-primes from the next sample.
    max_gap_ms: float = 200.0
    #: Consecutive deadline violations that mark the stream ``degraded``.
    degraded_after_violations: int = 3
    #: Consecutive deadline violations that shed the CNN (``fault``); the
    #: fallback takes over and the CNN is retried after
    #: ``shed_retry_hops`` hops.
    shed_after_violations: int = 8
    shed_retry_hops: int = 25
    #: Clean samples required to step health back toward ``healthy``.
    recovery_samples: int = 50
    #: A channel repeating the same value this many samples is stuck (real
    #: IMU noise never repeats exactly); a sensor with all three channels
    #: stuck (or non-finite) this long is dead.
    stuck_channel_samples: int = 25
    dead_sensor_samples: int = 100
    #: Arm the accelerometer-magnitude fallback detector.  When the CNN
    #: path is unavailable (``fault``, or its window still warming up) the
    #: fallback's triggers are emitted so the airbag stays guarded.
    fallback: bool = True
    #: Per-stage latency attribution (:class:`repro.obs.StageTimer`):
    #: paired clock reads around each pipeline stage, flushed into
    #: off-registry histograms on every completed window.  The clock
    #: reads cannot perturb the data path, so ``push_block`` stays
    #: bit-identical to the per-sample reference in
    #: ``tests/detector_oracle.py`` with timing enabled; the overhead is
    #: a handful of ``perf_counter`` calls per block.
    stage_timing: bool = True

    def __post_init__(self):
        if self.consecutive_required < 1:
            raise ValueError(
                f"consecutive_required must be >= 1, got "
                f"{self.consecutive_required}"
            )
        if self.deadline_ms is not None and self.deadline_ms < 0:
            raise ValueError(
                f"deadline_ms must be non-negative, got {self.deadline_ms}"
            )
        if self.accel_range_g <= 0 or self.gyro_range_dps <= 0:
            raise ValueError("sensor ranges must be positive")
        if self.max_gap_ms < 0:
            raise ValueError("max_gap_ms must be non-negative")
        if not (1 <= self.degraded_after_violations
                <= self.shed_after_violations):
            raise ValueError(
                "need 1 <= degraded_after_violations <= shed_after_violations"
            )

    @property
    def window_samples(self) -> int:
        return int(round(self.window_ms * self.fs / 1000.0))

    @property
    def hop_samples(self) -> int:
        return max(1, int(round(self.window_samples * (1.0 - self.overlap))))

    @property
    def effective_deadline_ms(self) -> float:
        """The configured deadline, defaulting to the hop interval."""
        if self.deadline_ms is not None:
            return self.deadline_ms
        return 1000.0 * self.hop_samples / self.fs


@dataclass(frozen=True)
class Detection:
    """One detector firing.  ``source`` is ``"cnn"`` for the model path,
    ``"fallback"`` for the magnitude threshold path."""

    sample_index: int
    time_s: float
    probability: float
    source: str = "cnn"


@dataclass(frozen=True)
class WindowRequest:
    """One CNN window inference staged by :meth:`FallDetector.push_block`.

    Captures everything the deferred decision needs at staging time: a
    *copy* of the filtered/scaled window (the window buffer keeps
    moving), the sample index and timestamp the eventual
    :class:`Detection` must carry, and whether the magnitude fallback
    fired on that sample (so a failed inference still falls back on
    that sample).  Pass it back to :meth:`FallDetector.complete` with
    the model's probability.
    """

    window: np.ndarray
    sample_index: int
    time_s: float
    fallback_hit: bool


class MagnitudeFallback:
    """Streaming accelerometer-magnitude detector (PIPTO-style, accel only).

    The fail-safe twin of the CNN: a trailing-average magnitude dip below
    ``low_g`` arms a watch window; if the raw magnitude range inside the
    next ``horizon_ms`` exceeds ``range_g`` (the growing agitation of an
    uncontrolled descent) it triggers.  Needs nothing but the repaired
    accelerometer stream, so it survives every gyro/fusion/CNN failure.

    Tuned slightly hotter than the offline
    :class:`~repro.core.thresholds.AccelerationWindowDetector` — a backup
    guarding an airbag should prefer a spurious inflation to an
    unprotected impact.
    """

    def __init__(
        self,
        fs: float = 100.0,
        low_g: float = 0.90,
        range_g: float = 0.12,
        smooth_ms: float = 60.0,
        horizon_ms: float = 350.0,
    ):
        self.fs = float(fs)
        self.low_g = float(low_g)
        self.range_g = float(range_g)
        self._k = max(1, int(round(smooth_ms * fs / 1000.0)))
        self._horizon = max(2, int(round(horizon_ms * fs / 1000.0)))
        self.reset()

    def reset(self) -> None:
        # Trailing magnitudes for the smoother; deque pops are O(1).
        self._window = deque(maxlen=self._k)
        self._watch_left = 0
        self._mag_min = np.inf
        self._mag_max = -np.inf

    def push(self, accel_g: np.ndarray) -> bool:
        """Feed one repaired accel sample; True when the dip+range fires."""
        # math.sqrt over an explicit sum matches np.linalg.norm bitwise on
        # a 3-vector (same left-to-right accumulation) at a fraction of
        # the per-call dispatch cost.  FallDetector.push_block vectorises
        # the same expression (elementwise, same association) and feeds
        # push_mag directly.
        x, y, z = accel_g
        return self.push_mag(math.sqrt(x * x + y * y + z * z))

    def push_mag(self, mag: float) -> bool:
        """Feed one precomputed magnitude (see :meth:`push`)."""
        self._window.append(mag)
        smooth = sum(self._window) / len(self._window)
        if smooth < self.low_g:
            if self._watch_left <= 0:      # new episode: reset the extremes
                self._mag_min = mag
                self._mag_max = mag
            self._watch_left = self._horizon
        if self._watch_left > 0:
            self._watch_left -= 1
            self._mag_min = min(self._mag_min, mag)
            self._mag_max = max(self._mag_max, mag)
            if self._mag_max - self._mag_min >= self.range_g:
                self._watch_left = 0       # re-arm via the next dip
                return True
        return False


class FallDetector:
    """Streaming detector around any trained window model.

    ``model`` is anything with ``predict(x)`` accepting ``(1, window, 9)``
    and returning a sigmoid probability — a float :class:`repro.nn.Model`
    or a quantized :class:`repro.quant.QuantizedModel`.  ``model=None``
    disables the CNN branch entirely: the detector runs fallback-only and
    reports ``fault`` health (the primary path is unavailable).

    ``push``/``push_block`` never raise on bad *data* (non-finite
    readings, saturated rails, missing samples, a dead sensor) and never
    emit a non-finite probability; see the module docstring for the
    health state machine.

    ``registry`` / ``metric_prefix`` namespace the exported metrics per
    instance.  The defaults (the process-wide registry, prefix
    ``"detector"``) keep the historical single-detector metric names;
    anything running several detectors in one process — tests, the
    multi-stream serving engine — must pass a distinct prefix (or its own
    registry) per instance, otherwise all instances write the same
    ``detector/health`` gauge and share one set of counters.
    """

    def __init__(
        self,
        model,
        config: DetectorConfig | None = None,
        *,
        registry=None,
        metric_prefix: str = "detector",
        recorder=None,
        stage_clock=None,
    ):
        self.model = model
        self.config = config or DetectorConfig()
        #: Optional :class:`repro.obs.FlightRecorder` riding along; the
        #: detector feeds it every sample/window/decision/health event.
        self.recorder = recorder
        cfg = self.config
        sos = butter_lowpass_sos(cfg.filter_order, cfg.filter_cutoff_hz, cfg.fs)
        self._filter = OnlineSosFilter(sos, channels=9)
        self._fusion = ComplementaryFilter(fs=cfg.fs)
        # Hot-path constants: push() runs per sample, so resolve the
        # config-derived values once instead of per call.
        self._window_n = cfg.window_samples
        self._hop_n = cfg.hop_samples
        self._deadline = cfg.effective_deadline_ms
        self._dt_nom = 1.0 / cfg.fs
        self._buffer = np.zeros((self._window_n, 9))
        self._scales = np.asarray(cfg.channel_scales, dtype=float)
        self._rails = np.array([cfg.accel_range_g] * 3
                               + [cfg.gyro_range_dps] * 3)
        self._fallback = MagnitudeFallback(fs=cfg.fs) if cfg.fallback else None
        # Deadline monitor: one latency sample per window inference.  A
        # perf_counter pair per hop (every ~200 ms of stream) is noise next
        # to the CNN forward pass, so this is always on.
        self.latency = Histogram(buckets=_LATENCY_BUCKETS_MS)
        # Stage-level budget attribution.  Off-registry, like `latency`:
        # the block bit-identity suite compares registry snapshots, and
        # wall-clock stage costs are legitimately different between the
        # two arms.  `stage_clock` is injectable for deterministic tests.
        self.stages = (StageTimer(clock=stage_clock)
                       if cfg.stage_timing else None)
        self._deadline_violations = 0
        self._metrics = registry if registry is not None else get_registry()
        self._metric_prefix = str(metric_prefix)
        self._health_gauge = self._metrics.gauge(
            f"{self._metric_prefix}/health"
        )
        self._init_stream_state()
        self._init_health_state()
        if recorder is not None:
            recorder.bind(
                config=asdict(cfg),
                has_model=model is not None,
                snapshot_fn=lambda: {
                    "health": self.health_report(),
                    "latency": self.latency_report(),
                },
            )

    def _counter(self, name: str):
        """A registry counter under this instance's metric namespace."""
        return self._metrics.counter(  # metric-name: dynamic
            f"{self._metric_prefix}/{name}")

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------
    def _init_stream_state(self) -> None:
        self._filter.reset()
        self._fusion.reset()
        self._buffer[:] = 0.0
        self._filled = 0
        self._since_last_inference = 0

    def _init_health_state(self) -> None:
        self._sample_index = -1
        self._hit_streak = 0
        self._health = HEALTHY
        self._health_gauge.set(0.0)
        self._transitions: list[tuple[int, str, str]] = []
        self._clean_streak = 0
        self._consecutive_violations = 0
        self._cnn_shed = False
        self._shed_hops_left = 0
        # push_block pins the dead-sensor flags to each row's epoch while
        # replaying decisions (the streak arrays already hold end-of-block
        # state by then); None outside the block control loop.
        self._dead_override: tuple[bool, bool] | None = None
        self._last_t: float | None = None
        self._last_raw: np.ndarray | None = None   # last repaired 6-vector
        self._prev_fill_anchor: np.ndarray | None = None
        self._prev_raw_exact: np.ndarray | None = None
        self._channel_stuck_streak = np.zeros(6, dtype=int)
        self._sensor_bad_streak = np.zeros(2, dtype=int)  # accel, gyro
        self.repaired_samples = 0
        self.saturated_samples = 0
        self.gap_filled_samples = 0
        self.stream_resets = 0
        self.clock_anomalies = 0
        self.inference_errors = 0
        self.fallback_detections = 0
        if self._fallback is not None:
            self._fallback.reset()
        if self._standing_fault():      # e.g. constructed without a model
            self._health = FAULT
            self._health_gauge.set(float(_HEALTH_LEVEL[FAULT]))

    def reset(self, *, preserve_latency_stats: bool = False) -> None:
        """Forget all streaming state — a reset detector is
        indistinguishable from a freshly constructed one.

        That includes the debounce streak, the health machine and the
        deadline monitor.  Pass ``preserve_latency_stats=True`` to keep the
        latency histogram and violation counter across trials when the
        statistics should describe the deployment rather than one stream
        (e.g. ``repro profile``).
        """
        self._init_stream_state()
        self._init_health_state()
        if self.stages is not None:
            if preserve_latency_stats:
                self.stages.discard_pending()
            else:
                self.stages = StageTimer(clock=self.stages.clock)
        if not preserve_latency_stats:
            self.latency.reset()
            self._deadline_violations = 0
        if self.recorder is not None:
            self.recorder.note_reset()

    def note_interruption(self, last_t: float | None = None) -> None:
        """Mark this detector as taking over an interrupted stream.

        Fleet failover rebuilds a crashed worker's sessions from recorded
        config; the rebuilt detector must not pretend the stream was
        continuous.  Seeding the timestamp tracker with the stream's last
        seen ``last_t`` routes the next sample through the normal gap
        machinery (an outage longer than ``max_gap_ms`` resets and
        re-primes exactly like a mid-stream dropout), and the takeover is
        recorded as an anomaly so health reads ``degraded`` until
        ``recovery_samples`` clean samples pass — degraded-then-healthy,
        never silently healthy.
        """
        if last_t is not None:
            self._last_t = float(last_t)
        self._update_health(anomaly=True)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def deadline_violations(self) -> int:
        """Window inferences that exceeded ``config.effective_deadline_ms``."""
        return self._deadline_violations

    @property
    def health(self) -> str:
        """Current health state: healthy / degraded / fault."""
        return self._health

    @property
    def backend(self) -> str:
        """Numeric backend of the window model: ``"int8"`` when serving
        a :class:`~repro.quant.QuantizedModel`, ``"float32"`` for a
        float graph, ``"none"`` for fallback-only deployments."""
        if self.model is None:
            return "none"
        from ..quant.qmodel import QuantizedModel

        return ("int8" if isinstance(self.model, QuantizedModel)
                else "float32")

    @property
    def health_transitions(self) -> list[tuple[int, str, str]]:
        """``(sample_index, from_state, to_state)`` transition log."""
        return list(self._transitions)

    def health_report(self) -> dict:
        """Stream-hygiene view: health state plus every anomaly counter."""
        return {
            "health": self._health,
            "backend": self.backend,
            "transitions": len(self._transitions),
            "states_seen": sorted(
                {self._health} | {t[2] for t in self._transitions}
                | {t[1] for t in self._transitions},
                key=_HEALTH_LEVEL.get,
            ),
            "repaired_samples": self.repaired_samples,
            "saturated_samples": self.saturated_samples,
            "gap_filled_samples": self.gap_filled_samples,
            "stream_resets": self.stream_resets,
            "clock_anomalies": self.clock_anomalies,
            "inference_errors": self.inference_errors,
            "fallback_detections": self.fallback_detections,
            "cnn_shed": self._cnn_shed,
            "deadline_violations": self._deadline_violations,
        }

    def latency_report(self) -> dict:
        """Per-window inference latency summary against the deadline."""
        stats = self.latency.summary()
        count = stats["count"]
        return {
            "inferences": count,
            "deadline_ms": self.config.effective_deadline_ms,
            "violations": self._deadline_violations,
            "violation_rate": self._deadline_violations / count if count else 0.0,
            "mean_ms": stats["mean"],
            "p50_ms": stats["p50"],
            "p95_ms": stats["p95"],
            "p99_ms": stats["p99"],
            "max_ms": stats["max"],
        }

    def stage_report(self) -> dict | None:
        """Per-stage latency attribution (see :class:`repro.obs.StageTimer`),
        or ``None`` when ``config.stage_timing`` is off."""
        if self.stages is None:
            return None
        return self.stages.report()

    @property
    def samples_seen(self) -> int:
        return self._sample_index + 1

    # ------------------------------------------------------------------
    # hardening internals
    # ------------------------------------------------------------------
    @property
    def accel_dead(self) -> bool:
        if self._dead_override is not None:
            return self._dead_override[0]
        return bool(
            self._sensor_bad_streak[0] >= self.config.dead_sensor_samples
        )

    @property
    def gyro_dead(self) -> bool:
        if self._dead_override is not None:
            return self._dead_override[1]
        return bool(
            self._sensor_bad_streak[1] >= self.config.dead_sensor_samples
        )

    @property
    def _cnn_available(self) -> bool:
        return (
            self.model is not None
            and not self._cnn_shed
            and not self.gyro_dead
        )

    def _standing_fault(self) -> bool:
        return (
            self.model is None
            or self._cnn_shed
            or self.gyro_dead
            or self.accel_dead
        )

    def _update_health(self, anomaly: bool) -> None:
        if anomaly:
            self._clean_streak = 0
        else:
            self._clean_streak += 1
        current = self._health
        if self._standing_fault():
            new = FAULT
        elif current == FAULT:
            new = DEGRADED          # condition cleared: step down one level
        elif anomaly:
            new = DEGRADED
        elif (current == DEGRADED
              and self._clean_streak >= self.config.recovery_samples):
            new = HEALTHY
        else:
            new = current
        if new != current:
            self._transitions.append((self._sample_index, current, new))
            self._counter("health_transitions").inc()
            self._health_gauge.set(float(_HEALTH_LEVEL[new]))
            _logger.debug(
                "health %s -> %s at sample %d", current, new,
                self._sample_index,
            )
            self._health = new
            if self.recorder is not None:
                self.recorder.record_health(self._sample_index, current, new)

    def _shed_cnn(self) -> None:
        self._cnn_shed = True
        self._shed_hops_left = self.config.shed_retry_hops
        self._hit_streak = 0

    def _stage(self, window: np.ndarray, fallback_hit: bool,
               time_s: float) -> WindowRequest | None:
        """Pre-inference half of a due window's decision: shed-probe
        bookkeeping, then a :class:`WindowRequest` holding a copy of
        ``window`` when the CNN is available."""
        if self._cnn_shed:
            # Load shedding: skip the CNN for shed_retry_hops hops, then
            # give it one probe inference to prove it recovered.
            self._shed_hops_left -= 1
            if self._shed_hops_left <= 0:
                self._cnn_shed = False
                self._consecutive_violations = 0
        if self._cnn_available:
            return WindowRequest(
                window=window.copy(),
                sample_index=self._sample_index,
                time_s=time_s,
                fallback_hit=fallback_hit,
            )
        return None

    def _fallback_decide(self, fallback_hit: bool, time_s: float,
                         sample_index: int,
                         window_ready: bool) -> Detection | None:
        """The fallback guards the airbag whenever the CNN cannot —
        shed / no model / dead gyro, or a window still warming up."""
        if fallback_hit and (not self._cnn_available or not window_ready):
            self.fallback_detections += 1
            self._counter("fallback_detections").inc()
            detection = Detection(
                sample_index=sample_index,
                time_s=time_s,
                probability=1.0,
                source="fallback",
            )
            if self.recorder is not None:
                self.recorder.record_decision(detection)
            return detection
        return None

    def complete(
        self,
        request: WindowRequest,
        probability,
        *,
        latency_ms: float | None = None,
        failed: bool = False,
    ) -> Detection | None:
        """Post-inference half of a decision for a staged request.

        ``probability`` is the model output for ``request.window``;
        ``latency_ms`` feeds the deadline monitor (the micro-batching
        engine charges every window the wall-clock of its whole batch —
        the result is not available any earlier).  ``failed=True`` reports
        that the model raised: the CNN is shed, and the staged fallback
        evidence still guards the sample.  Never raises.
        """
        if self.stages is not None:
            # One completed window closes out one attribution sample: the
            # charged inference latency joins the stage costs accumulated
            # since the previous complete, and the flushed sum *is* the
            # recorded end-to-end latency (attribution sums exactly).
            if latency_ms is not None and not failed:
                self.stages.add_ms("inference", latency_ms)
            self.stages.flush()
        if failed:
            if self.recorder is not None:
                self.recorder.record_window(
                    request.sample_index, None, None,
                    violation=False, failed=True, window=request.window,
                )
            self.inference_errors += 1
            self._counter("inference_errors").inc()
            _logger.exception("model inference raised; shedding CNN path")
            self._shed_cnn()
            return self._fallback_decide(
                request.fallback_hit, request.time_s,
                request.sample_index, window_ready=True,
            )
        cfg = self.config
        violation = latency_ms is not None and latency_ms > self._deadline
        if self.recorder is not None:
            self.recorder.record_window(
                request.sample_index, float(probability), latency_ms,
                violation=violation, failed=False, window=request.window,
            )
        if latency_ms is not None:
            self.latency.observe(latency_ms)
            if violation:
                self._deadline_violations += 1
                self._consecutive_violations += 1
                _logger.debug(
                    "deadline violation: inference took %.3f ms "
                    "(deadline %.3f ms)", latency_ms, self._deadline,
                )
                if self._consecutive_violations >= cfg.shed_after_violations:
                    _logger.warning(
                        "%d consecutive deadline violations; shedding CNN "
                        "path", self._consecutive_violations,
                    )
                    self._shed_cnn()
            else:
                self._consecutive_violations = 0
        prob = float(probability)
        if not np.isfinite(prob):
            self.inference_errors += 1
            self._counter("inference_errors").inc()
            _logger.warning("model returned non-finite probability; shedding")
            self._shed_cnn()
            return self._fallback_decide(
                request.fallback_hit, request.time_s,
                request.sample_index, window_ready=True,
            )
        if prob >= cfg.threshold:
            self._hit_streak += 1
            if self._hit_streak >= cfg.consecutive_required:
                detection = Detection(
                    sample_index=request.sample_index,
                    time_s=request.time_s,
                    probability=prob,
                    source="cnn",
                )
                if self.recorder is not None:
                    self.recorder.record_decision(detection)
                return detection
        else:
            self._hit_streak = 0
        return None

    def _run_model(self, request: WindowRequest) -> Detection | None:
        """Run the model on one staged request: guarded forward pass,
        then :meth:`complete` with the measured latency."""
        t0 = time.perf_counter()
        try:
            prob = float(
                np.asarray(
                    self.model.predict(request.window[None, :, :])
                ).reshape(-1)[0]
            )
        except Exception:
            return self.complete(request, None, failed=True)
        latency_ms = 1000.0 * (time.perf_counter() - t0)
        return self.complete(request, prob, latency_ms=latency_ms)

    # ------------------------------------------------------------------
    # streaming API
    # ------------------------------------------------------------------
    def push(self, accel_g, gyro_dps, t: float | None = None) -> Detection | None:
        """Feed one sample; returns a :class:`Detection` when a path fires.

        A one-row :meth:`push_block` whose staged windows are inferred
        before returning, in order.  The inference cadence matches the
        offline segmentation: the first window is evaluated once full,
        then every ``hop_samples``.  ``t`` is the sample timestamp in
        seconds; when provided, missing samples are detected from the
        inter-arrival time — short gaps (≤ ``max_gap_ms``) are bridged
        with linearly interpolated fill samples, longer ones reset the
        streaming state.  Without timestamps the stream is assumed
        gapless at the nominal rate.  When a gap's fill samples fire too,
        the earliest detection is returned.
        """
        hits, requests = self.push_block(
            np.asarray(accel_g, dtype=float).reshape(1, 3),
            np.asarray(gyro_dps, dtype=float).reshape(1, 3),
            None if t is None else (t,),
        )
        for request in requests:
            hit = self._run_model(request)
            if hit is not None:
                hits.append(hit)
        if not hits:
            return None
        return min(hits, key=lambda d: d.sample_index)

    def push_block(
        self, accel_g, gyro_dps, t=None,
    ) -> tuple[list[Detection], list[WindowRequest]]:
        """Feed a block of samples — the detector's one ingestion path.

        ``accel_g`` / ``gyro_dps`` are ``(n, 3)`` arrays; ``t`` is ``None``
        (fully untimestamped block) or a length-``n`` sequence of
        timestamps where ``None``/NaN marks an untimestamped sample.
        Every row is validated, gap-bridged and decided as :meth:`push`
        describes, but due CNN windows are staged rather than inferred so
        the caller can batch them across streams.

        Semantics are **bit-identical** to the per-sample reference
        ``OracleDetector`` (``tests/detector_oracle.py``) fed the same
        rows one at a time with deferred inference, every staged
        :class:`WindowRequest` completed *after* the last row: same
        windows, detections, health transitions and anomaly
        counters — ``tests/test_detector_block.py`` holds this across
        every builtin fault scenario and random block splits.
        Repair/clamp/stuck tracking, gap synthesis, SOS filtering (one
        carried-state :func:`~repro.signal.filters.sosfilt` pass per
        contiguous segment), channel scaling and window assembly (windows
        are views into one grown history) run as numpy ops over the
        block, and the inherently sequential fusion recurrence runs in
        one tight scalar pass (:meth:`ComplementaryFilter.update_block
        <repro.signal.orientation.ComplementaryFilter.update_block>`).

        Returns ``(detections, requests)``: fallback-path detections (at
        most one per *incoming* sample — the first among its gap fills
        and itself) and every staged CNN window, in order.  Complete the
        requests, in order, before the next push on this detector.  An
        attached flight recorder receives each incoming sample right
        after that sample's decision.
        """
        accel = np.asarray(accel_g, dtype=float).reshape(-1, 3)
        gyro = np.asarray(gyro_dps, dtype=float).reshape(-1, 3)
        n = accel.shape[0]
        if gyro.shape[0] != n:
            raise ValueError(
                f"accel and gyro disagree on block length: {n} vs "
                f"{gyro.shape[0]}"
            )
        if t is None:
            t_list = None
        elif isinstance(t, np.ndarray):
            t_list = t.astype(float).reshape(-1).tolist()
        else:
            t_list = [None if v is None else float(v) for v in t]
        if t_list is not None and len(t_list) != n:
            raise ValueError(
                f"t must have one entry per sample: got {len(t_list)} "
                f"for {n}"
            )
        if n == 0:
            return [], []
        st = self.stages
        clk = st.clock if st is not None else None
        if clk is not None:
            t0 = clk()

        # Phase 1 — repair/clamp/stuck tracking, vectorized over the block.
        exact = np.concatenate((accel, gyro), axis=1)
        repaired, data_anom, dead_rows = self._validate_block(exact)
        # Phase 2 — timestamp classification (cheap scalar loop: the
        # carried clock is inherently sequential).
        (fills, resets, ts_anom, fill_base,
         real_t, n_resets) = self._plan_timestamps_block(t_list, n)

        # Phase 3 — expand gaps into synthesized fill rows.  Row metadata:
        # owner[r] = incoming sample a row belongs to (fills belong to the
        # sample whose arrival revealed the gap), is_real marks incoming
        # rows, and segments are the reset-delimited contiguous stretches.
        anchor = self._prev_fill_anchor
        if fills[0] and anchor is None:
            # note_interruption seeds _last_t without an anchor: the gap
            # is flagged (ts_anom stays) but nothing can be interpolated.
            fills = [0] + fills[1:]
        total_fill = sum(fills)
        dt_nom = self._dt_nom
        if total_fill == 0 and n_resets == 0:
            m = n
            ex6 = repaired
            owner = None            # identity: row r is incoming sample r
            is_real = None          # every row is real
            fill_time = None
            reset_rows = []
            segments = [(0, n, False)]
        else:
            m = n + total_fill
            ex6 = np.empty((m, 6))
            owner = np.empty(m, dtype=np.intp)
            is_real = np.zeros(m, dtype=bool)
            fill_time = np.zeros(m)
            reset_rows = []
            pos = 0
            for i in range(n):
                k = fills[i]
                if k:
                    prev = repaired[i - 1] if i else anchor
                    delta = repaired[i] - prev
                    j = np.arange(1, k + 1)
                    ex6[pos:pos + k] = prev + (j / (k + 1))[:, None] * delta
                    fill_time[pos:pos + k] = fill_base[i] + j * dt_nom
                    owner[pos:pos + k] = i
                    pos += k
                if resets[i]:
                    reset_rows.append(pos)
                ex6[pos] = repaired[i]
                owner[pos] = i
                is_real[pos] = True
                pos += 1
            reset_set = set(reset_rows)
            cuts = sorted({0, m} | reset_set)
            segments = [(cuts[ci], cuts[ci + 1], cuts[ci] in reset_set)
                        for ci in range(len(cuts) - 1)]
        if total_fill:
            self.gap_filled_samples += total_fill
            self._counter("gap_filled_samples").inc(total_fill)
        if n_resets:
            self.stream_resets += n_resets
            self._counter("stream_resets").inc(n_resets)
        # The next gap interpolates from the last repaired sample.
        self._prev_fill_anchor = repaired[-1].copy()
        if clk is not None:
            t1 = clk()
            st.add("ingest", t1 - t0)

        # Phase 4 — orientation fusion (sequential recurrence, one pass).
        euler = self._fusion.update_block(
            ex6[:, :3], ex6[:, 3:], reset_rows=reset_rows or None)
        if clk is not None:
            t2 = clk()
            st.add("fusion", t2 - t1)

        # Phase 5 — filter + scale + window assembly, one vectorized pass
        # per reset-delimited segment.  The SOS pass inside the segment
        # loop is timed separately from window assembly.
        filter_s = 0.0
        raw9 = np.concatenate((ex6, euler), axis=1)
        window_n = self._window_n
        hop_n = self._hop_n
        ready = [False] * m        # the row's window has filled (warm-up)
        windows: dict[int, np.ndarray] = {}    # due row -> its window
        for a, b, is_reset in segments:
            if is_reset:
                # Long gap: drop filter and window state and re-prime (the
                # fusion reset was folded into update_block); the CNN
                # stays silent until the window refills.
                self._filter.reset()
                self._buffer[:] = 0.0
                self._filled = 0
                self._since_last_inference = 0
            seg_len = b - a
            if clk is not None:
                f0 = clk()
            scaled = self._filter.process(raw9[a:b]) / self._scales
            if clk is not None:
                filter_s += clk() - f0
            hist = np.concatenate((self._buffer, scaled))
            filled0 = self._filled
            # Cadence in closed form: the first due row completes the
            # warm-up (or the pending hop), then one due every hop_n rows.
            if filled0 < window_n:
                first_due = window_n - filled0 - 1
                if first_due < seg_len:
                    ready[a + first_due:b] = [True] * (seg_len - first_due)
            else:
                first_due = hop_n - self._since_last_inference - 1
                ready[a:b] = [True] * seg_len
            if first_due < seg_len:
                due_rows = range(first_due, seg_len, hop_n)
                for r in due_rows:
                    # After local row r the window is exactly these rows.
                    windows[a + r] = hist[r + 1:r + 1 + window_n]
                self._since_last_inference = seg_len - 1 - due_rows[-1]
            elif filled0 >= window_n:
                self._since_last_inference += seg_len
            self._filled = min(window_n, filled0 + seg_len)
            self._buffer = hist[seg_len:].copy()
        if clk is not None:
            t3 = clk()
            st.add("filter", filter_s)
            st.add("window", (t3 - t2) - filter_s)

        # Phase 6 — magnitude fallback: vectorized magnitudes, sequential
        # deque smoother (order-dependent trailing mean).
        if self._fallback is not None:
            ax, ay, az = ex6[:, 0], ex6[:, 1], ex6[:, 2]
            mags = np.sqrt(ax * ax + ay * ay + az * az)
            push_mag = self._fallback.push_mag
            fb_hits = [push_mag(mag) for mag in mags.tolist()]
        else:
            fb_hits = None

        # Phase 7 — the sequential decision/health pass.  Rows with no
        # evidence (not due, no fallback hit) leave the decision state
        # untouched, so with clean health and nothing to record they are
        # skipped.
        base = self._sample_index
        fs = self.config.fs
        if data_anom is None:
            real_anom = ts_anom
        else:
            real_anom = [d or c for d, c in zip(data_anom.tolist(), ts_anom)]
        recorder = self.recorder
        fast_health = (
            self._health == HEALTHY
            and not any(real_anom)
            and dead_rows is None
            and self.model is not None
            and not self._cnn_shed
        )
        detections: list[Detection] = []
        requests: list[WindowRequest] = []
        if fast_health and recorder is None:
            hot = [r for r in range(m)
                   if r in windows or (fb_hits is not None and fb_hits[r])]
        else:
            hot = range(m)
        if dead_rows is not None:
            a_dead_l, g_dead_l = (rows.tolist() for rows in dead_rows)
        last_owner = -1
        group_fired = False
        try:
            for r in hot:
                own = owner[r] if owner is not None else r
                real = is_real[r] if is_real is not None else True
                self._sample_index = base + r + 1
                if dead_rows is not None:
                    self._dead_override = (a_dead_l[own], g_dead_l[own])
                if real and not fast_health:
                    self._update_health(real_anom[own])
                fb = fb_hits[r] if fb_hits is not None else False
                window = windows.get(r)
                if window is not None or fb:
                    if real:
                        tv = real_t[own]
                        time_s = (tv if tv is not None
                                  else (base + r + 1) / fs)
                    else:
                        time_s = fill_time[r]
                    request = (self._stage(window, fb, time_s)
                               if window is not None else None)
                    if request is not None:
                        requests.append(request)
                    else:
                        hit = self._fallback_decide(
                            fb, time_s, self._sample_index, ready[r])
                        if hit is not None:
                            # Only the *first* detection among a sample's
                            # fills and the sample itself is returned.
                            if own != last_owner:
                                last_owner = own
                                group_fired = False
                            if not group_fired:
                                detections.append(hit)
                                group_fired = True
                if real and recorder is not None:
                    # The incoming values, pre-repair, so replay re-feeds
                    # exactly what the device saw; fill rows are
                    # synthesised again on replay and not stored.
                    recorder.record_sample(
                        self._sample_index, real_t[own], exact[own, :3],
                        exact[own, 3:], repaired[own], real_anom[own],
                        self._health,
                    )
        finally:
            self._dead_override = None
        if fast_health:
            self._clean_streak += n
        self._sample_index = base + m
        if clk is not None:
            st.add("decision", clk() - t3)
        return detections, requests

    def _validate_block(self, exact: np.ndarray):
        """Repair, clamp and streak-track ``n`` incoming rows ``(n, 6)``
        (accel then gyro) in vectorized passes.

        Non-finite entries hold the last repaired value of their channel
        (bootstrap: 1 g gravity for accel, zero rate for gyro);
        out-of-range entries clip to the sensor rails.  Stuck-at tracking
        runs on the *exact* incoming values: genuine IMU noise never
        repeats bit for bit, so an exact-repeat (or non-finite) streak
        marks a frozen channel, and a sensor whose three channels are all
        stuck or bad is dead after ``dead_sensor_samples``.

        Returns ``(repaired (n, 6), data_anomaly, dead)``:
        ``data_anomaly`` is an ``(n,)`` bool array, ``None`` when no row
        is anomalous; ``dead`` is ``(accel_dead (n,), gyro_dead (n,))`` —
        each *row's* view of the dead-sensor trackers, which decisions
        consult between rows — ``None`` when no row sees a dead sensor.
        """
        cfg = self.config
        n = exact.shape[0]
        rails = self._rails
        finite = np.isfinite(exact)
        all_finite = _all(finite, None)
        # The rail check sees post-repair values: a held value was clipped
        # when it arrived, so only finite entries can be over a rail.
        over = np.abs(exact) > rails
        if not all_finite:
            over &= finite
        data_anom = None
        repaired = exact
        if _any(over, None):
            data_anom = _any(over, 1)
            n_clip = int(np.count_nonzero(data_anom))
            self.saturated_samples += n_clip
            self._counter("saturated_samples").inc(n_clip)
            repaired = np.clip(exact, -rails, rails)
        prev = self._prev_raw_exact
        prev_rows = np.concatenate(
            (_NAN_ROW if prev is None else prev[None, :], exact[:-1]))
        stuck_or_bad = exact == prev_rows
        if not all_finite:
            # Vectorized hold-last: each non-finite entry takes the most
            # recent finite value in its column, falling back to the
            # carried last-repaired sample (or the gravity bootstrap).
            bad = ~finite
            bad_rows = _any(bad, 1)
            n_bad = int(np.count_nonzero(bad_rows))
            carry = (self._last_raw if self._last_raw is not None
                     else _REPAIR_DEFAULTS)
            src = np.where(finite, np.arange(n)[:, None], -1)
            np.maximum.accumulate(src, axis=0, out=src)
            held = repaired[np.maximum(src, 0), np.arange(6)]
            repaired = np.where(src >= 0, held, carry)
            self.repaired_samples += n_bad
            self._counter("repaired_samples").inc(n_bad)
            data_anom = bad_rows if data_anom is None else data_anom | bad_rows
            stuck_or_bad |= bad
        if prev is None:
            # The first sample ever has no predecessor and takes no streak
            # step (the carried streaks are still zero).
            stuck_or_bad[0] = False
        dead = None
        if (not all_finite or _any(stuck_or_bad, None)
                or cfg.stuck_channel_samples < 1
                or cfg.dead_sensor_samples < 1):
            # Exact-repeat runs per channel, then all-channels-bad runs
            # per sensor: running-streak recurrences in closed form.
            streaks = _running_streak(stuck_or_bad,
                                      self._channel_stuck_streak)
            sensor_bad = _all((streaks >= 1).reshape(n, 2, 3), 2)
            if not all_finite:
                sensor_bad |= _all(bad.reshape(n, 2, 3), 2)
            sensor = _running_streak(sensor_bad, self._sensor_bad_streak)
            stuck_rows = _any(streaks >= cfg.stuck_channel_samples, 1)
            if _any(stuck_rows, None):
                data_anom = (stuck_rows if data_anom is None
                             else data_anom | stuck_rows)
            dead_rows = sensor >= cfg.dead_sensor_samples
            if _any(dead_rows, None):
                dead = (dead_rows[:, 0], dead_rows[:, 1])
            self._channel_stuck_streak = streaks[-1].copy()
            self._sensor_bad_streak = sensor[-1].copy()
        else:
            # Nothing repeated and nothing bad: every streak is zero (a
            # threshold below 1 would count even that, hence the guard).
            self._channel_stuck_streak = np.zeros(6, dtype=int)
            self._sensor_bad_streak = np.zeros(2, dtype=int)
        self._prev_raw_exact = exact[-1].copy()
        self._last_raw = repaired[-1].copy()
        return repaired, data_anom, dead

    def _plan_timestamps_block(self, t_list, n: int):
        """Classify every inter-sample interval of a block up front and
        advance the ``_last_t`` clock past it.

        Relative to the previous timestamp: earlier than half a period is
        a clock anomaly (the sample is still processed); whole missing
        periods are a gap, bridged with interpolated fill samples up to
        ``max_gap_ms`` and a stream reset beyond it.  An untimestamped
        sample inside a timestamped stream is a clock anomaly that
        advances the clock by one nominal period, keeping the checks
        armed for the next sample.

        Returns ``(fills, resets, ts_anom, fill_base, real_t, n_resets)``
        — per incoming sample: synthesized-fill count, long-gap reset
        flag, clock/gap anomaly flag, the fill interpolation base time,
        and the (NaN-normalized) timestamp.  Leaves ``_last_t`` advanced
        past the block and the clock-anomaly counter updated.
        """
        dt_nom = self._dt_nom
        half = 0.5 * dt_nom
        max_gap_ms = self.config.max_gap_ms
        fills = [0] * n
        resets = [False] * n
        ts_anom = [False] * n
        fill_base = [0.0] * n
        real_t: list[float | None] = [None] * n
        n_clock = 0
        n_resets = 0
        last_t = self._last_t
        for i in range(n):
            ti = t_list[i] if t_list is not None else None
            if ti is not None and ti != ti:     # NaN marks "no timestamp"
                ti = None
            real_t[i] = ti
            if ti is None:
                if last_t is not None:
                    n_clock += 1
                    ts_anom[i] = True
                    last_t = last_t + dt_nom
                continue
            if last_t is not None:
                dt = ti - last_t
                if dt < half:
                    n_clock += 1
                    ts_anom[i] = True
                else:
                    missing = int(round(dt / dt_nom)) - 1
                    if missing > 0:
                        ts_anom[i] = True
                        if dt * 1000.0 > max_gap_ms:
                            resets[i] = True
                            n_resets += 1
                        else:
                            fills[i] = missing
                            fill_base[i] = last_t
            last_t = ti
        if n_clock:
            self.clock_anomalies += n_clock
            self._counter("clock_anomalies").inc(n_clock)
        self._last_t = last_t
        return fills, resets, ts_anom, fill_base, real_t, n_resets

    def run(
        self,
        accel_g: np.ndarray,
        gyro_dps: np.ndarray,
        t: np.ndarray | None = None,
    ) -> list[Detection]:
        """Convenience: stream whole arrays; returns every detection."""
        accel_g = np.asarray(accel_g, dtype=float)
        gyro_dps = np.asarray(gyro_dps, dtype=float)
        detections = []
        for i in range(accel_g.shape[0]):
            hit = self.push(
                accel_g[i], gyro_dps[i],
                t=None if t is None else float(t[i]),
            )
            if hit is not None:
                detections.append(hit)
        return detections


class AirbagController:
    """Actuation state machine driven by a :class:`FallDetector`.

    States: ``armed`` → (trigger) → ``inflating`` → (+inflation time) →
    ``deployed``.  Once triggered it never re-arms within a trial — a real
    airbag is single-shot.

    Fail-safe contract: detector trouble can never disarm the bag.  An
    exception escaping ``detector.push`` (which the hardened detector
    itself should prevent) is contained and counted rather than
    propagated, and fallback-sourced detections latch the trigger exactly
    like CNN ones.
    """

    def __init__(self, detector: FallDetector, inflation_ms: float = 150.0):
        if inflation_ms < 0:
            raise ValueError("inflation_ms must be non-negative")
        self.detector = detector
        self.inflation_ms = float(inflation_ms)
        self.trigger: Detection | None = None
        self.detector_errors = 0

    @property
    def state(self) -> str:
        return "armed" if self.trigger is None else "triggered"

    @property
    def detector_health(self) -> str:
        """The detector's health state (see :mod:`repro.core.detector`)."""
        return self.detector.health

    @property
    def deployed_at_s(self) -> float | None:
        """Time the bag reaches full extension, or None if never fired."""
        if self.trigger is None:
            return None
        return self.trigger.time_s + self.inflation_ms / 1000.0

    def push(self, accel_g, gyro_dps, t: float | None = None) -> Detection | None:
        """Feed one sample; latches the first detection."""
        try:
            hit = self.detector.push(accel_g, gyro_dps, t=t)
        except Exception:
            # Fail-safe: a buggy detector must not take the controller
            # down mid-trial; stay armed and keep feeding samples.
            self.detector_errors += 1
            get_registry().counter("airbag/detector_errors").inc()
            _logger.exception("detector raised inside AirbagController.push")
            return None
        if hit is not None and self.trigger is None:
            self.trigger = hit
            return hit
        return None

    def protects(self, impact_time_s: float) -> bool:
        """Was the airbag fully inflated by the moment of impact?"""
        deployed = self.deployed_at_s
        return deployed is not None and deployed <= impact_time_s

    def margin_ms(self, impact_time_s: float) -> float | None:
        """Milliseconds between full inflation and impact (negative = late).

        ``None`` if the airbag never fired.
        """
        deployed = self.deployed_at_s
        if deployed is None:
            return None
        return 1000.0 * (impact_time_s - deployed)

    def margin_report(self) -> dict:
        """Airbag-budget view of the detector's latency statistics.

        The paper's chain is: detector fires → inflation takes 150 ms →
        the bag must be full before impact.  Every millisecond of window
        inference latency is added to that reaction time, so the report
        combines the inflation budget with the measured latency tail:
        ``reaction_p99_ms`` is inflation + p99 inference latency, and
        ``budget_headroom_ms`` is how much of the deadline the p99
        inference leaves unused.
        """
        latency = self.detector.latency_report()
        deadline = latency["deadline_ms"]
        return {
            "inflation_budget_ms": self.inflation_ms,
            "inference_p50_ms": latency["p50_ms"],
            "inference_p99_ms": latency["p99_ms"],
            "reaction_p50_ms": self.inflation_ms + latency["p50_ms"],
            "reaction_p99_ms": self.inflation_ms + latency["p99_ms"],
            "deadline_ms": deadline,
            "budget_headroom_ms": deadline - latency["p99_ms"],
            "deadline_violations": latency["violations"],
            "violation_rate": latency["violation_rate"],
            "inferences": latency["inferences"],
        }
