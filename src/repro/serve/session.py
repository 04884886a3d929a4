"""Per-stream serving state: one hardened detector plus a bounded queue.

A :class:`StreamSession` is the unit the multi-stream engine schedules:
it owns the per-stream filter / ring-buffer / health state (a full
:class:`~repro.core.detector.FallDetector` driven in deferred-inference
mode), a bounded sample queue, and the per-stream accounting the engine
reports.  Sessions never run the model themselves — they stage
:class:`~repro.core.detector.WindowRequest` objects that the engine
micro-batches across streams.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..core.detector import DetectorConfig, FallDetector
from ..obs import FlightRecorder

__all__ = ["StreamSession"]


class StreamSession:
    """One wearable stream inside a :class:`~repro.serve.ServeEngine`.

    ``quarantined`` is the engine's outermost containment: the hardened
    detector promises never to raise, but if that promise is ever broken
    the engine flips this flag, drops the stream's queue and keeps serving
    everyone else — one faulty stream can never stall another.
    """

    __slots__ = (
        "stream_id",
        "detector",
        "recorder",
        "queue",
        "staged",
        "dropped_samples",
        "detections",
        "errors",
        "quarantined",
    )

    def __init__(
        self,
        stream_id: str,
        model,
        config: DetectorConfig,
        *,
        registry=None,
        metric_prefix: str = "serve/stream",
        per_stream_metrics: bool = True,
        flight=None,
        stage_clock=None,
    ):
        prefix = (f"{metric_prefix}/{stream_id}" if per_stream_metrics
                  else metric_prefix)
        self.stream_id = stream_id
        #: Per-stream flight recorder (``None`` unless the engine config
        #: carries a :class:`repro.obs.FlightConfig`).
        self.recorder = (FlightRecorder(flight, stream_id=stream_id)
                         if flight is not None else None)
        self.detector = FallDetector(
            model, config, registry=registry, metric_prefix=prefix,
            recorder=self.recorder, stage_clock=stage_clock,
        )
        self.queue: deque = deque()
        #: Requests staged by the last ``push_block`` and not yet
        #: completed; the engine drains this every inference round.
        self.staged: list = []
        self.dropped_samples = 0
        self.detections = 0
        self.errors = 0
        self.quarantined = False

    def drain_block(self):
        """Pop every queued sample, stacked for ``FallDetector.push_block``.

        Returns ``(accel (n, 3), gyro (n, 3), t)`` where ``t`` is ``None``
        when no queued sample carried a timestamp, else a float array with
        NaN marking the untimestamped entries.  Malformed queued samples
        make the stacking raise, which the engine's quarantine
        containment handles like any detector error.
        """
        queue = self.queue
        n = len(queue)
        accel = np.array([s[0] for s in queue], dtype=float).reshape(n, 3)
        gyro = np.array([s[1] for s in queue], dtype=float).reshape(n, 3)
        ts = [s[2] for s in queue]
        queue.clear()
        if any(v is not None for v in ts):
            t = np.array([np.nan if v is None else float(v) for v in ts])
        else:
            t = None
        return accel, gyro, t

    @property
    def health(self) -> str:
        """The stream's health, folding in engine-level quarantine."""
        return "quarantined" if self.quarantined else self.detector.health

    def report(self) -> dict:
        """Per-stream serving view: health, queue and detector counters."""
        return {
            "health": self.health,
            "backend": getattr(self.detector, "backend", "float32"),
            "queue_depth": len(self.queue),
            "dropped_samples": self.dropped_samples,
            "detections": self.detections,
            "errors": self.errors,
            "deadline_violations": self.detector.deadline_violations,
            "fallback_detections": self.detector.fallback_detections,
            "cnn_shed": self.detector.health_report()["cnn_shed"],
            "incidents": (len(self.recorder.incidents)
                          if self.recorder is not None else 0),
        }
