"""Flight recorder: always-on bounded capture with incident freeze + replay.

A deployed pre-impact detector that misfires must be debuggable from the
device's own record — the falling phase is over in ~300 ms and cannot be
re-run.  The :class:`FlightRecorder` therefore rides along with a
:class:`~repro.core.detector.FallDetector` (and every stream session in
the serving engine), continuously recording into a bounded ring buffer:

* every raw sample pushed (pre-repair values, so replay sees exactly what
  the device saw), its repaired 6-vector and the health state after it;
* every window inference (probability, charged latency, deadline
  outcome, a content hash of the staged window);
* every decision (CNN or fallback) and health transition;
* explicit resets and marks.

On a trigger — detection, fallback activation, deadline violation,
health transition, or an explicit :meth:`FlightRecorder.mark` — the
recorder keeps capturing for ``post_trigger_samples`` more samples, then
freezes the ring into a versioned JSONL *incident* (atomic write) whose
header carries the stream id, trigger, detector config + hash and a
metric snapshot.

:func:`replay_incident` turns any incident into a regression test: it
re-feeds the captured raw samples through a freshly constructed detector
with the recorded config, injects the *recorded* per-window latencies
(so deadline accounting and load shedding replay deterministically
instead of depending on the replaying machine's wall clock), and diffs
probabilities, decisions, health transitions and repaired samples
bit-for-bit against the record.  Replay is exact from the first recorded
``reset`` event (each evaluation trial starts with one); an incident cut
mid-stream without a reset replays on a best-effort basis and reports
where comparison started.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from .log import get_logger

__all__ = [
    "FlightConfig",
    "FlightRecorder",
    "Incident",
    "load_incident",
    "replay_incident",
    "render_replay_report",
    "TRIGGERS",
]

_logger = get_logger(__name__)

INCIDENT_FORMAT = "repro-incident"
INCIDENT_VERSION = 1

#: Trigger reasons a recorder can freeze an incident on.
TRIGGERS = ("detection", "fallback", "deadline", "health", "mark")


@dataclass(frozen=True)
class FlightConfig:
    """Knobs for one :class:`FlightRecorder`."""

    #: Ring capacity in *events* (sample events dominate; at 100 Hz the
    #: default holds ~75 s of stream plus its windows and decisions).
    capacity: int = 8192
    #: Samples captured after a trigger before the incident freezes —
    #: the post-context showing what happened next.
    post_trigger_samples: int = 100
    #: Directory incident files land in (created on demand); ``None``
    #: keeps incidents in memory only (:attr:`FlightRecorder.incidents`).
    out_dir: str | None = None
    #: Subset of :data:`TRIGGERS` that arm a freeze.  An empty tuple
    #: records continuously but only freezes on an explicit ``flush()``
    #: (the replay harness runs its shadow recorder this way).
    triggers: tuple = TRIGGERS
    #: Hard cap on incidents per recorder — bounds disk for a detector
    #: stuck in a trigger-happy state.
    max_incidents: int = 32
    #: Cap on incident *files* across the whole ``out_dir`` — the fleet
    #: case, where many per-stream recorders share one directory and the
    #: per-recorder cap alone cannot bound the disk.  Oldest files are
    #: pruned first.  ``None`` leaves the directory unbounded.
    max_dir_incidents: int | None = None

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.post_trigger_samples < 0:
            raise ValueError("post_trigger_samples must be >= 0")
        if self.max_incidents < 1:
            raise ValueError("max_incidents must be >= 1")
        if self.max_dir_incidents is not None and self.max_dir_incidents < 1:
            raise ValueError("max_dir_incidents must be >= 1 or None")
        unknown = [t for t in self.triggers if t not in TRIGGERS]
        if unknown:
            raise ValueError(
                f"unknown trigger(s) {unknown}; valid: {list(TRIGGERS)}"
            )


@dataclass
class Incident:
    """One frozen capture: a schema header plus its event list."""

    meta: dict
    events: list
    path: str | None = None

    @property
    def trigger(self) -> str:
        return self.meta["trigger"]

    @property
    def stream_id(self) -> str:
        return self.meta["stream_id"]

    def samples(self) -> list:
        return [e for e in self.events if e["kind"] == "sample"]

    def windows(self) -> list:
        return [e for e in self.events if e["kind"] == "window"]

    def decisions(self) -> list:
        return [e for e in self.events if e["kind"] == "decision"]


def _config_sha256(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, default=list).encode("utf-8")
    ).hexdigest()[:16]


def _window_sha(window: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(window).tobytes()
    ).hexdigest()[:16]


class FlightRecorder:
    """Bounded event ring with trigger-driven incident freeze.

    One recorder serves one detector (attach it via
    ``FallDetector(..., recorder=...)``; the detector calls :meth:`bind`
    with its config).  Like the detector itself it is single-stream /
    single-thread: the serving engine gives every session its own.
    """

    def __init__(self, config: FlightConfig | None = None, *,
                 stream_id: str = "detector"):
        from collections import deque

        self.config = config or FlightConfig()
        self.stream_id = str(stream_id)
        self._ring: "deque" = deque(maxlen=self.config.capacity)
        self._pending: dict | None = None
        self._seq = 0
        self.suppressed_triggers = 0
        #: Frozen incidents, oldest first (also kept when written to disk).
        self.incidents: list[Incident] = []
        #: Paths of incident files written so far.
        self.incident_paths: list[str] = []
        self._bound: dict = {"config": None, "config_sha256": None,
                             "has_model": None}
        self._snapshot_fn = None

    # -- detector-facing hooks -----------------------------------------
    def bind(self, config: dict, has_model: bool, snapshot_fn=None) -> None:
        """Called by the owning detector: its config (as a plain dict),
        whether it has a CNN, and a callable returning a metric snapshot
        for incident headers."""
        self._bound = {
            "config": dict(config),
            "config_sha256": _config_sha256(config),
            "has_model": bool(has_model),
        }
        self._snapshot_fn = snapshot_fn

    def record_sample(self, index: int, t, accel, gyro, repaired,
                      anomaly: bool, health: str) -> None:
        self._append({
            "kind": "sample",
            "i": int(index),
            "t": None if t is None else float(t),
            "accel": [float(v) for v in accel],
            "gyro": [float(v) for v in gyro],
            "repaired": ([float(v) for v in repaired]
                         if repaired is not None else None),
            "anomaly": bool(anomaly),
            "health": health,
        }, is_sample=True)

    def record_window(self, index: int, prob, latency_ms, violation: bool,
                      failed: bool, window) -> None:
        self._append({
            "kind": "window",
            "i": int(index),
            "prob": None if prob is None else float(prob),
            "latency_ms": None if latency_ms is None else float(latency_ms),
            "violation": bool(violation),
            "failed": bool(failed),
            "window_sha": _window_sha(window),
        })
        if violation:
            self.trigger("deadline", index)

    def record_decision(self, detection) -> None:
        self._append({
            "kind": "decision",
            "i": int(detection.sample_index),
            "t": float(detection.time_s),
            "prob": float(detection.probability),
            "source": detection.source,
        })
        self.trigger(
            "fallback" if detection.source == "fallback" else "detection",
            detection.sample_index,
        )

    def record_health(self, index: int, old: str, new: str) -> None:
        self._append({"kind": "health", "i": int(index),
                      "from": old, "to": new})
        self.trigger("health", index)

    def note_reset(self) -> None:
        """A full detector reset — the point replay is exact from.

        Events before a reset belong to a different stream epoch (the
        detector forgot them too), so any pending capture freezes now and
        the ring is cleared: every frozen incident then replays from
        clean detector state, however long the previous trial was.
        """
        if self._pending is not None:
            self._freeze()
        self._ring.clear()
        self._append({"kind": "reset"})

    def mark(self, label: str = "mark") -> None:
        """Explicit operator trigger (e.g. 'the user reported a fall')."""
        self._append({"kind": "mark", "label": str(label)})
        self.trigger("mark")

    # -- trigger machinery ---------------------------------------------
    def trigger(self, reason: str, index: int | None = None) -> None:
        if reason not in self.config.triggers:
            return
        if len(self.incidents) >= self.config.max_incidents:
            self.suppressed_triggers += 1
            return
        if self._pending is not None:
            self._pending["extra_triggers"].append(reason)
            return
        self._pending = {
            "trigger": reason,
            "trigger_index": None if index is None else int(index),
            "left": self.config.post_trigger_samples,
            "extra_triggers": [],
        }
        if self._pending["left"] == 0:
            self._freeze()

    def flush(self) -> Incident | None:
        """Freeze a pending capture immediately (end of run / shutdown),
        without waiting out the remaining post-trigger samples."""
        if self._pending is None:
            return None
        return self._freeze()

    @property
    def pending(self) -> bool:
        return self._pending is not None

    def events(self) -> list:
        """Copy of the live ring (oldest first)."""
        return list(self._ring)

    # -- internals ------------------------------------------------------
    def _append(self, event: dict, is_sample: bool = False) -> None:
        self._ring.append(event)
        if is_sample and self._pending is not None:
            self._pending["left"] -= 1
            if self._pending["left"] <= 0:
                self._freeze()

    def _freeze(self) -> Incident:
        pending, self._pending = self._pending, None
        events = list(self._ring)
        meta = {
            "format": INCIDENT_FORMAT,
            "version": INCIDENT_VERSION,
            "stream_id": self.stream_id,
            "seq": self._seq,
            "trigger": pending["trigger"],
            "trigger_index": pending["trigger_index"],
            "extra_triggers": pending["extra_triggers"],
            "events": len(events),
            "unix_time": time.time(),
            "config": self._bound["config"],
            "config_sha256": self._bound["config_sha256"],
            "has_model": self._bound["has_model"],
            "metrics": self._snapshot_fn() if self._snapshot_fn else None,
        }
        incident = Incident(meta=meta, events=events)
        self._seq += 1
        if self.config.out_dir is not None:
            incident.path = self._write(incident)
            self.incident_paths.append(incident.path)
        self.incidents.append(incident)
        _logger.info(
            "flight recorder froze incident %d for %s (trigger=%s, "
            "%d events)%s", meta["seq"], self.stream_id, meta["trigger"],
            len(events), f" -> {incident.path}" if incident.path else "",
        )
        return incident

    def _write(self, incident: Incident) -> str:
        from ..utils import atomic_write

        out_dir = self.config.out_dir
        os.makedirs(out_dir, exist_ok=True)
        safe = "".join(c if c.isalnum() or c in "-_" else "_"
                       for c in self.stream_id)
        name = (f"incident-{safe}-{incident.meta['seq']:03d}-"
                f"{incident.meta['trigger']}.jsonl")
        path = os.path.join(out_dir, name)
        with atomic_write(path) as fh:
            fh.write(json.dumps(incident.meta) + "\n")
            for event in incident.events:
                fh.write(json.dumps(event) + "\n")
        if self.config.max_dir_incidents is not None:
            self._prune_dir(out_dir, keep=path)
        return path

    def _prune_dir(self, out_dir: str, *, keep: str) -> None:
        """Drop the oldest incident files beyond ``max_dir_incidents``.

        Age is modification time (name as tie-break, so the order is
        total even on coarse filesystem clocks); the file just written
        is never pruned — a recorder must not erase its own incident.
        """
        entries = []
        with os.scandir(out_dir) as it:
            for entry in it:
                if (entry.is_file() and entry.name.startswith("incident-")
                        and entry.name.endswith(".jsonl")):
                    entries.append((entry.stat().st_mtime, entry.name,
                                    entry.path))
        excess = len(entries) - self.config.max_dir_incidents
        if excess <= 0:
            return
        keep = os.path.abspath(keep)
        for _, _, victim in sorted(entries)[:excess]:
            if os.path.abspath(victim) == keep:
                continue
            try:
                os.remove(victim)
                _logger.info("pruned incident file %s "
                             "(directory cap %d)", victim,
                             self.config.max_dir_incidents)
            except OSError:  # pragma: no cover - racing pruners
                _logger.warning("could not prune %s", victim,
                                exc_info=True)


def load_incident(path) -> Incident:
    """Read an incident file back; validates format + version up front."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in (raw.strip() for raw in fh) if line]
    if not lines:
        raise ValueError(f"{path}: empty file, not an incident")
    try:
        meta = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: header is not JSON: {exc}") from None
    if not isinstance(meta, dict) or meta.get("format") != INCIDENT_FORMAT:
        raise ValueError(
            f"{path}: not a {INCIDENT_FORMAT} file (header {meta!r})"
        )
    if meta.get("version") != INCIDENT_VERSION:
        raise ValueError(
            f"{path}: incident version {meta.get('version')!r} "
            f"(this build reads version {INCIDENT_VERSION})"
        )
    events = [json.loads(line) for line in lines[1:]]
    if meta.get("events") is not None and meta["events"] != len(events):
        raise ValueError(
            f"{path}: header declares {meta['events']} events, "
            f"found {len(events)} (truncated file?)"
        )
    return Incident(meta=meta, events=events, path=os.fspath(path))


class _ReplayModelStub:
    """Placeholder satisfying ``model is not None`` during replay; the
    harness drives ``complete`` itself, so ``predict`` must never run."""

    def predict(self, x):  # pragma: no cover - defensive
        raise RuntimeError("replay stub model must not be called")


def replay_incident(incident, model="recorded") -> dict:
    """Re-run an incident through a fresh detector and diff the record.

    ``model="recorded"`` replays the recorded per-window probabilities
    (no CNN needed — probabilities trivially match and the diff
    exercises the DSP, staging cadence, decision and health logic); pass
    the actual model object to recompute probabilities live and verify
    them bit-for-bit too.  Recorded latencies are always injected, so
    deadline/shedding behaviour replays deterministically.  Returns a
    diff-count dict (``identical`` when every category is clean).
    """
    from ..core.detector import DetectorConfig, FallDetector
    from .metrics import MetricsRegistry

    if not isinstance(incident, Incident):
        incident = load_incident(incident)
    meta = incident.meta
    if meta.get("config") is None:
        raise ValueError("incident has no recorded detector config")
    cfg_dict = dict(meta["config"])
    cfg_dict["channel_scales"] = tuple(cfg_dict.get("channel_scales", ()))
    config = DetectorConfig(**cfg_dict)
    live_model = not isinstance(model, str)
    if live_model:
        model_obj = model
    else:
        if model != "recorded":
            raise ValueError(f"model must be 'recorded' or a model object, "
                             f"got {model!r}")
        model_obj = _ReplayModelStub() if meta["has_model"] else None

    events = incident.events
    resets = [i for i, e in enumerate(events) if e["kind"] == "reset"]
    start = resets[0] if resets else 0
    recorded = events[start:]

    shadow = FlightRecorder(
        FlightConfig(capacity=len(events) + 16, triggers=()),
        stream_id=f"replay:{meta['stream_id']}",
    )
    detector = FallDetector(
        model_obj, config, registry=MetricsRegistry(),
        metric_prefix="replay", recorder=shadow,
    )
    rec_windows = [e for e in recorded if e["kind"] == "window"]
    wi = 0
    structural_diffs = 0
    tail_windows = 0
    for event in recorded:
        kind = event["kind"]
        if kind == "reset":
            detector.reset()
        elif kind == "sample":
            _, requests = detector.push_block(
                np.array([event["accel"]]), np.array([event["gyro"]]),
                t=[event["t"]],
            )
            for request in requests:
                if wi >= len(rec_windows):
                    # Incidents freeze on a sample event; windows staged
                    # but not yet completed at freeze time have no
                    # recorded event.  Leave them uncompleted, exactly as
                    # the live detector had them.
                    tail_windows += 1
                    continue
                rec = rec_windows[wi]
                wi += 1
                if rec["failed"]:
                    # The recorded inference raised; replay the error
                    # injection so shedding/fallback control flow matches.
                    detector.complete(request, None, failed=True)
                elif live_model:
                    prob = float(np.asarray(
                        model_obj.predict(request.window[None, :, :])
                    ).reshape(-1)[0])
                    detector.complete(request, prob,
                                      latency_ms=rec["latency_ms"])
                else:
                    detector.complete(request, rec["prob"],
                                      latency_ms=rec["latency_ms"])
    structural_diffs += len(rec_windows) - wi if wi < len(rec_windows) else 0
    replayed = shadow.events()
    result = _diff_events(recorded, replayed, meta, start,
                          live_model=live_model,
                          structural_diffs=structural_diffs)
    result["uncompleted_tail_windows"] = tail_windows
    return result


def _by_kind(events, kind):
    return [e for e in events if e["kind"] == kind]


def _diff_events(recorded, replayed, meta, start, *, live_model,
                 structural_diffs) -> dict:
    """Category-wise diff of two event streams.

    Categories are compared as independent ordered sequences: only the
    within-category order is part of the contract.  A sample's window
    events follow its sample event (windows complete after the block
    that staged them), while incidents recorded by earlier versions'
    inline per-sample path put them before it.
    """
    examples: list[str] = []

    def note(text):
        if len(examples) < 8:
            examples.append(text)

    rec_s, rep_s = _by_kind(recorded, "sample"), _by_kind(replayed, "sample")
    repaired_diffs = 0
    health_state_diffs = 0
    for a, b in zip(rec_s, rep_s):
        if a["repaired"] != b["repaired"]:
            repaired_diffs += 1
            note(f"sample {a['i']}: repaired values differ")
        if a["health"] != b["health"]:
            health_state_diffs += 1
            note(f"sample {a['i']}: health {a['health']} -> {b['health']}")
    if len(rec_s) != len(rep_s):
        structural_diffs += abs(len(rec_s) - len(rep_s))
        note(f"sample count {len(rec_s)} vs {len(rep_s)}")

    rec_w, rep_w = _by_kind(recorded, "window"), _by_kind(replayed, "window")
    probability_diffs = 0
    window_hash_diffs = 0
    deadline_diffs = 0
    for a, b in zip(rec_w, rep_w):
        pa, pb = a["prob"], b["prob"]
        same = (pa is None and pb is None) or (
            pa is not None and pb is not None
            and (pa == pb or (pa != pa and pb != pb))  # NaN == NaN here
        )
        if not same:
            probability_diffs += 1
            note(f"window @{a['i']}: prob {pa!r} vs {pb!r}")
        if a["window_sha"] != b["window_sha"]:
            window_hash_diffs += 1
            note(f"window @{a['i']}: staged window content differs")
        if a["violation"] != b["violation"]:
            deadline_diffs += 1
            note(f"window @{a['i']}: deadline outcome differs")

    rec_d = [(e["i"], e["source"], e["prob"])
             for e in _by_kind(recorded, "decision")]
    rep_d = [(e["i"], e["source"], e["prob"])
             for e in _by_kind(replayed, "decision")]
    decision_diffs = sum(a != b for a, b in zip(rec_d, rep_d))
    decision_diffs += abs(len(rec_d) - len(rep_d))
    if rec_d != rep_d:
        note(f"decisions: recorded {rec_d[:3]}... vs replayed {rep_d[:3]}...")

    rec_h = [(e["i"], e["from"], e["to"])
             for e in _by_kind(recorded, "health")]
    rep_h = [(e["i"], e["from"], e["to"])
             for e in _by_kind(replayed, "health")]
    health_diffs = sum(a != b for a, b in zip(rec_h, rep_h))
    health_diffs += abs(len(rec_h) - len(rep_h))
    if rec_h != rep_h:
        note(f"health transitions: {rec_h} vs {rep_h}")

    counts = {
        "probability_diffs": probability_diffs,
        "decision_diffs": decision_diffs,
        "health_transition_diffs": health_diffs,
        "health_state_diffs": health_state_diffs,
        "repaired_sample_diffs": repaired_diffs,
        "window_hash_diffs": window_hash_diffs,
        "deadline_diffs": deadline_diffs,
        "structural_diffs": structural_diffs,
    }
    return {
        "stream_id": meta["stream_id"],
        "trigger": meta["trigger"],
        "config_sha256": meta["config_sha256"],
        "model": "live" if live_model else "recorded",
        "exact_from_reset": start > 0 or any(
            e["kind"] == "reset" for e in recorded[:1]),
        "skipped_prefix_events": start,
        "events_compared": len(recorded),
        "samples": len(rec_s),
        "windows": len(rec_w),
        "decisions_recorded": len(rec_d),
        "decisions_replayed": len(rep_d),
        **counts,
        "identical": not any(counts.values()),
        "examples": examples,
    }


def render_replay_report(result: dict) -> str:
    """Human-readable replay verdict (callers decide where it goes)."""
    lines = [
        f"replay: incident from stream {result['stream_id']!r} "
        f"(trigger {result['trigger']}, config {result['config_sha256']})",
        "=" * 64,
        f"mode                 : {result['model']} probabilities",
        f"events compared      : {result['events_compared']} "
        f"({result['skipped_prefix_events']} pre-reset events skipped)",
        f"samples / windows    : {result['samples']} / {result['windows']}",
        f"decisions            : recorded {result['decisions_recorded']}, "
        f"replayed {result['decisions_replayed']}",
        "",
        f"probability diffs    : {result['probability_diffs']}",
        f"decision diffs       : {result['decision_diffs']}",
        f"health transition    : {result['health_transition_diffs']}",
        f"health state diffs   : {result['health_state_diffs']}",
        f"repaired sample diffs: {result['repaired_sample_diffs']}",
        f"window hash diffs    : {result['window_hash_diffs']}",
        f"deadline diffs       : {result['deadline_diffs']}",
        f"structural diffs     : {result['structural_diffs']}",
        "",
        ("REPLAY IDENTICAL — the incident reproduces bit-for-bit"
         if result["identical"] else
         "REPLAY DIVERGED — see examples below"),
    ]
    if result["examples"] and not result["identical"]:
        lines += [""] + [f"  - {e}" for e in result["examples"]]
    return "\n".join(lines)
