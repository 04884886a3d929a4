"""Sharded serving front: hash routing, backpressure, supervision.

:class:`FleetFront` spreads stream ids over N single-engine worker
processes (:mod:`repro.fleet.worker`) and owns everything the workers
must not: routing, bounded ingest buffering, the supervisor loop, the
fleet-wide :class:`~repro.alerts.AlertManager`, and ``fleet/*`` metrics.

Routing & determinism
    ``crc32(stream_id) % n_shards`` — stable across processes and runs.
    Each ``pump()`` dispatches every shard's buffered samples as one
    *round* (all shards compute concurrently), then collects replies in
    shard order.  Worker engines batch under ``batch_invariant``, so a
    stream's detections are bitwise independent of which siblings share
    its shard — an N-shard fleet reproduces a single engine's output
    byte for byte (proven by :mod:`repro.fleet.sim`).

Backpressure
    Per-shard ingest buffers are bounded by ``queue_capacity``; overload
    sheds the *oldest* sample (freshest data wins, as everywhere else in
    the serve path) and counts it on ``fleet/shed_samples``.  ``submit``
    never raises into the caller.

Supervision & failover
    Every pump doubles as a heartbeat: a worker that crashed (dead
    process / broken pipe) or hangs past ``worker_timeout_s`` is killed
    and scheduled for restart on a bounded deterministic
    :class:`~repro.utils.Backoff`.  Its in-flight batch is *redelivered*
    — the reply never arrived, so no detection can double-fire — and its
    streams are re-homed onto the restarted worker, each session rebuilt
    from recorded config with
    :meth:`~repro.core.detector.FallDetector.note_interruption`, so
    re-homed streams re-prime and report degraded-then-healthy.  A shard
    that exhausts its restart budget is failed permanently and its
    streams evacuate to the surviving shards.
"""

from __future__ import annotations

import multiprocessing
import time
import zlib
from collections import deque
from dataclasses import dataclass, field

from ..alerts import AlertConfig, AlertManager
from ..core.detector import Detection
from ..obs import (
    Histogram,
    get_collector,
    get_logger,
    get_registry,
    tracing_enabled,
)
from ..obs.trace import SpanRecord
from ..serve.engine import ServeConfig
from ..utils import Backoff
from .worker import shard_main

__all__ = ["FleetConfig", "FleetFront"]

_logger = get_logger(__name__)

#: Round-trip latency buckets (ms): same edges as the serve engine's
#: batch latency, so fleet and shard histograms merge exactly.
_ROUND_BUCKETS_MS = tuple(0.01 * 2 ** i for i in range(23))


def _default_serve() -> ServeConfig:
    # Workers default to a shared metric namespace: per-stream series
    # times n_shards would flood the merged registry at fleet scale.
    return ServeConfig(per_stream_metrics=False)


@dataclass(frozen=True)
class FleetConfig:
    """Topology, backpressure and supervision knobs for one fleet."""

    #: Worker process count; streams hash onto shards by crc32.
    n_shards: int = 4
    #: Per-worker engine configuration (detector, batching, quarantine).
    serve: ServeConfig = field(default_factory=_default_serve)
    #: Bound on each shard's front-side ingest buffer, in samples;
    #: overflow sheds oldest-first and counts ``fleet/shed_samples``.
    queue_capacity: int = 4096
    #: A dispatched round unanswered for this long marks the shard hung.
    worker_timeout_s: float = 10.0
    #: Idle shards (no buffered samples) still get an empty heartbeat
    #: round when they have not replied within this interval.
    heartbeat_interval_s: float = 2.0
    #: Restart schedule after a crash/hang: bounded deterministic
    #: exponential backoff, reset by the first healthy round.
    restart_initial_s: float = 0.05
    restart_factor: float = 2.0
    restart_max_s: float = 2.0
    #: Consecutive failed restarts before the shard is failed permanently
    #: and its streams evacuate to the surviving shards.
    max_restarts: int = 5
    #: Seeds ``task_seed(base_seed, shard_index)`` in every worker.
    base_seed: int = 0
    #: Arm a fleet-wide alert pipeline at the front (single event-store
    #: writer); detections and stream health ship back with each round.
    alerts: AlertConfig | None = None

    def __post_init__(self):
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.worker_timeout_s <= 0:
            raise ValueError("worker_timeout_s must be positive")
        if self.max_restarts < 1:
            raise ValueError("max_restarts must be >= 1")


class _Shard:
    """Mutable per-shard supervisor state (process handle + buffers)."""

    __slots__ = ("index", "process", "conn", "pending", "inflight",
                 "backoff", "restart_at", "seq", "failed", "last_reply",
                 "last_stats")

    def __init__(self, index: int, backoff: Backoff):
        self.index = index
        self.process = None
        self.conn = None
        self.pending: deque = deque()
        self.inflight: list = []
        self.backoff = backoff
        self.restart_at: float | None = None
        self.seq = 0
        self.failed = False
        self.last_reply = 0.0
        self.last_stats: dict = {}

    @property
    def up(self) -> bool:
        return self.process is not None


class FleetFront:
    """Sharded, supervised serving front over N worker processes.

    Usage::

        front = FleetFront(model, FleetConfig(n_shards=4))
        for sample in telemetry:
            front.submit(sample.stream_id, sample.accel, sample.gyro,
                         t=sample.t)
            ...
        for stream_id, detection in front.pump():   # dispatch + collect
            page(stream_id, detection)
        report = front.close()
    """

    def __init__(self, model, config: FleetConfig | None = None, *,
                 registry=None):
        self.model = model
        self.config = config or FleetConfig()
        self.registry = registry if registry is not None else get_registry()
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        self._ship_trace = tracing_enabled()
        cfg = self.config
        self._home: dict[str, int] = {}
        self._last_t: dict[str, float] = {}
        self._health: dict[str, str] = {}
        # Hot-path totals as plain ints, synced to registry counters once
        # per pump — the same discipline as ServeEngine.
        self.samples_in = 0
        self.shed_samples = 0
        self.dropped_samples = 0
        self.redelivered_samples = 0
        self.rounds = 0
        self.detections = 0
        self.worker_crashes = 0
        self.worker_timeouts = 0
        self.worker_restarts = 0
        self.worker_failures = 0
        self.rehomed_streams = 0
        self.send_errors = 0
        self.max_queue_depth = 0
        self._synced: dict[str, int] = {}
        self._round_hist = self.registry.histogram(
            "fleet/round_ms", buckets=_ROUND_BUCKETS_MS)
        self._shards_gauge = self.registry.gauge("fleet/shards_live")
        self._streams_gauge = self.registry.gauge("fleet/streams")
        self._depth_gauge = self.registry.gauge("fleet/queue_depth")
        self.alerts = (AlertManager(cfg.alerts, registry=self.registry)
                       if cfg.alerts is not None else None)
        self._latest_t: float | None = None
        #: Stream time of the latest completed pump — the liveness stamp
        #: ``/healthz`` reports (mirrors ``ServeEngine.last_round_t``).
        self.last_round_t: float | None = None
        self._merged_latency = Histogram(buckets=_ROUND_BUCKETS_MS)
        #: stage -> merged histogram, populated by :meth:`close` from the
        #: workers' ``fleet/stage/<stage>/latency_ms`` ship-back.
        self._merged_stages: dict[str, Histogram] = {}
        self._final_reports: dict[int, dict] = {}
        self._final_streams: dict[str, dict] = {}
        self._closed = False
        self._shards = [
            _Shard(i, Backoff(cfg.restart_initial_s, cfg.restart_factor,
                              cfg.restart_max_s, cfg.max_restarts))
            for i in range(cfg.n_shards)
        ]
        for shard in self._shards:
            self._spawn(shard, {})

    # ------------------------------------------------------------------
    # routing & ingestion
    # ------------------------------------------------------------------
    def shard_for(self, stream_id: str) -> int | None:
        """The shard currently homing ``stream_id`` (assigns on first
        sight; ``None`` only when every shard has failed permanently)."""
        home = self._home.get(stream_id)
        if home is not None and not self._shards[home].failed:
            return home
        candidates = [s.index for s in self._shards if not s.failed]
        if not candidates:
            return None
        digest = zlib.crc32(stream_id.encode("utf-8"))
        home = candidates[digest % len(candidates)]
        self._home[stream_id] = home
        return home

    def submit(self, stream_id: str, accel_g, gyro_dps,
               t: float | None = None) -> bool:
        """Buffer one sample for its shard; False when shed or dropped.

        Never raises on load: a full shard buffer sheds its oldest
        sample, and a fleet with no surviving shards drops (both
        counted).
        """
        home = self.shard_for(stream_id)
        if home is None:
            self.dropped_samples += 1
            return False
        ax, ay, az = accel_g
        gx, gy, gz = gyro_dps
        # Plain-float tuples pickle smaller than ndarray rows and
        # round-trip float64 exactly — the bit-identity proof depends on
        # the pipe being lossless.
        sample = (stream_id, (float(ax), float(ay), float(az)),
                  (float(gx), float(gy), float(gz)),
                  None if t is None else float(t))
        shard = self._shards[home]
        shed = False
        if len(shard.pending) >= self.config.queue_capacity:
            shard.pending.popleft()
            self.shed_samples += 1
            shed = True
        shard.pending.append(sample)
        self.samples_in += 1
        if t is not None:
            self._last_t[stream_id] = float(t)
            if self._latest_t is None or t > self._latest_t:
                self._latest_t = float(t)
        return not shed

    # ------------------------------------------------------------------
    # the supervisor/pump loop
    # ------------------------------------------------------------------
    def pump(self) -> list[tuple[str, Detection]]:
        """One fleet round: restart due shards, dispatch every shard's
        buffered samples, collect replies, feed alerts.

        Doubles as the supervisor heartbeat — crashed or hung shards are
        detected here, their in-flight batch is re-queued for
        redelivery, and their restart is scheduled on the backoff.
        Returns ``(stream_id, detection)`` pairs, shards in index order.
        """
        now = time.monotonic()
        self._restart_due(now)
        detections: list[tuple[str, Detection]] = []
        depth = max((len(s.pending) for s in self._shards), default=0)
        self.max_queue_depth = max(self.max_queue_depth, depth)
        self._depth_gauge.set(float(depth))
        dispatched: list[tuple[_Shard, float]] = []
        for shard in self._shards:
            if not shard.up:
                continue
            if (not shard.pending
                    and now - shard.last_reply
                    < self.config.heartbeat_interval_s):
                continue  # idle and recently alive: skip the empty round
            batch = list(shard.pending)
            shard.pending.clear()
            try:
                shard.conn.send(("round", shard.seq, batch))
            except (OSError, ValueError):
                self.send_errors += 1
                self._requeue(shard, batch)
                self._mark_down(shard, crashed=True)
                continue
            shard.inflight = batch
            shard.seq += 1
            dispatched.append((shard, time.perf_counter()))
        for shard, t0 in dispatched:
            reply, timed_out = self._recv(shard)
            if reply is None or reply[0] != "ok":
                self._requeue(shard, shard.inflight)
                self._mark_down(shard, crashed=not timed_out)
                continue
            self._round_hist.observe(1000.0 * (time.perf_counter() - t0))
            shard.inflight = []
            shard.last_reply = time.monotonic()
            shard.backoff.reset()
            _, _, results, stats = reply
            shard.last_stats = stats
            for stream_id, detection, health in results:
                self.detections += 1
                self._health[stream_id] = health
                detections.append((stream_id, detection))
        self.rounds += 1
        if self._latest_t is not None:
            self.last_round_t = self._latest_t
        if self.alerts is not None:
            self._feed_alerts(detections)
        self._sync_metrics()
        return detections

    def drain(self, max_rounds: int = 64) -> list[tuple[str, Detection]]:
        """Pump until no shard holds buffered samples (end of feed).

        A shard that is down-but-restartable still owns its backlog, so
        the drain must outlast its backoff: when only down shards hold
        samples, sleep until the earliest scheduled restart rather than
        abandoning the queue.
        """
        detections: list[tuple[str, Detection]] = []
        for _ in range(max_rounds):
            detections.extend(self.pump())
            holders = [s for s in self._shards if s.pending and not s.failed]
            if not holders:
                break
            if not any(s.up for s in holders):
                due = [s.restart_at for s in holders
                       if s.restart_at is not None]
                if not due:
                    break  # nothing will ever come back for these
                wait = max(0.0, min(due) - time.monotonic())
                if wait:
                    time.sleep(wait)
        return detections

    def heartbeat(self) -> list[int]:
        """Ping every live shard; returns indexes that failed to answer
        (each is marked down and scheduled for restart)."""
        failed = []
        for shard in list(self._shards):
            if not shard.up:
                continue
            try:
                shard.conn.send(("ping", shard.seq))
                shard.seq += 1
                reply, timed_out = self._recv(shard)
            except (OSError, ValueError):
                reply, timed_out = None, False
            if reply is None or reply[0] != "pong":
                self._mark_down(shard, crashed=not timed_out)
                failed.append(shard.index)
            else:
                shard.last_reply = time.monotonic()
        return failed

    def _recv(self, shard: _Shard):
        """``(reply, timed_out)`` from one shard, bounded by
        ``worker_timeout_s``; a dead process short-circuits the wait
        (after draining any reply it managed to write before dying).

        The caller classifies crash vs hang from ``timed_out``, NOT from
        ``process.is_alive()``: a SIGKILLed child closes its pipe end
        before the kernel marks it a zombie, so on a busy box the front
        can observe the EOF while ``is_alive()`` still (briefly) reports
        True — the pipe's cause of death is the reliable signal."""
        deadline = time.monotonic() + self.config.worker_timeout_s
        while True:
            try:
                if shard.conn.poll(0.05):
                    return shard.conn.recv(), False
            except (EOFError, OSError):
                return None, False
            if not shard.process.is_alive():
                try:
                    if shard.conn.poll(0):
                        return shard.conn.recv(), False
                except (EOFError, OSError):
                    pass
                return None, False
            if time.monotonic() >= deadline:
                return None, True

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def _requeue(self, shard: _Shard, batch: list) -> None:
        """Redeliver an unacknowledged batch: its reply never arrived, so
        no detection from it was consumed — re-processing on the rebuilt
        sessions cannot double-fire."""
        if not batch:
            shard.inflight = []
            return
        shard.pending.extendleft(reversed(batch))
        self.redelivered_samples += len(batch)
        while len(shard.pending) > self.config.queue_capacity:
            shard.pending.popleft()
            self.shed_samples += 1
        shard.inflight = []

    def _mark_down(self, shard: _Shard, *, crashed: bool) -> None:
        if crashed:
            self.worker_crashes += 1
        else:
            self.worker_timeouts += 1
        if shard.process is not None:
            if shard.process.is_alive():
                shard.process.kill()
            shard.process.join(timeout=5.0)
            shard.process = None
        if shard.conn is not None:
            try:
                shard.conn.close()
            except OSError:
                pass
            shard.conn = None
        if shard.backoff.exhausted:
            shard.failed = True
            shard.restart_at = None
            self.worker_failures += 1
            _logger.error("shard %d failed permanently after %d restarts; "
                          "evacuating its streams", shard.index,
                          shard.backoff.attempts)
            self._evacuate(shard)
        else:
            delay = shard.backoff.next()
            shard.restart_at = time.monotonic() + delay
            _logger.warning(
                "shard %d %s; restart in %.3fs (attempt %d/%d)",
                shard.index, "crashed" if crashed else "hung", delay,
                shard.backoff.attempts, shard.backoff.max_attempts,
            )

    def _evacuate(self, shard: _Shard) -> None:
        """Move a permanently failed shard's streams and buffered samples
        to the survivors (rebuilt sessions marked interrupted)."""
        victims = [sid for sid, home in self._home.items()
                   if home == shard.index]
        adopted: dict[int, dict] = {}
        for stream_id in victims:
            del self._home[stream_id]
            new_home = self.shard_for(stream_id)
            if new_home is None:
                continue  # nowhere left; future submits count as dropped
            adopted.setdefault(new_home, {})[stream_id] = (
                self._last_t.get(stream_id))
            self.rehomed_streams += 1
        for index, streams in adopted.items():
            target = self._shards[index]
            try:
                target.conn.send(("adopt", streams))
            except (OSError, ValueError):
                self.send_errors += 1
        for sample in shard.pending:
            home = self._home.get(sample[0])
            if home is None:
                self.dropped_samples += 1
                continue
            target = self._shards[home]
            if len(target.pending) >= self.config.queue_capacity:
                target.pending.popleft()
                self.shed_samples += 1
            target.pending.append(sample)
        shard.pending.clear()

    def _restart_due(self, now: float) -> None:
        for shard in self._shards:
            if (shard.up or shard.failed or shard.restart_at is None
                    or now < shard.restart_at):
                continue
            streams = {sid: self._last_t.get(sid)
                       for sid, home in self._home.items()
                       if home == shard.index}
            self._spawn(shard, streams)
            self.worker_restarts += 1
            self.rehomed_streams += len(streams)
            _logger.info("shard %d restarted; re-homed %d stream(s)",
                         shard.index, len(streams))

    def _spawn(self, shard: _Shard, stream_init: dict) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=shard_main,
            args=(child_conn, shard.index, self.model, self.config.serve,
                  self.config.base_seed, stream_init, self._ship_trace),
            daemon=True,
            name=f"repro-fleet-shard-{shard.index}",
        )
        process.start()
        child_conn.close()
        shard.process = process
        shard.conn = parent_conn
        shard.restart_at = None
        shard.last_reply = time.monotonic()

    # ------------------------------------------------------------------
    # chaos injection (process-level fault scenarios)
    # ------------------------------------------------------------------
    def kill_worker(self, index: int) -> bool:
        """SIGKILL one worker mid-run (crash-failover scenario)."""
        shard = self._shards[index]
        if not shard.up:
            return False
        shard.process.kill()
        return True

    def hang_worker(self, index: int, seconds: float) -> bool:
        """Make one worker sleep through its next message (hang-detection
        scenario); the supervisor should time it out and restart it."""
        shard = self._shards[index]
        if not shard.up:
            return False
        try:
            shard.conn.send(("hang", float(seconds)))
        except (OSError, ValueError):
            return False
        return True

    # ------------------------------------------------------------------
    # alerts & metrics
    # ------------------------------------------------------------------
    def _feed_alerts(self, detections) -> None:
        for stream_id, detection in detections:
            self.alerts.observe(
                stream_id,
                t=detection.time_s,
                probability=detection.probability,
                source=detection.source,
                health=self._health.get(stream_id, "healthy"),
            )
        if self._latest_t is not None:
            self.alerts.tick(self._latest_t)

    def _sync_metrics(self) -> None:
        self._shards_gauge.set(float(sum(s.up for s in self._shards)))
        self._streams_gauge.set(float(len(self._home)))
        for name in ("samples_in", "shed_samples", "dropped_samples",
                     "redelivered_samples", "rounds", "detections",
                     "worker_crashes", "worker_timeouts", "worker_restarts",
                     "worker_failures", "rehomed_streams", "send_errors"):
            total = getattr(self, name)
            delta = total - self._synced.get(name, 0)
            if delta:
                self.registry.counter(  # metric-name: dynamic
                    f"fleet/{name}").inc(delta)
                self._synced[name] = total

    # ------------------------------------------------------------------
    # reporting & shutdown
    # ------------------------------------------------------------------
    @property
    def live_shards(self) -> list[int]:
        return [s.index for s in self._shards if s.up]

    @property
    def stream_ids(self) -> list[str]:
        return list(self._home)

    def fleet_latency(self) -> Histogram:
        """Per-window latency merged across every stopped worker (exact
        merge of identical bucket edges; populated by :meth:`close`)."""
        fleet = Histogram(buckets=_ROUND_BUCKETS_MS)
        fleet.merge(self._merged_latency)
        return fleet

    def fleet_stage_latency(self) -> dict:
        """``stage -> Histogram`` of per-stage attribution merged across
        every stopped worker (populated by :meth:`close`)."""
        out = {}
        for stage, hist in self._merged_stages.items():
            merged = Histogram(buckets=hist.edges)
            merged.merge(hist)
            out[stage] = merged
        return out

    def slo_rollup(self) -> dict:
        """Fleet-wide SLO event/bad totals from the merged registry.

        Workers count ``slo/<objective>/events`` / ``slo/<objective>/bad``
        into their registries; after :meth:`close` the front's
        ``merge_entries`` has already rolled them up by counter addition,
        so this is just a readout keyed by objective.
        """
        snapshot = self.registry.snapshot()
        rollup: dict[str, dict] = {}
        for name, value in snapshot.items():
            parts = name.split("/")
            if len(parts) != 3 or parts[0] != "slo":
                continue
            _, objective, kind = parts
            if kind not in ("events", "bad"):
                continue
            entry = rollup.setdefault(objective, {"events": 0, "bad": 0})
            entry[kind] = int(value)
        for entry in rollup.values():
            entry["bad_fraction"] = (entry["bad"] / entry["events"]
                                     if entry["events"] else 0.0)
        return rollup

    def report(self) -> dict:
        out = {
            "shards": self.config.n_shards,
            "shards_live": len(self.live_shards),
            "streams": len(self._home),
            "samples_in": self.samples_in,
            "shed_samples": self.shed_samples,
            "dropped_samples": self.dropped_samples,
            "redelivered_samples": self.redelivered_samples,
            "rounds": self.rounds,
            "last_round_t": self.last_round_t,
            "detections": self.detections,
            "worker_crashes": self.worker_crashes,
            "worker_timeouts": self.worker_timeouts,
            "worker_restarts": self.worker_restarts,
            "worker_failures": self.worker_failures,
            "rehomed_streams": self.rehomed_streams,
            "send_errors": self.send_errors,
            "max_queue_depth": self.max_queue_depth,
            "round_ms": self._round_hist.summary(),
        }
        if self.alerts is not None:
            out["alerts"] = self.alerts.report()
        slo = self.slo_rollup()
        if slo:
            out["slo"] = slo
        return out

    def stream_report(self) -> dict:
        """Final per-stream session reports (populated by :meth:`close`;
        the authoritative zero-streams-lost accounting)."""
        return dict(self._final_streams)

    def shard_reports(self) -> dict:
        """Final per-shard engine reports (populated by :meth:`close`)."""
        return dict(self._final_reports)

    def close(self) -> dict:
        """Stop every worker, merge its metrics/spans/latency histogram
        back into the front registry, and return the fleet report."""
        if self._closed:
            return self.report()
        self._closed = True
        stopping = []
        for shard in self._shards:
            if not shard.up:
                continue
            try:
                shard.conn.send(("stop", shard.seq))
                shard.seq += 1
                stopping.append(shard)
            except (OSError, ValueError):
                self.send_errors += 1
        collector = get_collector()
        for shard in stopping:
            reply, _ = self._recv(shard)
            if reply is not None and reply[0] == "stopped":
                _, _, entries, report, stream_report, spans = reply
                self.registry.merge_entries(entries)
                self._final_reports[shard.index] = report
                self._final_streams.update(stream_report)
                # One batch per worker, so parent links inside it survive
                # the id remapping (as repro.parallel adopts child spans).
                try:
                    collector.adopt(SpanRecord.from_json(record)
                                    for record in spans)
                except Exception:  # pragma: no cover - defensive
                    _logger.exception("could not adopt worker spans")
                for entry in entries:
                    if entry.get("type") != "histogram":
                        continue
                    name = entry["name"]
                    if name == "fleet/window_latency_ms":
                        self._merged_latency.merge(Histogram.from_entry(entry))
                    elif (name.startswith("fleet/stage/")
                            and name.endswith("/latency_ms")):
                        stage = name[len("fleet/stage/"):-len("/latency_ms")]
                        hist = Histogram.from_entry(entry)
                        merged = self._merged_stages.get(stage)
                        if merged is None:
                            self._merged_stages[stage] = hist
                        else:
                            merged.merge(hist)
            shard.process.join(timeout=5.0)
            if shard.process.is_alive():  # pragma: no cover - defensive
                shard.process.kill()
                shard.process.join(timeout=5.0)
            shard.process = None
            shard.conn.close()
            shard.conn = None
        self._sync_metrics()
        return self.report()
