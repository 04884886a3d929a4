"""Replay loops, the service clock, and the output capture the oracle reads.

The open loop sends on a fixed schedule whatever the program does, so a
slow call delays later calls and the delay is charged to them; the
closed loop is one caller that pushes its next sample as soon as the
previous push returns.  The loops run in real time, so the program sees
the schedule it would see in production.

Service time — how long one call into the program takes — is the CPU
time the program spent on the call, scaled to a reference CPU speed,
plus the time the call spent blocked.  The CPU time is the driver
process's (``time.process_time``) plus, for the fleet, the workers'
(``/proc/<pid>/task/*/schedstat``).  A call that gave up the core at
least once (a voluntary context switch: waiting on a pipe reply, a
lock, a sleep, a page read) is charged its wall time minus that CPU
time and minus the time the driver thread sat on a run queue waiting
for a core other processes held (``/proc/thread-self/schedstat``),
never below zero; that remainder also holds process wake-ups and,
unavoidably, time the hypervisor gave to other guests meanwhile.  A
call that never blocked is charged no waiting, so host noise does not
enter it.  Work done in parallel is counted once per process, so
service time is the call's latency on one core: on the shared 2-vCPU
machines the benchmark was written on, two busy processes got one
core's worth between them at some times and two at others, so
crediting parallel speed-ups, or charging the wait for a core, made the
figures follow the neighbours' load.

Only CPU time is scaled.  The benchmark runs on shared virtual
machines, where CPU time itself drifts by up to 2x within seconds as
neighbours load the shared cores; unscaled, medians of identical 10 s
runs moved by 20-40%.  So a fixed unit of work that calls no program
code (:func:`speed_probe`) is timed every ~50 ms during the replay, and
the driver's CPU time is multiplied by ``PROBE_REF_S`` over the median
probe time within ``PROBE_SMOOTH_S`` of the call.  Fleet workers run on
whichever core is free, so their CPU time is scaled by the replay's
overall median instead.  A change to the program changes its service
times but not the probe.  Queueing between calls is then computed on a
virtual clock: a call starts at its scheduled time or when the previous
call ends, whichever is later, and ends one service time later.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import multiprocessing.util
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

#: Set-up-to-first-call gap, so the first scheduled call is not already
#: late when the loop starts.
LEAD_S = 0.05
#: Probe CPU time at the reference speed; service times are reported as
#: if the CPU ran at the speed that makes one probe take this long
#: (about its median during replays on the 2-vCPU machine the baseline
#: was measured on, so reported times read close to real ones there).
PROBE_REF_S = 2.0e-3
#: Aim for one probe per this much wall time during a replay.
PROBE_EVERY_S = 0.05
#: Half-width of the window over which probe times are pooled (median):
#: wide enough that one noisy probe cannot move a call's scale, narrow
#: because the speed a thread gets changes within a second.
PROBE_SMOOTH_S = 0.1
#: Pushes between probes in the closed loop (~20-30 ms of pushes), and
#: the offset that keeps a probe's cache footprint away from the pushes
#: that decide a window (every 20th row).
PROBE_EVERY_PUSHES = 200
PROBE_OFFSET = 10

_PROBE_X = np.linspace(0.0, 1.0, 180).reshape(20, 9)
_PROBE_A = (np.arange(36 * 45) % 255 - 127).reshape(36, 45)
_PROBE_B = (np.arange(45 * 16) % 251 - 125).reshape(45, 16)


def speed_probe() -> float:
    """CPU seconds one fixed unit of work takes right now: interpreter
    bookkeeping with small-array numpy calls plus integer GEMMs shaped
    like an int8 convolution, the two kinds of work the serve path mixes
    (independent of the program under test; single-threaded, so no BLAS
    helper thread hides work from ``thread_time``)."""
    c0 = time.thread_time()
    x, acc, memo = _PROBE_X, 0.0, {}
    for i in range(200):
        y = x * 1.0001 + 0.5
        x = np.concatenate([y[1:], y[:1]])
        acc += math.sqrt(float(y[0, 0]) + i)
        memo[i % 17] = acc
    for _ in range(30):
        acc += float((_PROBE_A @ _PROBE_B)[0, 0])
    return time.thread_time() - c0


def timed(fn):
    """Run ``fn()``; returns its result and its service time (see the
    module docstring), CPU time scaled by probes taken just before and
    just after it.  Child processes alive when it returns count as
    started by it, with all their CPU time."""
    before = speed_probe()
    with QueueClock() as queue_clock:
        q0, v0 = queue_clock.read(), _switches()
        t0, c0 = time.perf_counter(), time.process_time()
        out = fn()
        cpu, wall = time.process_time() - c0, time.perf_counter() - t0
        queued, switched = queue_clock.read() - q0, _switches() - v0
    children = WorkerClock(
        child.pid for child in multiprocessing.active_children())
    scale = PROBE_REF_S / (0.5 * (before + speed_probe()))
    return out, float(service(wall, cpu, queued, switched, scale,
                              children.read().sum(), scale))


class SpeedTrack:
    """Probe times along a replay, turned into per-instant scale factors."""

    def __init__(self):
        self.at: list = []
        self.cost: list = []

    def sample(self) -> None:
        self.at.append(time.perf_counter())
        self.cost.append(speed_probe())

    def overall(self) -> float:
        """``PROBE_REF_S`` / the median probe time of the whole replay."""
        return PROBE_REF_S / float(np.median(self.cost))

    def factor(self, at) -> np.ndarray:
        """``PROBE_REF_S`` / the smoothed probe time at the ascending wall
        times ``at``."""
        cost, when = np.asarray(self.cost), np.asarray(self.at)
        keep = slice(
            np.searchsorted(when, at[0] - 2 * PROBE_SMOOTH_S, side="left"),
            np.searchsorted(when, at[-1] + 2 * PROBE_SMOOTH_S, side="right"))
        cost, when = cost[keep], when[keep]
        lo = np.searchsorted(when, when - PROBE_SMOOTH_S, side="left")
        hi = np.searchsorted(when, when + PROBE_SMOOTH_S, side="right")
        smooth = np.array([np.median(cost[a:b]) for a, b in zip(lo, hi)])
        return PROBE_REF_S / np.interp(at, when, smooth)


class WorkerClock:
    """CPU seconds used so far by each of some other processes, summed
    over their threads (``/proc/<pid>/task/<tid>/schedstat``, field 1)."""

    def __init__(self, pids):
        self.pids = list(pids)

    def read(self) -> np.ndarray:
        out = np.zeros(len(self.pids))
        for i, pid in enumerate(self.pids):
            base = f"/proc/{pid}/task"
            for tid in os.listdir(base):
                with open(f"{base}/{tid}/schedstat", "rb") as fh:
                    out[i] += int(fh.read().split()[0])
        return out / 1e9


def service(wall, cpu, queued, switched, scale, worker_cpu=0.0,
            worker_scale=1.0):
    """Service times of calls, from their wall times, the driver's CPU
    and run-queue times and voluntary context switches, its speed
    factor, and the fleet workers' CPU times and their speed factor (see
    the module docstring)."""
    wait = np.maximum(0.0, wall - cpu - worker_cpu - queued)
    return (cpu * scale + worker_cpu * worker_scale
            + np.where(switched > 0, wait, 0.0))


def _switches() -> int:
    """Voluntary context switches of the calling thread so far."""
    return resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw


class QueueClock:
    """Seconds the calling thread has spent runnable but waiting for a
    core (``/proc/thread-self/schedstat``, field 2)."""

    def __enter__(self):
        self.fd = os.open("/proc/thread-self/schedstat", os.O_RDONLY)
        return self

    def __exit__(self, *exc) -> None:
        os.close(self.fd)

    def read(self) -> float:
        return int(os.pread(self.fd, 64, 0).split()[1]) * 1e-9


@dataclass
class OpenLoopRun:
    """Clock reads of one open-loop replay, in seconds.

    ``start``, ``begin``, ``stepped`` and ``ret`` are wall times
    (``time.perf_counter``); ``submit_s`` / ``step_s`` are each call's
    service times and ``workers_s`` the fleet workers' share of
    ``step_s`` (see the module docstring).  ``v_step`` /
    ``v_end`` are virtual times, from schedule zero, at which each call's
    step began and returned.
    """

    start: float                 # schedule zero
    begin: np.ndarray            # per call: first submit began
    stepped: np.ndarray          # per call: step / pump began
    ret: np.ndarray              # per call: step / pump returned
    submit_s: np.ndarray
    step_s: np.ndarray
    workers_s: np.ndarray
    tick_s: np.ndarray
    detections: dict = field(default_factory=dict)   # sid -> [Detection]

    def __post_init__(self):
        n = len(self.tick_s)
        self.v_step, self.v_end = np.empty(n), np.empty(n)
        free = 0.0
        for j in range(n):
            self.v_step[j] = max(self.tick_s[j], free) + self.submit_s[j]
            free = self.v_end[j] = self.v_step[j] + self.step_s[j]

    @property
    def busy_s(self) -> float:
        return float(np.sum(self.submit_s + self.step_s))


def open_loop(feed, submit, step, workers: WorkerClock | None = None,
              between=None) -> OpenLoopRun:
    """Replay ``feed`` in real time: at each call's scheduled time submit
    its samples one by one, then call ``step`` (which drains and decides
    everything submitted).  ``between()``, if given, runs after each
    call, outside the timed region."""
    n = len(feed.tick_s)
    tick_s = np.asarray(feed.tick_s, dtype=float)
    gap = float(np.min(np.diff(tick_s))) if n > 1 else PROBE_EVERY_S
    every = max(1, round(PROBE_EVERY_S / gap))
    probes = max(1, round(gap / PROBE_EVERY_S))
    begin, submitted = np.empty(n), np.empty(n)
    stepped, ret = np.empty(n), np.empty(n)
    submit_cpu, step_cpu, worker_cpu = np.empty(n), np.empty(n), np.zeros(n)
    # Per call, submits and step: run-queue seconds, voluntary switches.
    queued_s, switched = np.empty((2, n)), np.empty((2, n))
    detections: dict = {}
    track = SpeedTrack()
    clock, cpu, sleep = time.perf_counter, time.process_time, time.sleep
    switches = _switches
    track.sample()
    with QueueClock() as queue_clock:
        queued = queue_clock.read
        start = clock() + LEAD_S
        for j in range(n):
            wait = start + tick_s[j] - clock()
            if wait > 0:
                sleep(wait)
            q0, v0 = queued(), switches()
            b = clock()
            c0 = cpu()
            for args in feed.batches[j]:
                submit(*args)
            c1 = cpu()
            e = clock()
            q1, v1 = queued(), switches()
            w0 = workers.read() if workers is not None else None
            q2, v2 = queued(), switches()
            s = clock()
            c2 = cpu()
            out = step()
            c3 = cpu()
            r = clock()
            q3, v3 = queued(), switches()
            begin[j], submitted[j], stepped[j], ret[j] = b, e, s, r
            submit_cpu[j], step_cpu[j] = c1 - c0, c3 - c2
            queued_s[:, j] = q1 - q0, q3 - q2
            switched[:, j] = v1 - v0, v3 - v2
            if workers is not None:
                worker_cpu[j] = float(np.sum(workers.read() - w0))
            for sid, detection in out:
                detections.setdefault(sid, []).append(detection)
            if between is not None:
                between()
            if j % every == every - 1:
                for _ in range(probes):
                    track.sample()
    track.sample()
    scale = track.factor(begin)
    submit_s = service(submitted - begin, submit_cpu, queued_s[0],
                       switched[0], scale)
    # The workers run on whichever core is free, not the driver's, so
    # their CPU time is scaled by the replay's overall speed.
    worker_scale = track.overall()
    step_s = service(ret - stepped, step_cpu, queued_s[1], switched[1],
                     scale, worker_cpu, worker_scale)
    return OpenLoopRun(start, begin, stepped, ret, submit_s, step_s,
                       worker_cpu * worker_scale, tick_s, detections)


@dataclass
class PushRun:
    """One recording pushed sample by sample through a fresh detector."""

    recording: int
    detections: list
    clocks: np.ndarray | None    # per push: begin, wall, CPU, run queue,
    #                              voluntary switches (until compacted)
    service: np.ndarray | None = None   # per push, once compacted
    wall_s: float = 0.0          # summed wall time of the pushes


def closed_loop(recordings, make_detector, seconds: float, after) -> list:
    """Push the recordings in sequence, starting over until ``seconds``
    have passed (checked between recordings).  ``after(run, detector)``
    is called outside the timed calls once each recording is done.

    A recording's clock reads are reduced to service times (float32)
    once the speed probes around it are in, so the driver's own memory
    hardly grows with the number of pushes."""
    runs, pending = [], []
    track = SpeedTrack()
    clock, cpu, switches = time.perf_counter, time.process_time, _switches
    start = clock()
    done = False
    with QueueClock() as queue_clock:
        queued = queue_clock.read
        while not done:
            for idx, rec in enumerate(recordings):
                detector = make_detector()
                push = detector.push
                rows = list(zip(rec.accel, rec.gyro, rec.t.tolist()))
                clocks = np.empty((5, len(rows)))
                detections = []
                for i, (a, g, t) in enumerate(rows):
                    if i % PROBE_EVERY_PUSHES == PROBE_OFFSET:
                        track.sample()
                    q0, v0 = queued(), switches()
                    b = clock()
                    c0 = cpu()
                    hit = push(a, g, t)
                    c1 = cpu()
                    e = clock()
                    clocks[:, i] = (b, e - b, c1 - c0, queued() - q0,
                                    switches() - v0)
                    if hit is not None:
                        detections.append(hit)
                run = PushRun(idx, detections, clocks)
                after(run, detector)
                runs.append(run)
                pending.append(run)
                while pending and (track.at[-1] > pending[0].clocks[0, -1]
                                   + 2 * PROBE_SMOOTH_S):
                    _compact(pending.pop(0), track)
                if clock() - start >= seconds:
                    done = True
                    break
    track.sample()
    for run in pending:
        _compact(run, track)
    return runs


def _compact(run: PushRun, track: SpeedTrack) -> None:
    begin, wall, used, queued, switched = run.clocks
    run.service = service(wall, used, queued, switched,
                          track.factor(begin)).astype(np.float32)
    run.wall_s = float(wall.sum())
    run.clocks = None


_KEY_RNG = np.random.default_rng(20250101)
_KEY_MUL = _KEY_RNG.integers(1, 2**63, size=(2, 4096), dtype=np.uint64) | 1


def window_keys(x) -> list:
    """What the oracle compares windows by: a 64-bit checksum of each
    window's float64 values (position-weighted, mixed, summed mod 2^64),
    cheap enough to take inside a fleet worker's timed calls."""
    x = np.asarray(x, dtype=np.float64)
    v = np.ascontiguousarray(x).reshape(len(x), -1).view(np.uint64)
    mul = _KEY_MUL[:, :v.shape[1]]
    h = v * mul[0]
    h ^= h >> np.uint64(31)
    return (h * mul[1]).sum(axis=1, dtype=np.uint64).tolist()


def _keyed(x, y) -> list:
    """``(window key, probability)`` per window of one predict call."""
    if not len(x):
        return []
    probs = np.asarray(y).reshape(len(x), -1)[:, 0].tolist()
    return list(zip(window_keys(x), probs))


class Capture:
    """Records every window one model object predicts, with its output.

    Installed as an instance attribute that shadows the class method, so
    the program's own code path is unchanged.  Inside a call it only
    keeps references; :meth:`compact`, run between timed calls, reduces
    them to window keys so the log stays small.
    """

    def __init__(self, model):
        self.model = model
        self.pending: list = []
        self.keyed: list = []
        inner = model.predict
        pending = self.pending

        def predict(x, *args, **kwargs):
            out = inner(x, *args, **kwargs)
            pending.append((x, out))
            return out

        model.predict = predict

    def close(self) -> None:
        self.model.__dict__.pop("predict", None)

    def compact(self) -> None:
        for x, y in self.pending:
            self.keyed.extend(_keyed(x, y))
        self.pending.clear()

    def take(self) -> list:
        """``(window key, probability)`` per window predicted since the
        last take, in order."""
        self.compact()
        out, self.keyed = self.keyed, []
        return out


def capture_in_workers(model, directory: str) -> None:
    """Make every process forked after this call record the window keys
    and outputs of its calls to ``model.predict`` (taken inside the call)
    and write them, as :func:`worker_windows` reads them, to
    ``directory`` when it exits (through ``multiprocessing``'s exit
    finalizers).  Calls in this process are not recorded."""
    os.makedirs(directory, exist_ok=True)
    inner = model.predict
    owner = os.getpid()
    keyed: list = []

    def dump():
        path = os.path.join(directory, f"windows_{os.getpid()}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(keyed, fh)

    def predict(x, *args, **kwargs):
        out = inner(x, *args, **kwargs)
        if os.getpid() != owner:
            if not keyed:
                multiprocessing.util.Finalize(None, dump, exitpriority=10)
            keyed.extend(_keyed(x, out))
        return out

    model.predict = predict


def worker_windows(directory: str, pids, *, forget: bool = False) -> list:
    """``(window key, probability)`` pairs the given (exited) worker
    processes recorded; with ``forget`` their files are only removed, so
    that stale ones left by an earlier process with the same pid cannot
    be read."""
    out = []
    for pid in pids:
        path = os.path.join(directory, f"windows_{pid}.json")
        if not os.path.exists(path):
            continue
        if not forget:
            with open(path, encoding="ascii") as fh:
                out.extend(map(tuple, json.load(fh)))
        os.remove(path)
    return out
