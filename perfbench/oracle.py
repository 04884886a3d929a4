"""Correctness oracle: references built from the repo's identity contracts.

Run outside the timed region.  Each reference records every window the
detector decides (its exact input bytes, probability and the input row
that made it decidable) and every detection; the windows the timed run
predicted (a checksum of each and its probability, recorded in the
driver or, for the fleet, in each worker) are then compared window by window, and its
detections detection by detection:

* batched engine ≡ one solo engine per stream (``bulk_int8``,
  ``packets_faulty``);
* fleet ≡ one engine over all streams (``fleet_2shard``);
* per-sample ``push`` ≡ ``push_block`` replay of the whole recording
  (``wearable_push``);
* int8 fast path ≡ ``predict_reference`` on a seeded sample of the
  reference windows (``bulk_int8``, ``wearable_push``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.core.detector import FallDetector
from repro.obs.metrics import MetricsRegistry
from repro.serve.engine import ServeEngine

from drivers import window_keys
from inputs import DETECTOR, HOP, WINDOW

#: Windows per run checked against the int8 reference lowering.
INT8_SAMPLE = 64


@dataclass
class Window:
    sid: str
    data: np.ndarray             # the window the model was given
    key: int                     # drivers.window_keys of it
    prob: float
    time_s: float
    row: int                     # input row that made it decidable


@dataclass
class Reference:
    windows: list
    detections: dict             # sid -> [Detection]
    samples_seen: dict           # sid -> samples ingested (fills included)


@dataclass
class Verdict:
    expected: int
    bad: set = field(default_factory=set)    # reference window indices
    missing: int = 0
    wrong: int = 0
    extra: int = 0
    fallback_mismatch: int = 0
    checks: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.bad)

    @property
    def correct(self) -> bool:
        return (self.failed == 0 and self.extra == 0
                and self.fallback_mismatch == 0
                and all(self.checks.values()))


def _rows_for(stream, times) -> list:
    """Input row whose arrival made each window decidable: the row with
    that timestamp, or for a window ending on a gap-fill sample, the
    first row after the gap."""
    exact: dict = {}
    for i, v in enumerate(stream.t.tolist()):
        exact.setdefault(v, i)
    runmax = np.maximum.accumulate(stream.t)
    rows = []
    for ts in times:
        row = exact.get(float(ts))
        if row is None:
            row = int(np.searchsorted(runmax, ts, side="right"))
        rows.append(min(row, stream.rows - 1))
    return rows


def _windows(streams, sink) -> list:
    by_sid = defaultdict(list)
    for sid, data, prob, time_s in sink:
        by_sid[sid].append((data, prob, time_s))
    out = []
    for s in streams:
        items = by_sid.get(s.sid, [])
        rows = _rows_for(s, [time_s for _, _, time_s in items])
        keys = window_keys(np.stack([d for d, _, _ in items])) if items \
            else []
        out.extend(Window(s.sid, data, key, float(prob), float(time_s), row)
                   for (data, prob, time_s), key, row in zip(items, keys,
                                                              rows))
    return out


def _capture_completes(detector, sink: list, sid: str) -> None:
    inner = detector.complete

    def complete(request, probability, **kwargs):
        sink.append((sid, request.window.copy(), probability,
                     request.time_s))
        return inner(request, probability, **kwargs)

    detector.complete = complete


def engine_reference(model, serve_config, feed, *, solo: bool) -> Reference:
    """Replay ``feed`` through one engine per stream (``solo``) or one
    engine for all streams, on the same call schedule."""
    groups = [[s] for s in feed.streams] if solo else [feed.streams]
    n_calls = len(feed.tick_s)
    sink, detections, seen = [], {}, {}
    for group in groups:
        engine = ServeEngine(model, serve_config, registry=MetricsRegistry())
        for s in group:
            _capture_completes(engine.session(s.sid).detector, sink, s.sid)
        if solo:
            (s,) = group
            bounds = np.searchsorted(s.tick, np.arange(n_calls + 1))
            calls = [[(s.sid, s.accel[r], s.gyro[r], float(s.t[r]))
                      for r in range(bounds[j], bounds[j + 1])]
                     for j in range(n_calls)]
        else:
            calls = feed.batches
        for batch in calls:
            if not batch:
                continue
            for args in batch:
                engine.submit(*args)
            for sid, detection in engine.step():
                detections.setdefault(sid, []).append(detection)
        for s in group:
            seen[s.sid] = engine.session(s.sid).detector.samples_seen
    return Reference(_windows(feed.streams, sink), detections, seen)


def push_block_reference(model, recordings) -> list:
    """Per recording: the whole recording as one ``push_block``, the
    staged windows predicted together and completed in order."""
    refs = []
    for rec in recordings:
        detector = FallDetector(model, DETECTOR, registry=MetricsRegistry())
        hits, requests = detector.push_block(rec.accel, rec.gyro, rec.t)
        detections = list(hits)
        sink = []
        if requests:
            probs = np.asarray(model.predict(
                np.stack([r.window for r in requests]))).reshape(-1)
            for request, prob in zip(requests, probs):
                sink.append((rec.sid, request.window.copy(), prob,
                             request.time_s))
                hit = detector.complete(request, prob)
                if hit is not None:
                    detections.append(hit)
        refs.append(Reference(_windows([rec], sink), {rec.sid: detections},
                              {rec.sid: detector.samples_seen}))
    return refs


def _detection_key(d):
    return (d.sample_index, d.source, d.time_s, d.probability)


def _compare_detections(verdict, ref_windows, offset, ref, detections):
    """Mark windows whose detection differs; count fallback mismatches."""
    index = {(w.sid, w.time_s): offset + i for i, w in enumerate(ref_windows)}
    for sid in set(ref.detections) | set(detections):
        want = sorted(map(_detection_key, ref.detections.get(sid, [])))
        got = sorted(map(_detection_key, detections.get(sid, [])))
        if want == got:
            continue
        diff = set(want) ^ set(got)
        for _, source, time_s, _ in diff:
            i = index.get((sid, time_s))
            if source == "cnn" and i is not None:
                verdict.bad.add(i)
            else:
                verdict.fallback_mismatch += 1


def compare_windows(ref: Reference, captured: list, detections: dict
                    ) -> Verdict:
    """Every reference window must have been predicted with the same
    probability, in any order (batch composition is free).  ``captured``
    holds ``(window key, probability)`` pairs."""
    pool = defaultdict(list)
    for key, prob in captured:
        pool[key].append(prob)
    verdict = Verdict(expected=len(ref.windows))
    for i, w in enumerate(ref.windows):
        got = pool.get(w.key)
        if not got:
            verdict.missing += 1
            verdict.bad.add(i)
        elif w.prob in got:
            got.remove(w.prob)
        else:
            got.pop()
            verdict.wrong += 1
            verdict.bad.add(i)
    verdict.extra = sum(map(len, pool.values()))
    _compare_detections(verdict, ref.windows, 0, ref, detections)
    return verdict


class PushTally:
    """In-order window comparison of each pushed recording against its
    ``push_block`` reference, fed one recording at a time so the timed
    loop never holds more than one recording's captured windows."""

    def __init__(self, refs: list):
        self.refs = refs
        self.verdict = Verdict(expected=0)
        self.offsets: list = []

    def add(self, run, got: list) -> None:
        verdict, ref = self.verdict, self.refs[run.recording]
        offset = verdict.expected
        self.offsets.append(offset)
        verdict.expected += len(ref.windows)
        for k, w in enumerate(ref.windows):
            if k >= len(got):
                verdict.missing += 1
                verdict.bad.add(offset + k)
            elif got[k] != (w.key, w.prob):
                verdict.wrong += 1
                verdict.bad.add(offset + k)
        verdict.extra += max(0, len(got) - len(ref.windows))
        sid = ref.windows[0].sid if ref.windows else ""
        _compare_detections(verdict, ref.windows, offset, ref,
                            {sid: run.detections})


def int8_matches_reference(qmodel, windows: list, seed: int) -> bool:
    """The batched int8 kernels must equal the reference lowering bit
    for bit on a seeded sample of the reference ``windows`` (which the
    timed run matched bit for bit, probabilities included)."""
    if not windows:
        return False
    rng = np.random.default_rng([seed, 8])
    pick = rng.choice(len(windows), size=min(INT8_SAMPLE, len(windows)),
                      replace=False)
    x = np.stack([windows[i].data for i in pick])
    want = np.array([windows[i].prob for i in pick])
    got = np.asarray(qmodel.predict_reference(x)).reshape(-1)
    return bool(np.array_equal(got, want))


def due_windows(samples_seen: int) -> int:
    """Windows the nominal cadence makes due in ``samples_seen`` samples:
    the first once the buffer is full, then one per hop."""
    return max(0, (samples_seen - WINDOW) // HOP + 1)
