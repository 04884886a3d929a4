"""Traced runs: a span around each public call into each layer.

The spans are recorded from the benchmark's side, by wrapping the
layers' public methods for the duration of the traced run, on the
program's own ``repro.obs.trace`` collector.  Only the driver process
records: fleet workers are forked while the collector is off, because
``FleetFront.close`` cannot adopt the spans they ship back (it passes
``TraceCollector.adopt`` one record instead of a list, and the
resulting error is logged and swallowed per span).
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager

from repro.alerts import AlertManager
from repro.core.detector import FallDetector
from repro.fleet.front import FleetFront
from repro.nn.model import Model
from repro.obs.slo import SLOTracker
from repro.obs.trace import get_collector, span
from repro.quant.qmodel import QuantizedModel
from repro.serve.engine import ServeEngine
from repro.serve.session import StreamSession


def _rows_in(args, out):
    return len(args[1])


def _rows_out(args, out):
    return len(out[0])


#: (span name, class, method, optional row counter)
WRAPPED = (
    ("serve.engine.submit", ServeEngine, "submit", None),
    ("serve.engine.step", ServeEngine, "step", None),
    ("serve.session.drain_block", StreamSession, "drain_block", _rows_out),
    ("core.detector.push_block", FallDetector, "push_block", None),
    ("core.detector.push", FallDetector, "push", None),
    ("core.detector.complete", FallDetector, "complete", None),
    ("nn.predict", Model, "predict", _rows_in),
    ("quant.predict", QuantizedModel, "predict", _rows_in),
    ("obs.slo.evaluate", SLOTracker, "evaluate", None),
    ("obs.slo.record", SLOTracker, "record", None),
    ("alerts.observe", AlertManager, "observe", None),
    ("alerts.tick", AlertManager, "tick", None),
    ("fleet.front.submit", FleetFront, "submit", None),
    ("fleet.front.pump", FleetFront, "pump", None),
)

SPAN_NAMES = tuple(name for name, *_ in WRAPPED)


def _wrap(fn, name, count):
    if count is None:
        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)
    else:
        def traced(*args, **kwargs):
            with span(name) as sp:
                out = fn(*args, **kwargs)
                sp.set("rows", count(args, out))
                return out
    return functools.wraps(fn)(traced)


@contextmanager
def traced():
    """Wrap every layer's public calls; yields the (cleared, still off)
    collector and on exit restores the methods and its on/off state."""
    saved = []
    for name, cls, attr, count in WRAPPED:
        fn = cls.__dict__[attr]
        saved.append((cls, attr, fn))
        setattr(cls, attr, _wrap(fn, name, count))
    collector = get_collector()
    was_enabled = collector.enabled
    collector.clear()
    collector.enabled = False
    try:
        yield collector
    finally:
        for cls, attr, fn in saved:
            setattr(cls, attr, fn)
        collector.enabled = was_enabled


@contextmanager
def paused():
    """Record no spans inside the block (for work that is not the pass's,
    such as building a reference)."""
    collector = get_collector()
    was_enabled = collector.enabled
    collector.enabled = False
    try:
        yield
    finally:
        collector.enabled = was_enabled


def self_times(records) -> dict:
    """``name -> {"self_s", "calls", "rows"}``: a span's self time is its
    duration minus the durations of its child spans."""
    children = defaultdict(float)
    for rec in records:
        if rec.parent_id is not None:
            children[rec.parent_id] += rec.duration_s
    out: dict = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "rows": 0})
    for rec in records:
        agg = out[rec.name]
        agg["self_s"] += rec.duration_s - children[rec.span_id]
        agg["calls"] += 1
        agg["rows"] += rec.attrs.get("rows", 0)
    return dict(out)


def root_busy_s(records) -> float:
    """Time spent inside top-level calls (spans without a parent)."""
    return sum(rec.duration_s for rec in records if rec.parent_id is None)
