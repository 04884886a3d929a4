"""Serve benchmark: sample-to-decision latency and stream-seconds per busy
second, on four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bulk_int8 --seed 1 --trace 0

Seeded synthetic IMU streams (100 Hz, 400 ms windows at 50% overlap)
are replayed from this one process into the public serving API
(``ServeEngine.submit/step``, ``FleetFront.submit/pump``,
``FallDetector.push``).  With ``--trace 0`` one untraced pass reports
the end-to-end metrics; with ``--trace 1`` an untraced pass is followed
by a traced one that reports the per-layer metrics (self time per
public call, counts, the program's own counters) and writes its spans
to ``perfbench/out/trace_<workload>.jsonl``.  Every run also checks the
program's outputs against the workload's reference (see ``oracle.py``)
and the input/model pins (see ``inputs.py``).

Output: one line per metric (``name value unit``), a ``record`` JSON
line (environment, pins, operation counts, every metric), and last the
result line ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
# One BLAS thread, set before numpy loads OpenBLAS.  With its default of
# one thread per core, on the shared 2-vCPU machines the benchmark was
# written on the second thread mostly spun or waited for a core, so a
# batch's CPU and wall time followed the neighbours' load (int8 steps
# moved by 40% between runs minutes apart).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
from drivers import timed  # noqa: E402
from inputs import (DEFAULT_SECONDS, DEFAULT_SEED, FS,  # noqa: E402
                    calibration_windows, digest, input_digest, load_pins,
                    model_digest, pinned_model)
from workloads import WORKLOADS, release  # noqa: E402

#: The paper's airbag inflation time: a decision later than this is late.
BUDGET_MS = 150.0
#: Set-ups per run: some before the timed pass (the last one serves it)
#: and some after the oracle, so one burst of host load cannot move
#: every repetition's median.
SETUP_REPS_BEFORE = 4
SETUP_REPS_AFTER = 3
TRACE_DIR = os.path.join(HERE, "out")

#: name -> unit, as in BENCHMARK.json.
END_TO_END = {
    "decision_latency_p50_ms": "ms",
    "decision_latency_p99_ms": "ms",
    "budget_met_ratio": "ratio",
    "stream_s_per_s": "s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_STAGES = ("ingest", "fusion", "filter", "window", "inference", "decision")
PER_LAYER = {
    **{f"{name}.self_ms": "ms" for name in spans.SPAN_NAMES},
    "serve.engine.submit.calls": "count",
    "serve.engine.step.calls": "count",
    "serve.engine.queue_wait_ms.p50": "ms",
    "serve.engine.queue_wait_ms.p99": "ms",
    "serve.engine.batch_size.mean": "windows",
    "serve.engine.batches": "count",
    "serve.engine.dropped_samples": "count",
    "serve.engine.batch_errors": "count",
    "serve.engine.quarantined_streams": "count",
    "serve.session.drain_block.rows_per_call": "rows",
    "core.detector.push_block.calls": "count",
    "core.detector.push.calls": "count",
    **{f"core.detector.stage.{s}.ms_per_window": "ms" for s in _STAGES},
    "core.detector.cnn_window_ratio": "ratio",
    "nn.predict.calls": "count",
    "nn.predict.windows_per_call": "windows",
    "quant.predict.calls": "count",
    "quant.predict.windows_per_call": "windows",
    "quant.macs_per_window": "count",
    "fleet.front.round_ms.p50": "ms",
    "fleet.front.round_ms.p99": "ms",
    "fleet.front.ipc_wait_ms": "ms",
    "fleet.front.shed_samples": "count",
    "fleet.front.redelivered": "count",
    "bench.generator_lag_ms.p99": "ms",
    "bench.trace_overhead_ratio": "ratio",
}


def tail_percentile(values, q: float = 99.0, samples: int | None = None):
    """``(value, percentile)``: the ``q``-th percentile of ``values``,
    lowered until at least ten of ``samples`` independent timings lie
    beyond it (default: every value is one); the median below 20.

    Windows decided by one call share that call's timing, so for the
    decision latency the independent timings are the deciding calls.
    """
    values = np.asarray(values, dtype=float)
    n = len(values) if samples is None else samples
    if len(values) == 0:
        return 0.0, q
    q = min(q, 100.0 * (1.0 - 10.0 / n)) if n >= 20 else 50.0
    return float(np.percentile(values, q)), q


def _openblas() -> tuple:
    version = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get(
        "version", "unknown")
    threads = None
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return version, threads


def _status_kb(key: str) -> int:
    """One ``kB`` figure of this process from ``/proc/self/status``."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def environment() -> dict:
    version, threads = _openblas()
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": version,
        "openblas_threads": threads,
        "loadavg_start": list(os.getloadavg()),
    }


def timed_setups(workload, calibration, reps: int, times: list):
    """Set up ``reps`` times, appending the service time of each (see
    ``drivers.py``) to ``times``; returns the last set-up (the others are
    released)."""
    ready = None
    for _ in range(reps):
        if ready is not None:
            release(ready)
        ready, elapsed = timed(lambda: workload.setup(calibration))
        times.append(elapsed)
    return ready


def stream_s_per_s(p) -> float:
    return p.rows / FS / p.busy_s


def end_to_end(p, verdict, latencies, setup_s, rss_mb) -> tuple:
    timed = [x for x in latencies if x is not None]
    decided = [ms for ms, _ in timed]
    calls = len({call for _, call in timed})
    met = sum(x <= BUDGET_MS for x in decided)
    expected = max(verdict.expected, 1)
    p99, q = tail_percentile(decided, samples=calls)
    return {
        "decision_latency_p50_ms": float(np.median(decided)) if decided
        else 0.0,
        "decision_latency_p99_ms": p99,
        "budget_met_ratio": met / expected,
        "stream_s_per_s": stream_s_per_s(p),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }, {
        "latency_samples": len(decided),
        "latency_deciding_calls": calls,
        "latency_tail_percentile": q,
        "error_ratio": verdict.failed / expected,
        "budget_miss_ratio": 1.0 - met / expected,
    }


def per_layer(p, workload, feed, records, base_sps) -> dict:
    st = spans.self_times(records)

    def span_stat(name, key):
        return st.get(name, {}).get(key, 0)

    out = {f"{name}.self_ms": 1000.0 * span_stat(name, "self_s")
           for name in spans.SPAN_NAMES}
    for name in ("serve.engine.submit", "serve.engine.step",
                 "core.detector.push_block", "core.detector.push",
                 "nn.predict", "quant.predict"):
        out[f"{name}.calls"] = span_stat(name, "calls")
    for name, label in (("nn.predict", "windows"),
                        ("quant.predict", "windows"),
                        ("serve.session.drain_block", "rows")):
        calls = span_stat(name, "calls")
        out[f"{name}.{label}_per_call"] = (span_stat(name, "rows") / calls
                                           if calls else 0.0)
    run = p.run
    open_loop = workload != "wearable_push"
    # Queue wait is step start minus sample due time, seen by the driver
    # only where it calls the engine itself (fleet shards step remotely).
    waits = (np.concatenate([1000.0 * (run.v_step[s.tick] - s.due)
                             for s in feed.streams])
        if open_loop and workload != "fleet_2shard" else np.zeros(0))
    out["serve.engine.queue_wait_ms.p50"] = (float(np.median(waits))
                                             if len(waits) else 0.0)
    out["serve.engine.queue_wait_ms.p99"] = tail_percentile(waits)[0]
    rep = p.report
    out["serve.engine.batch_size.mean"] = rep.get("batch_size", {}).get(
        "mean", 0.0)
    for key in ("batches", "dropped_samples", "batch_errors",
                "quarantined_streams"):
        out[f"serve.engine.{key}"] = rep.get(key, 0)
    stages = p.stages or {}
    for stage in _STAGES:
        out[f"core.detector.stage.{stage}.ms_per_window"] = stages.get(
            stage, 0.0)
    due = sum(oracle.due_windows(n) for n in rep["samples_seen"].values())
    out["core.detector.cnn_window_ratio"] = p.cnn_windows / due if due else 0.0
    out["quant.macs_per_window"] = (p.qmodel.total_macs
                                    if p.qmodel is not None else 0)
    rounds = rep.get("round_ms", {})
    out["fleet.front.round_ms.p50"] = rounds.get("p50", 0.0)
    out["fleet.front.round_ms.p99"] = rounds.get("p99", 0.0)
    # Pump service time minus the workers' computing (see drivers.py):
    # the front's pickling, pipe transfer and waiting for replies.
    out["fleet.front.ipc_wait_ms"] = (
        1000.0 * float(np.mean(run.step_s - run.workers_s))
        if workload == "fleet_2shard" else 0.0)
    out["fleet.front.shed_samples"] = rep.get("shed_samples", 0)
    out["fleet.front.redelivered"] = rep.get("redelivered_samples", 0)
    lags = (1000.0 * (run.begin - (run.start + feed.tick_s)) if open_loop
            else np.zeros(0))
    out["bench.generator_lag_ms.p99"] = tail_percentile(lags)[0]
    out["bench.trace_overhead_ratio"] = base_sps / stream_s_per_s(p)
    return out


def traced_pass(workload, feed, seconds, calibration):
    """Set up afresh and make one pass with every layer's calls traced;
    returns the pass and its spans."""
    with spans.traced() as collector:
        ready = workload.setup(calibration)
        collector.enabled = True
        p = workload.run(ready, feed, seconds)
        collector.enabled = False
        records = collector.records()
        os.makedirs(TRACE_DIR, exist_ok=True)
        collector.export_jsonl(
            os.path.join(TRACE_DIR, f"trace_{workload.name}.jsonl"))
        collector.clear()
    return p, records


def _ops(p, verdict) -> dict:
    rep = p.report
    return {
        "samples_submitted": p.rows,
        "samples_shed": rep.get("dropped_samples", 0)
        + rep.get("shed_samples", 0),
        "samples_rejected": rep.get("rejected_streams", 0),
        "windows_expected": verdict.expected,
        "windows_decided": verdict.expected - verdict.missing,
        "windows_mismatched": verdict.wrong,
        "windows_extra": verdict.extra,
        "windows_failed": verdict.failed,
        "fallback_mismatches": verdict.fallback_mismatch,
        "detections": sum(map(len, p.detections.values())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    env = environment()
    workload = WORKLOADS[args.workload]
    pins = load_pins()
    calibration = calibration_windows()
    checks = {
        "model_pin": model_digest(pinned_model()) == pins["model"],
        "calibration_pin": digest(calibration) == pins["calibration"],
        "input_pin": (input_digest(args.workload, DEFAULT_SECONDS,
                                   DEFAULT_SEED)
                      == pins["inputs"][args.workload]),
    }
    feed = workload.inputs(args.seconds, args.seed)
    # The inputs are ~10^5 long-lived objects; keep them out of the
    # collector's reach so they do not inflate the program's GC pauses.
    gc.collect()
    gc.freeze()

    # Peak memory is counted from here: what the benchmark itself holds
    # (interpreter, libraries, inputs, calibration set) is left out.
    base_kb = _status_kb("VmRSS")
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")               # restart VmHWM from the current RSS

    setup_reps: list = []
    ready = timed_setups(workload, calibration, SETUP_REPS_BEFORE, setup_reps)
    p = workload.run(ready, feed, args.seconds)
    rss_mb = (_status_kb("VmHWM") - base_kb + p.child_hwm_kb) / 1024.0
    if args.trace:
        base_sps = stream_s_per_s(p)
        p, records = traced_pass(workload, feed, args.seconds, calibration)
    verdict, latencies = workload.check(p, feed, args.seed)
    verdict.checks.update(checks)
    release(timed_setups(workload, calibration, SETUP_REPS_AFTER,
                         setup_reps))
    e2e, extra = end_to_end(p, verdict, latencies,
                            statistics.median(setup_reps), rss_mb)
    if args.trace:
        # The pass checked and measured here is the traced one; its
        # end-to-end figures carry the tracing overhead.
        shown, units = per_layer(p, args.workload, feed, records,
                                 base_sps), PER_LAYER
        extra["untraced_stream_s_per_s"] = base_sps
        extra["traced_stream_s_per_s"] = e2e["stream_s_per_s"]
    else:
        shown, units = e2e, END_TO_END
    ops = _ops(p, verdict)
    for name, value in shown.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    for name, value in {**extra, **ops}.items():
        print(f"{name:48s} {value:14.6g}")
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": env, "checks": verdict.checks, "ops": ops,
        "detection_rate": ops["detections"] / max(verdict.expected, 1),
        "setup_reps_s": setup_reps, "metrics": shown, "extra": extra,
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.expected,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
