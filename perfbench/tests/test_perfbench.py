"""Checks on the serve benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``
(about a minute; the traced passes replay two seconds per workload).
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from contextlib import redirect_stdout
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402
import spans  # noqa: E402
from drivers import open_loop, window_keys  # noqa: E402
from inputs import (DEFAULT_SECONDS, DEFAULT_SEED,  # noqa: E402
                    calibration_windows, digest, input_digest, load_pins,
                    model_digest, pinned_model)
from workloads import WORKLOADS  # noqa: E402

SECONDS = 2
SEED = 5


def _spec() -> dict:
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_and_units_match_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_pins_hold_for_the_default_seed():
    pins = load_pins()
    assert model_digest(pinned_model()) == pins["model"]
    assert digest(calibration_windows()) == pins["calibration"]
    for name in WORKLOADS:
        assert input_digest(name, DEFAULT_SECONDS, DEFAULT_SEED) == \
            pins["inputs"][name], name


def test_inputs_follow_the_seed():
    name = "packets_faulty"
    assert input_digest(name, SECONDS, SEED) == input_digest(name, SECONDS,
                                                             SEED)
    assert input_digest(name, SECONDS, SEED) != input_digest(name, SECONDS,
                                                             SEED + 1)


def test_waiting_inside_a_call_is_charged():
    feed = SimpleNamespace(tick_s=[0.0, 0.05, 0.1], batches=[[], [], []])
    run = open_loop(feed, lambda: None, lambda: time.sleep(0.02) or [])
    assert np.all(run.step_s >= 0.019)
    assert np.all(run.v_end - run.tick_s >= 0.019)


def test_window_keys_see_order_and_value():
    x = np.random.default_rng(SEED).normal(size=(3, 40, 9))
    swapped = x.copy()
    swapped[1, [3, 4]] = swapped[1, [4, 3]]
    nudged = x.copy()
    nudged[2, 39, 8] = np.nextafter(nudged[2, 39, 8], np.inf)
    keys = window_keys(x)
    assert window_keys(x[1:]) == keys[1:]
    changed = window_keys(swapped)
    assert changed[0] == keys[0] and changed[2] == keys[2]
    assert changed[1] != keys[1]
    assert window_keys(nudged)[2] != keys[2]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_add_up_to_traced_busy_time(name):
    workload = WORKLOADS[name]
    feed = workload.inputs(SECONDS, SEED)
    p, driver = bench.traced_pass(workload, feed, SECONDS,
                                  calibration_windows())
    assert driver, "the traced pass recorded no spans"
    total_self = sum(v["self_s"] for v in spans.self_times(driver).values())
    roots = spans.root_busy_s(driver)
    assert total_self == pytest.approx(roots, rel=1e-9)
    # Root spans sit inside the driver's own clock reads around each call
    # (the rest of that time is the tracer's own bookkeeping) ...
    if name == "wearable_push":
        wall = sum(r.wall_s for r in p.run)
    else:
        wall = float((p.run.ret - p.run.begin).sum())
    assert roots <= wall
    # ... and every call the driver made has its root span.
    calls = {}
    for rec in driver:
        if rec.parent_id is None:
            calls[rec.name] = calls.get(rec.name, 0) + 1
    prefix = {"bulk_int8": "serve.engine", "packets_faulty": "serve.engine",
              "fleet_2shard": "fleet.front"}.get(name)
    if prefix is None:
        assert calls == {"core.detector.push": p.rows}
    else:
        step = "pump" if prefix == "fleet.front" else "step"
        assert calls == {f"{prefix}.submit": p.rows,
                         f"{prefix}.{step}": len(feed.tick_s)}
    verdict, _ = workload.check(p, feed, SEED)
    assert verdict.correct, verdict


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_follows_the_contract(trace):
    out = io.StringIO()
    with redirect_stdout(out):
        assert bench.main(["--workload", "packets_faulty", "--seed", str(SEED),
                           "--seconds", str(SECONDS),
                           "--trace", str(trace)]) == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
