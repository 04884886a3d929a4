"""``scripts/perfbench_ab.py``'s ``summarize``: the verdict every
performance change is judged by.

The rules under test: deltas are signed so that positive is better in
the metric's own direction; a median worse than the bound is ``WORSE
THAN BOUND`` whatever else holds; ``gain`` needs at least ten pairs, at
least nine tenths of them won and a median move wider than the base's
interquartile range; a base spread wider than the bound is
``unresolved`` unless the change beats every base run.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_SCRIPT = (pathlib.Path(__file__).resolve().parent.parent / "scripts"
           / "perfbench_ab.py")
_spec = importlib.util.spec_from_file_location("perfbench_ab", _SCRIPT)
perfbench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_ab)
summarize = perfbench_ab.summarize

HIGHER = {"name": "stream_s_per_s", "better": "higher", "bound": 0.2}
LOWER = {"name": "decision_latency_p50_ms", "better": "lower",
         "bound": 0.2}
BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_lower_is_better_metric_signs_a_drop_as_a_gain():
    faster = [b * 0.8 for b in BASE]
    row = summarize(LOWER, BASE, faster)
    assert row["delta"] == pytest.approx(0.2, rel=1e-3)
    assert row["wins"] == 10
    assert row["verdict"] == "gain"
    # The same numbers on a higher-is-better metric are a 20% loss.
    row = summarize(HIGHER, BASE, faster)
    assert row["delta"] == pytest.approx(-0.2, rel=1e-3)
    assert row["wins"] == 0


def test_worse_than_bound_wins_over_every_other_verdict():
    row = summarize(HIGHER, BASE, [b * 0.75 for b in BASE])
    assert row["over_bound"]
    assert row["verdict"] == "WORSE THAN BOUND"
    # A lower-is-better metric rising 30% breaks its 20% bound too.
    row = summarize(LOWER, BASE, [b * 1.3 for b in BASE])
    assert row["verdict"] == "WORSE THAN BOUND"
    # Inside the bound it is not.
    row = summarize(HIGHER, BASE, [b * 0.9 for b in BASE])
    assert not row["over_bound"]
    assert row["verdict"] == "ok"


def test_fewer_than_ten_pairs_never_reach_gain():
    for pairs in (1, 5, 9):
        base = BASE[:pairs]
        row = summarize(HIGHER, base, [b * 2.0 for b in base])
        assert row["wins"] == pairs
        assert not row["gain_resolved"]
        assert row["verdict"] == "ok"
    row = summarize(HIGHER, BASE, [b * 2.0 for b in BASE])
    assert row["verdict"] == "gain"


def test_gain_needs_nine_of_ten_pairs_won():
    better = [b * 1.1 for b in BASE]
    nine = better[:9] + [BASE[9] * 0.99]
    row = summarize(HIGHER, BASE, nine)
    assert row["wins"] == 9
    assert row["verdict"] == "gain"
    eight = better[:8] + [b * 0.99 for b in BASE[8:]]
    row = summarize(HIGHER, BASE, eight)
    assert row["wins"] == 8
    assert not row["gain_resolved"]
    assert row["verdict"] == "ok"


def test_gain_needs_a_median_move_wider_than_the_base_iqr():
    spread = [80.0, 90.0, 95.0, 100.0, 100.0, 100.0, 100.0, 105.0, 110.0,
              120.0]
    # Every pair won, but by far less than the base's spread.
    row = summarize(HIGHER, spread, [b + 0.5 for b in spread])
    assert row["wins"] == 10
    assert not row["gain_resolved"]
    assert row["verdict"] == "ok"


def test_base_spread_wider_than_the_bound_is_unresolved():
    wide = [50.0, 60.0, 150.0, 70.0, 160.0, 55.0, 145.0, 65.0, 155.0,
            100.0]
    row = summarize(HIGHER, wide, [b * 0.95 for b in wide])
    assert row["base_iqr_over_median"] > HIGHER["bound"]
    assert row["verdict"] == "unresolved"
    # Beating every base run resolves it.
    row = summarize(HIGHER, wide, [200.0 + i for i in range(10)])
    assert not row["unresolved"]
    assert row["verdict"] == "gain"
