"""Seeded inputs and the pinned model for the serve benchmark.

Everything the program sees is made here from ``--seed``: IMU streams
(``repro.serve.bench.synth_stream``), fault scenarios (``repro.faults``),
stream phases and the arrival schedule.  The model is rebuilt
deterministically from fixed constants (no training), and the int8
calibration windows come from a fixed seed, so neither moves with the
workload seed.  ``pins.json`` holds digests of the model weights, the
calibration windows and each workload's inputs for the default seed; a
change to the generators or to the CNN initialisers fails the benchmark
instead of silently moving its baseline.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from repro.core.architecture import build_lightweight_cnn
from repro.core.detector import DetectorConfig
from repro.faults import builtin_scenarios
from repro.serve.bench import ServeBenchConfig, synth_stream

FS = 100.0
DETECTOR = DetectorConfig()
WINDOW = DETECTOR.window_samples      # 40 samples = 400 ms
HOP = DETECTOR.hop_samples            # 20 samples = 200 ms (50% overlap)

#: Pinned model: the paper's CNN at a fixed init seed, with the sigmoid
#: head rescaled so logits spread over a few units and shifted so that
#: roughly one window in twenty fires.  An untrained head fires on every
#: window (bias 0) or on none (the paper's prior bias); either extreme
#: makes the decision and alert path cost unrepresentative.
MODEL_SEED = 2025
HEAD_GAIN = 100.0
HEAD_BIAS = 0.38

#: Calibration windows for int8 conversion: fixed seed, independent of
#: the workload seed.
CALIBRATION_SEED = 424242
CALIBRATION_STREAMS = 12
CALIBRATION_SECONDS = 8.0

#: Workload shapes (see BENCHMARK.json for why each was chosen).
BULK_STREAMS = 96
PACKET_STREAMS = 32
PACKET_ROWS = 2                       # 2 samples = 20 ms per packet
TICK_S = 0.02                         # packets_faulty steps every 20 ms
FLEET_STREAMS = 64
FLEET_SHARDS = 2
WEARABLE_RECORDINGS = 8
WEARABLE_SECONDS = 8.0

DEFAULT_SEED = 0
DEFAULT_SECONDS = 10
PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")


def digest(*arrays) -> str:
    """sha256 over the raw bytes (and shapes) of ``arrays``."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# model
# ----------------------------------------------------------------------
def pinned_model():
    """The benchmark's float CNN, rebuilt deterministically."""
    model = build_lightweight_cnn(WINDOW, seed=MODEL_SEED)
    head = model.get_layer("output")
    head.params["W"] = head.params["W"] * np.float32(HEAD_GAIN)
    head.params["b"] = np.full_like(head.params["b"], HEAD_BIAS)
    return model


def model_digest(model) -> str:
    return digest(*model.get_weights())


def calibration_windows() -> np.ndarray:
    """Fixed int8 calibration set: hop-spaced windows of synthetic
    streams in the detector's scaled channel layout (accel g, gyro / 100,
    tilt angles / 45), made without the program's DSP so that a change
    to the detector's filters cannot move the quantisation."""
    cfg = ServeBenchConfig(n_streams=CALIBRATION_STREAMS,
                           duration_s=CALIBRATION_SECONDS,
                           seed=CALIBRATION_SEED, detector=DETECTOR)
    windows = []
    for idx in range(CALIBRATION_STREAMS):
        accel, gyro, _ = synth_stream(idx, cfg)
        roll = np.degrees(np.arctan2(accel[:, 1], accel[:, 2]))
        pitch = np.degrees(np.arctan2(-accel[:, 0],
                                      np.hypot(accel[:, 1], accel[:, 2])))
        feats = np.column_stack([accel, gyro / 100.0, roll / 45.0,
                                 pitch / 45.0, np.zeros(len(accel))])
        for end in range(WINDOW, len(feats) + 1, HOP):
            windows.append(feats[end - WINDOW:end])
    return np.stack(windows).astype(np.float32)


# ----------------------------------------------------------------------
# streams and schedules
# ----------------------------------------------------------------------
@dataclass
class Stream:
    """One stream as the driver replays it.

    ``due`` is when each row was sampled, in seconds from the start of
    the replay; ``tick`` is the index of the call (``step``/``pump``) that
    drains the row.  Closed-loop streams leave both ``None``.
    """

    sid: str
    accel: np.ndarray
    gyro: np.ndarray
    t: np.ndarray
    due: np.ndarray | None = None
    tick: np.ndarray | None = None

    @property
    def rows(self) -> int:
        return len(self.t)


@dataclass
class Feed:
    """An open-loop replay: call ``j`` happens at ``tick_s[j]`` seconds
    after the start and submits ``batches[j]`` (``(sid, accel, gyro, t)``
    tuples) before stepping."""

    streams: list
    tick_s: np.ndarray
    batches: list

    @property
    def rows(self) -> int:
        return sum(s.rows for s in self.streams)


def _clean_streams(n: int, seconds: float, seed: int) -> list:
    cfg = ServeBenchConfig(n_streams=n, duration_s=float(seconds),
                           seed=seed, detector=DETECTOR)
    out = []
    for idx in range(n):
        accel, gyro, t = synth_stream(idx, cfg)
        out.append(Stream(f"s{idx:03d}", accel, gyro, t))
    return out


def _schedule(streams: list, tick_s: np.ndarray, arrival: list) -> Feed:
    """Assign each row to the first call at or after its arrival."""
    n_ticks = len(tick_s)
    per_tick = [[] for _ in range(n_ticks)]
    for stream, arr in zip(streams, arrival):
        stream.tick = np.searchsorted(tick_s, arr - 1e-9, side="left")
        if stream.tick.max(initial=0) >= n_ticks:
            raise ValueError("a row arrives after the last call")
        for r, j in enumerate(stream.tick):
            per_tick[j].append((stream.sid, stream.accel[r], stream.gyro[r],
                                float(stream.t[r])))
    return Feed(streams, tick_s, per_tick)


def _aligned_feed(n: int, seconds: float, seed: int) -> Feed:
    """Phase-aligned clean streams; one call per hop, made when the
    hop's last sample is due."""
    streams = _clean_streams(n, seconds, seed)
    rows = streams[0].rows
    n_ticks = math.ceil(rows / HOP)
    tick_s = (np.arange(n_ticks) * HOP + HOP - 1) / FS
    arrival = []
    for s in streams:
        s.due = np.arange(s.rows) / FS
        arrival.append(tick_s[np.arange(s.rows) // HOP])
    return _schedule(streams, tick_s, arrival)


def bulk_feed(seconds: float, seed: int) -> Feed:
    return _aligned_feed(BULK_STREAMS, seconds, seed)


def fleet_feed(seconds: float, seed: int) -> Feed:
    return _aligned_feed(FLEET_STREAMS, seconds, seed)


def packets_feed(seconds: float, seed: int) -> Feed:
    """32 streams in 2-sample packets at seeded phases; a quarter carry
    the builtin fault scenarios (one scenario each)."""
    streams = _clean_streams(PACKET_STREAMS, seconds, seed)
    scenarios = builtin_scenarios(seed=seed)
    rng = np.random.default_rng([seed, 1])
    faulty = rng.choice(PACKET_STREAMS, size=len(scenarios), replace=False)
    for idx, scenario in zip(sorted(faulty), scenarios.values()):
        s = streams[idx]
        s.t, s.accel, s.gyro = scenario.apply_arrays(s.t, s.accel, s.gyro)
    # Stratified phases: a seeded shuffle of one phase per 1/32 of the
    # tick, so every seed spreads the streams evenly over the tick and
    # the latency distribution does not hinge on a few unlucky draws.
    slots = rng.permutation(PACKET_STREAMS) + rng.uniform(0.0, 1.0,
                                                           PACKET_STREAMS)
    phases = slots * TICK_S / PACKET_STREAMS
    arrival = []
    for s, phase in zip(streams, phases):
        s.due = phase + s.t
        packet_end = np.minimum(
            (np.arange(s.rows) // PACKET_ROWS + 1) * PACKET_ROWS, s.rows) - 1
        # A packet leaves when its last sample is taken; clock jitter can
        # reorder timestamps, but a radio never delivers out of order.
        arrival.append(np.maximum.accumulate(s.due[packet_end]))
    last = max(a[-1] for a in arrival)
    tick_s = TICK_S * np.arange(1, math.ceil(last / TICK_S + 1e-9) + 1)
    return _schedule(streams, tick_s, arrival)


def wearable_recordings(seed: int) -> list:
    """Eight recordings a single wearer's device replays in sequence."""
    return _clean_streams(WEARABLE_RECORDINGS, WEARABLE_SECONDS, seed)


def input_digest(workload: str, seconds: float, seed: int) -> str:
    """Digest of everything a workload feeds the program."""
    if workload == "wearable_push":
        streams = wearable_recordings(seed)
        extra = []
    else:
        feed = {"bulk_int8": bulk_feed, "packets_faulty": packets_feed,
                "fleet_2shard": fleet_feed}[workload](seconds, seed)
        streams = feed.streams
        extra = [feed.tick_s]
    arrays = extra + [a for s in streams
                      for a in (s.accel, s.gyro, s.t,
                                *(() if s.due is None else (s.due, s.tick)))]
    return digest(*arrays)
