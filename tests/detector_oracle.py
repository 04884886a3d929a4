"""Per-sample reference twin of the streaming detector's ingest path.

``FallDetector`` ingests through one vectorized implementation,
:meth:`~repro.core.detector.FallDetector.push_block`; ``push`` is a
one-row block.  This module keeps the per-sample implementation that
``push_block`` was built to reproduce — validate, classify the
timestamp, bridge gaps with interpolated fill samples, fuse with the
scalar :meth:`OracleComplementaryFilter.update`, filter, shift the ring
buffer, decide — so the identity suites compare the production path
against an independent sample-at-a-time reference instead of against
itself.

:class:`OracleDetector` subclasses ``FallDetector`` and overrides only
ingestion; construction, health, ``complete``/``_run_model`` and
reporting are the production code.  Its ``push`` runs each due window
inline (the model runs before the next sample is fed),
``push_collect`` stages them as :class:`WindowRequest` objects for the
caller to complete, and ``push_block`` loops ``push_collect`` over a
block.
"""

from __future__ import annotations

import numpy as np

from repro.core.detector import (
    _REPAIR_DEFAULTS,
    Detection,
    FallDetector,
    WindowRequest,
)
from repro.signal.orientation import ComplementaryFilter, accel_inclination

__all__ = ["OracleComplementaryFilter", "OracleDetector"]


class OracleComplementaryFilter(ComplementaryFilter):
    """:class:`ComplementaryFilter` plus the per-sample ``update`` that
    ``update_block`` is bit-identical to."""

    def update(self, accel_g: np.ndarray, gyro_dps: np.ndarray) -> np.ndarray:
        """Fuse one sample; returns ``[pitch, roll, yaw]`` in degrees."""
        accel_g = np.asarray(accel_g, dtype=float)
        gyro_dps = np.asarray(gyro_dps, dtype=float)
        pitch_acc, roll_acc = accel_inclination(accel_g[None, :])
        pitch_acc, roll_acc = float(pitch_acc[0]), float(roll_acc[0])
        if self._angles is None:
            # Bootstrap from the accelerometer; yaw starts at 0.
            self._angles = np.array([pitch_acc, roll_acc, 0.0])
            return self._angles.copy()
        gx, gy, gz = gyro_dps
        pitch, roll, yaw = self._angles
        # Integrate body rates (small-angle approximation, as an MCU would).
        pitch_gyro = pitch + gy * self.dt
        roll_gyro = roll + gx * self.dt
        yaw += gz * self.dt
        pitch = self.alpha * pitch_gyro + (1.0 - self.alpha) * pitch_acc
        roll = self.alpha * roll_gyro + (1.0 - self.alpha) * roll_acc
        self._angles = np.array([pitch, roll, yaw])
        return self._angles.copy()


class OracleDetector(FallDetector):
    """``FallDetector`` ingesting one sample at a time (the reference)."""

    def __init__(self, model, config=None, **kwargs):
        super().__init__(model, config, **kwargs)
        self._fusion = OracleComplementaryFilter(fs=self.config.fs)

    # ------------------------------------------------------------------
    # per-sample hardening
    # ------------------------------------------------------------------
    def _validate(self, accel: np.ndarray, gyro: np.ndarray):
        """Repair non-finite readings and clamp to the sensor rails.

        Returns ``(accel, gyro, anomaly)``.  Non-finite entries hold the
        last repaired value (bootstrap: 1 g gravity for accel, zero rate
        for gyro); out-of-range entries clip.  Also feeds the stuck-channel
        and dead-sensor trackers.
        """
        cfg = self.config
        raw = np.concatenate([accel, gyro])
        exact = raw.copy()
        bad = ~np.isfinite(raw)
        anomaly = False
        if bad.any():
            if self._last_raw is not None:
                raw[bad] = self._last_raw[bad]
            else:
                raw[bad] = _REPAIR_DEFAULTS[bad]
            self.repaired_samples += 1
            self._counter("repaired_samples").inc()
            anomaly = True
        rails = self._rails
        clipped = np.abs(raw) > rails
        if clipped.any():
            raw = np.clip(raw, -rails, rails)
            self.saturated_samples += 1
            self._counter("saturated_samples").inc()
            anomaly = True
        # Stuck-at tracking on the *exact* incoming values: genuine IMU
        # noise never repeats bit-identically, so an exact repeat streak
        # marks a frozen channel; a non-finite reading also counts against
        # its sensor.
        if self._prev_raw_exact is not None:
            same = np.zeros(6, dtype=bool)
            both_finite = np.isfinite(exact) & np.isfinite(self._prev_raw_exact)
            same[both_finite] = (
                exact[both_finite] == self._prev_raw_exact[both_finite]
            )
            stuck_or_bad = same | bad
            self._channel_stuck_streak = np.where(
                stuck_or_bad, self._channel_stuck_streak + 1, 0
            )
        self._prev_raw_exact = exact
        for s, sl in enumerate((slice(0, 3), slice(3, 6))):
            if (self._channel_stuck_streak[sl] >= 1).all() or bad[sl].all():
                self._sensor_bad_streak[s] += 1
            else:
                self._sensor_bad_streak[s] = 0
        if (self._channel_stuck_streak >= cfg.stuck_channel_samples).any():
            anomaly = True
        self._last_raw = raw
        return raw[:3], raw[3:], anomaly

    def _handle_timestamp(self, t: float | None) -> tuple[int, bool, bool]:
        """Classify the inter-sample interval.

        Returns ``(n_fill, long_gap, anomaly)``: how many missing samples
        to synthesise, whether the gap exceeded ``max_gap_ms`` (stream
        reset required), and whether anything about the clock was off.
        """
        if self._last_t is None:
            return 0, False, False
        if t is None:
            # An untimestamped sample inside a timestamped stream: the
            # clock evidence for this interval is gone, so the caller
            # advances ``_last_t`` by one nominal period (keeping the gap
            # and clock checks armed for the *next* sample) and the lapse
            # itself counts as a clock anomaly.
            self.clock_anomalies += 1
            self._counter("clock_anomalies").inc()
            return 0, False, True
        cfg = self.config
        dt_nom = self._dt_nom
        dt = t - self._last_t
        if dt < 0.5 * dt_nom:
            # Early, duplicate or backwards timestamp: process the sample,
            # note the clock anomaly.
            self.clock_anomalies += 1
            self._counter("clock_anomalies").inc()
            return 0, False, True
        missing = int(round(dt / dt_nom)) - 1
        if missing <= 0:
            return 0, False, False
        if dt * 1000.0 > cfg.max_gap_ms:
            return 0, True, True
        return missing, False, True

    def _reset_stream_state(self) -> None:
        """Long gap: drop filter/fusion/window state and re-prime.

        The filter re-initialises at steady state from the next sample and
        the CNN stays silent until its window refills (warm-up); the
        fallback keeps guarding throughout.
        """
        self._init_stream_state()
        self.stream_resets += 1
        self._counter("stream_resets").inc()

    def _ingest(self, accel: np.ndarray, gyro: np.ndarray) -> bool:
        """Fuse, filter, scale and buffer one sample; True when a window
        inference is due (first full window, then every hop)."""
        st = self.stages
        clk = st.clock if st is not None else None
        if clk is not None:
            t0 = clk()
        euler = self._fusion.update(accel, gyro)
        if clk is not None:
            t1 = clk()
            st.add("fusion", t1 - t0)
        raw = np.concatenate([accel, gyro, euler])
        filtered = self._filter.process(raw[None, :])[0]
        if clk is not None:
            t2 = clk()
            st.add("filter", t2 - t1)
        filtered = filtered / self._scales
        # Ring-buffer shift (window lengths are tens of samples; a roll is
        # cheap and keeps the window contiguous for the model).
        self._buffer[:-1] = self._buffer[1:]
        self._buffer[-1] = filtered
        if self._filled < self._window_n:
            self._filled += 1
            if self._filled < self._window_n:
                due = False
            else:
                self._since_last_inference = 0  # first full window: infer now
                due = True
        else:
            self._since_last_inference += 1
            if self._since_last_inference < self._hop_n:
                due = False
            else:
                self._since_last_inference = 0
                due = True
        if clk is not None:
            st.add("window", clk() - t2)
        return due

    # ------------------------------------------------------------------
    # per-sample decisions
    # ------------------------------------------------------------------
    def _stage(self, window_due: bool, fallback_hit: bool,
               time_s: float, *, window_ready: bool | None = None,
               window: np.ndarray | None = None) -> WindowRequest | None:
        """Pre-inference half of a decision: shed-probe bookkeeping, then
        stage a :class:`WindowRequest` when a CNN inference is due."""
        if window_ready is None:
            window_ready = self._filled >= self._window_n
        if not (window_due and window_ready):
            return None
        if self._cnn_shed:
            # Load shedding: skip the CNN for shed_retry_hops hops, then
            # give it one probe inference to prove it recovered.
            self._shed_hops_left -= 1
            if self._shed_hops_left <= 0:
                self._cnn_shed = False
                self._consecutive_violations = 0
        if self._cnn_available:
            return WindowRequest(
                window=(self._buffer.copy() if window is None
                        else window.copy()),
                sample_index=self._sample_index,
                time_s=time_s,
                fallback_hit=fallback_hit,
            )
        return None

    def _decide(self, window_due: bool, fallback_hit: bool, time_s: float,
                collect: list | None = None, *,
                window_ready: bool | None = None,
                window: np.ndarray | None = None) -> Detection | None:
        """Turn this sample's evidence into (at most) one detection.

        With ``collect`` (deferred mode) a due CNN window is appended to
        the list as a :class:`WindowRequest` instead of being inferred
        here — the caller owns running the model and feeding the result to
        :meth:`complete`.
        """
        st = self.stages
        clk = st.clock if st is not None else None
        if clk is not None:
            t0 = clk()
        if window_ready is None:
            window_ready = self._filled >= self._window_n
        request = self._stage(window_due, fallback_hit, time_s,
                              window_ready=window_ready, window=window)
        if request is not None:
            if collect is not None:
                collect.append(request)
                if clk is not None:
                    st.add("decision", clk() - t0)
                return None
            if clk is not None:
                # The model run times itself into the inference stage via
                # `complete`; only the staging cost lands in decision.
                st.add("decision", clk() - t0)
            return self._run_model(request)
        hit = self._fallback_decide(fallback_hit, time_s,
                                    self._sample_index, window_ready)
        if clk is not None:
            st.add("decision", clk() - t0)
        return hit

    # ------------------------------------------------------------------
    # per-sample streaming API
    # ------------------------------------------------------------------
    def push(self, accel_g, gyro_dps, t: float | None = None) -> Detection | None:
        """Feed one sample, running any due window inline."""
        detection, _ = self._push(accel_g, gyro_dps, t, collect=None)
        return detection

    def push_collect(
        self, accel_g, gyro_dps, t: float | None = None,
    ) -> tuple[Detection | None, list[WindowRequest]]:
        """:meth:`push` with deferred CNN inference: every due window is
        returned as a staged :class:`WindowRequest`; complete each, in
        order, before the next push."""
        return self._push(accel_g, gyro_dps, t, collect=[])

    def push_block(self, accel_g, gyro_dps, t=None):
        """A :meth:`push_collect` loop over a block (NaN in ``t`` marks an
        untimestamped sample)."""
        accel = np.asarray(accel_g, dtype=float).reshape(-1, 3)
        gyro = np.asarray(gyro_dps, dtype=float).reshape(-1, 3)
        if t is None:
            t_list = None
        elif isinstance(t, np.ndarray):
            t_list = t.astype(float).reshape(-1).tolist()
        else:
            t_list = [None if v is None else float(v) for v in t]
        return self._push_block_loop(accel, gyro, t_list)

    def _push(
        self, accel_g, gyro_dps, t: float | None, collect: list | None,
    ) -> tuple[Detection | None, list[WindowRequest]]:
        st = self.stages
        clk = st.clock if st is not None else None
        if clk is not None:
            t0 = clk()
        accel_g = np.asarray(accel_g, dtype=float).reshape(3)
        gyro_dps = np.asarray(gyro_dps, dtype=float).reshape(3)
        n_fill, long_gap, clock_anomaly = self._handle_timestamp(t)
        accel, gyro, data_anomaly = self._validate(accel_g, gyro_dps)
        if clk is not None:
            st.add("ingest", clk() - t0)
        anomaly = data_anomaly or clock_anomaly
        detection: Detection | None = None
        dt_nom = self._dt_nom
        cur = np.concatenate([accel, gyro])
        if long_gap:
            self._reset_stream_state()
            anomaly = True
        elif (n_fill and self._prev_fill_anchor is not None
              and self._last_t is not None):
            # Bridge the gap: causal interpolation between the last good
            # sample and the one that just arrived.
            prev = self._prev_fill_anchor
            delta = cur - prev
            for j in range(1, n_fill + 1):
                frac = j / (n_fill + 1)
                filler = prev + frac * delta
                fill_t = self._last_t + j * dt_nom
                self._sample_index += 1
                fb = (self._fallback.push(filler[:3])
                      if self._fallback is not None else False)
                due = self._ingest(filler[:3], filler[3:])
                hit = self._decide(due, fb, fill_t, collect)
                detection = detection or hit
            self.gap_filled_samples += n_fill
            self._counter("gap_filled_samples").inc(n_fill)
            anomaly = True
        self._sample_index += 1
        time_s = t if t is not None else self._sample_index / self.config.fs
        if t is not None:
            self._last_t = t
        elif self._last_t is not None:
            # Assume the nominal rate across an untimestamped sample so a
            # single missing timestamp cannot null the tracker and disarm
            # the next sample's gap/clock checks (see _handle_timestamp).
            self._last_t = self._last_t + dt_nom
        self._prev_fill_anchor = cur
        if clk is not None:
            t1 = clk()
        fallback_hit = (self._fallback.push(accel)
                        if self._fallback is not None else False)
        if clk is not None:
            st.add("decision", clk() - t1)
        window_due = self._ingest(accel, gyro)
        if clk is not None:
            t2 = clk()
        self._update_health(anomaly)
        if clk is not None:
            st.add("decision", clk() - t2)
        hit = self._decide(window_due, fallback_hit, time_s, collect)
        if self.recorder is not None:
            # Recorded raw values are the *incoming* ones, pre-repair, so
            # replay re-feeds exactly what the device saw; fill samples
            # are synthesised deterministically on replay and not stored.
            self.recorder.record_sample(
                self._sample_index, t, accel_g, gyro_dps,
                self._last_raw, anomaly, self._health,
            )
        return detection or hit, collect if collect is not None else []

    def _push_block_loop(
        self, accel: np.ndarray, gyro: np.ndarray, t_list,
    ) -> tuple[list[Detection], list[WindowRequest]]:
        """The per-sample loop the vectorized ``push_block`` is proven
        bit-identical to."""
        detections: list[Detection] = []
        requests: list[WindowRequest] = []
        for i in range(accel.shape[0]):
            ti = t_list[i] if t_list is not None else None
            if ti is not None and ti != ti:     # NaN marks "no timestamp"
                ti = None
            hit, staged = self._push(accel[i], gyro[i], ti, collect=[])
            if hit is not None:
                detections.append(hit)
            requests.extend(staged)
        return detections, requests
