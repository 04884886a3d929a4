"""Butterworth design and filtering, validated against scipy.signal."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as scipy_signal

from repro.signal.filters import (
    OnlineSosFilter,
    butter_lowpass_sos,
    lowpass_filter,
    sosfilt,
    sosfilt_zi,
    sosfiltfilt,
)


class TestDesign:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 8])
    def test_frequency_response_matches_scipy(self, order):
        ours = butter_lowpass_sos(order, 5.0, 100.0)
        reference = scipy_signal.butter(order, 5.0, fs=100.0, output="sos")
        w, h_ours = scipy_signal.sosfreqz(ours, 512, fs=100.0)
        _, h_ref = scipy_signal.sosfreqz(reference, 512, fs=100.0)
        np.testing.assert_allclose(np.abs(h_ours), np.abs(h_ref), atol=1e-12)

    def test_dc_gain_is_exactly_one(self):
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        for row in sos:
            assert row[:3].sum() == pytest.approx(row[3:].sum(), abs=1e-14)

    def test_cutoff_is_minus_3db(self):
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        w, h = scipy_signal.sosfreqz(sos, worN=[5.0], fs=100.0)
        assert 20 * np.log10(abs(h[0])) == pytest.approx(-3.0103, abs=0.01)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            butter_lowpass_sos(0, 5.0, 100.0)
        with pytest.raises(ValueError):
            butter_lowpass_sos(4, 60.0, 100.0)  # above Nyquist
        with pytest.raises(ValueError):
            butter_lowpass_sos(4, 0.0, 100.0)


class TestSosfilt:
    def test_matches_scipy_exactly(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(400, 3)) + 2.0
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        ours, _ = sosfilt(sos, x)
        theirs = scipy_signal.sosfilt(sos, x, axis=0)
        np.testing.assert_allclose(ours, theirs, atol=1e-12)

    def test_state_continuation_equals_one_shot(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(300, 2))
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        full, _ = sosfilt(sos, x)
        first, state = sosfilt(sos, x[:120])
        second, _ = sosfilt(sos, x[120:], state)
        # Bitwise: push_block ≡ its per-sample oracle rests on this.
        np.testing.assert_array_equal(np.concatenate([first, second]), full)

    def test_zi_matches_scipy(self):
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        np.testing.assert_allclose(sosfilt_zi(sos),
                                   scipy_signal.sosfilt_zi(sos), atol=1e-12)

    def test_steady_state_passes_constant_unchanged(self):
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        x = np.full((100, 1), 3.7)
        zi = sosfilt_zi(sos)[:, :, None] * x[0]
        y, _ = sosfilt(sos, x, zi)
        np.testing.assert_allclose(y, x, atol=1e-10)

    def test_1d_input_round_trip(self):
        x = np.random.default_rng(2).normal(size=200)
        sos = butter_lowpass_sos(2, 5.0, 100.0)
        y, _ = sosfilt(sos, x)
        assert y.shape == x.shape

    def test_bad_state_shape_rejected(self):
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        with pytest.raises(ValueError, match="zi"):
            sosfilt(sos, np.zeros((10, 2)), np.zeros((1, 2, 2)))


class TestStackedJobs:
    """``OnlineSosFilter.run`` — every stream of a serve round in one
    pass — must be bit-identical to filtering each job alone."""

    SOS = butter_lowpass_sos(4, 5.0, 100.0)

    @staticmethod
    def _solo(sos, zi, x):
        """The per-job reference: ``sosfilt`` from the carried state, or
        from steady state for the first row (missing or poisoned state)."""
        if zi is None or not np.isfinite(zi).all():
            zi = sosfilt_zi(sos)[:, :, None] * x[0]
        return sosfilt(sos, x, zi)

    @given(seed=st.integers(0, 2**32 - 1),
           lengths=st.lists(st.integers(1, 60), min_size=1, max_size=12),
           kinds=st.lists(st.sampled_from(["carried", "prime", "poisoned"]),
                          min_size=12, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_stacked_equals_per_job_bitwise(self, seed, lengths, kinds):
        rng = np.random.default_rng(seed)
        channels = 9
        jobs = []
        for length, kind in zip(lengths, kinds):
            x = rng.normal(size=(length, channels)) * 10.0 ** rng.uniform(
                -3, 3, size=channels)
            if kind == "prime":
                zi = None
            else:
                zi = rng.normal(size=(self.SOS.shape[0], 2, channels))
                if kind == "poisoned":
                    zi[rng.integers(zi.shape[0]), rng.integers(2),
                       rng.integers(channels)] = rng.choice(
                           [np.nan, np.inf, -np.inf])
            jobs.append((zi, x))
        before = [None if zi is None else zi.copy() for zi, _ in jobs]
        stacked = OnlineSosFilter(self.SOS, channels).run(jobs)
        assert len(stacked) == len(jobs)
        for (zi, x), (y, zf) in zip(jobs, stacked):
            y_ref, zf_ref = self._solo(self.SOS, zi, x)
            assert np.array_equal(y, y_ref)
            assert np.array_equal(zf, zf_ref)
        # The carried states are read, never written.
        for zi0, (zi, _) in zip(before, jobs):
            if zi0 is not None:
                np.testing.assert_array_equal(zi, zi0)

    def test_online_process_is_the_one_job_case(self):
        rng = np.random.default_rng(7)
        online = OnlineSosFilter(self.SOS, channels=9)
        blocks = [rng.normal(size=(k, 9)) for k in (1, 20, 3, 1)]
        for block in blocks:
            carried = online.state
            y = online.process(block)
            ((y_job, state),) = online.run([(carried, block)])
            np.testing.assert_array_equal(y, y_job)
            np.testing.assert_array_equal(online.state, state)

    def test_run_leaves_the_filter_state_alone(self):
        online = OnlineSosFilter(self.SOS, channels=9)
        online.process(np.ones((5, 9)))
        state = online.state.copy()
        online.run([(None, np.zeros((4, 9))), (state, np.ones((2, 9)))])
        np.testing.assert_array_equal(online.state, state)


class TestFiltfilt:
    @pytest.mark.parametrize("order", [2, 4])
    def test_matches_scipy(self, order):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(500, 2)) + 5.0
        sos = butter_lowpass_sos(order, 5.0, 100.0)
        ours = sosfiltfilt(sos, x)
        theirs = scipy_signal.sosfiltfilt(sos, x, axis=0)
        np.testing.assert_allclose(ours, theirs, atol=1e-9)

    def test_zero_phase_preserves_slow_sine_position(self):
        fs = 100.0
        t = np.arange(600) / fs
        x = np.sin(2 * np.pi * 1.0 * t)
        y = lowpass_filter(x, fs)
        # Peak position must not shift (zero phase); inspect one period so
        # equal-height peaks cannot alias the argmax.
        assert abs(int(np.argmax(y[100:200])) - int(np.argmax(x[100:200]))) <= 2

    def test_attenuates_high_frequency(self):
        fs = 100.0
        t = np.arange(1000) / fs
        slow = np.sin(2 * np.pi * 1.0 * t)
        fast = np.sin(2 * np.pi * 25.0 * t)
        y = lowpass_filter(slow + fast, fs)
        residual = y - slow
        # 25 Hz through a 4th-order 5 Hz low-pass: > 50 dB down.
        assert np.abs(residual[100:-100]).max() < 0.02

    def test_too_short_signal_rejected(self):
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        with pytest.raises(ValueError, match="too short"):
            sosfiltfilt(sos, np.zeros(5))

    @given(offset=st.floats(-10, 10))
    @settings(max_examples=20, deadline=None)
    def test_dc_offset_preserved(self, offset):
        x = np.full(200, offset)
        y = lowpass_filter(x, 100.0)
        np.testing.assert_allclose(y, x, atol=1e-8)


class TestOnlineFilter:
    def test_streaming_equals_batch_causal(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(250, 9)) + 1.0
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        online = OnlineSosFilter(sos, channels=9)
        streamed = np.vstack([online.process(x[i]) for i in range(len(x))])
        # Reference: causal filtering with first-sample steady-state init.
        zi = sosfilt_zi(sos)[:, :, None] * x[0]
        reference, _ = sosfilt(sos, x, zi)
        np.testing.assert_array_equal(streamed, reference)

    def test_no_startup_transient_on_constant(self):
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        online = OnlineSosFilter(sos, channels=3)
        sample = np.array([0.0, 0.0, 1.0])
        for _ in range(10):
            y = online.process(sample)
        np.testing.assert_allclose(y[0], sample, atol=1e-10)

    def test_reset_forgets_state(self):
        sos = butter_lowpass_sos(4, 5.0, 100.0)
        online = OnlineSosFilter(sos, channels=1)
        online.process(np.array([5.0]))
        online.reset()
        y = online.process(np.array([1.0]))
        np.testing.assert_allclose(y[0], [1.0], atol=1e-10)

    def test_channel_mismatch_rejected(self):
        online = OnlineSosFilter(butter_lowpass_sos(2, 5.0, 100.0), channels=3)
        with pytest.raises(ValueError, match="channels"):
            online.process(np.zeros((4, 2)))


class TestWarmUp:
    """Steady-state priming: the filter must start (and restart after a
    stream reset) transient-free on DC-offset signals like gravity."""

    def _filter(self, channels=3):
        return OnlineSosFilter(butter_lowpass_sos(4, 5.0, 100.0),
                               channels=channels)

    def test_primed_tracks_state_lifecycle(self):
        online = self._filter()
        assert not online.primed
        online.process(np.ones(3))
        assert online.primed
        online.reset()
        assert not online.primed
        online.reprime(np.ones(3))
        assert online.primed

    def test_reset_then_constant_passes_transient_free(self):
        online = self._filter(channels=1)
        rng = np.random.default_rng(0)
        online.process(rng.normal(size=(100, 1)))   # a noisy first life
        online.reset()
        y = online.process(np.full((30, 1), 2.5))
        np.testing.assert_allclose(y, 2.5, atol=1e-10)

    def test_reprime_skips_the_post_gap_transient(self):
        online = self._filter(channels=1)
        online.process(np.full((50, 1), 5.0))       # settled at 5
        # After a long gap the stream resumes at a very different level;
        # without re-priming the old state would ring for many samples.
        online.reprime(np.array([1.0]))
        y = online.process(np.full((20, 1), 1.0))
        np.testing.assert_allclose(y, 1.0, atol=1e-10)

    def test_nonfinite_state_self_heals(self):
        online = self._filter(channels=1)
        online.process(np.array([np.nan]))          # poisons the IIR state
        assert not np.isfinite(online._state).all()
        y = online.process(np.full((10, 1), 1.5))
        np.testing.assert_allclose(y, 1.5, atol=1e-10)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_priming_is_transient_free_for_any_dc_level(self, seed):
        rng = np.random.default_rng(seed)
        level = rng.uniform(-20.0, 20.0, size=9)
        online = self._filter(channels=9)
        y = online.process(np.tile(level, (15, 1)))
        np.testing.assert_allclose(y, np.tile(level, (15, 1)), atol=1e-8)
