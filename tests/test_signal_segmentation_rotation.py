"""Segmentation math, Rodrigues rotations, orientation fusion and units."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signal.orientation import (
    ComplementaryFilter,
    accel_inclination,
    estimate_euler_angles,
)
from repro.signal.rotation import (
    is_rotation_matrix,
    rodrigues_matrix,
    rotate_vectors,
    rotation_between,
)
from repro.signal.segmentation import (
    SegmentationConfig,
    label_segments,
    segment_signal,
    segment_starts,
)
from repro.signal.units import GRAVITY, accel_from_g, accel_to_g, gyro_to_dps


# ---------------------------------------------------------------------------
# Segmentation
# ---------------------------------------------------------------------------
class TestSegmentationConfig:
    def test_paper_configurations(self):
        # Paper: n = 20 -> 200 ms at 100 Hz; 50 % overlap halves the hop.
        cfg = SegmentationConfig(200, 0.5, 100.0)
        assert cfg.window_samples == 20
        assert cfg.stride_samples == 10
        assert cfg.overlap_ms == 100.0

    def test_zero_overlap(self):
        cfg = SegmentationConfig(400, 0.0, 100.0)
        assert cfg.stride_samples == cfg.window_samples == 40

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SegmentationConfig(0, 0.5)
        with pytest.raises(ValueError):
            SegmentationConfig(200, 1.0)
        with pytest.raises(ValueError):
            SegmentationConfig(200, -0.1)

    @given(
        n=st.integers(1, 2000),
        window_ms=st.sampled_from([100.0, 200.0, 300.0, 400.0]),
        overlap=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
    )
    @settings(max_examples=80, deadline=None)
    def test_starts_invariants(self, n, window_ms, overlap):
        cfg = SegmentationConfig(window_ms, overlap, 100.0)
        starts = segment_starts(n, cfg)
        w = cfg.window_samples
        if n < w:
            assert starts.size == 0
            return
        # Every window fits; hops are uniform; first window starts at 0.
        assert starts[0] == 0
        assert starts[-1] + w <= n
        if starts.size > 1:
            assert np.all(np.diff(starts) == cfg.stride_samples)
        # Maximal: one more hop would overflow.
        assert starts[-1] + cfg.stride_samples + w > n

    def test_segment_signal_contents(self):
        x = np.arange(30, dtype=float).reshape(-1, 1) @ np.ones((1, 2))
        cfg = SegmentationConfig(100, 0.5, 100.0)  # window 10, stride 5
        segs = segment_signal(x, cfg)
        assert segs.shape == (5, 10, 2)
        np.testing.assert_array_equal(segs[1, :, 0], np.arange(5, 15))

    def test_segment_signal_rejects_1d(self):
        with pytest.raises(ValueError):
            segment_signal(np.zeros(100), SegmentationConfig(100))

    def test_label_segments_majority(self):
        labels = np.zeros(40, dtype=int)
        labels[20:] = 1
        cfg = SegmentationConfig(200, 0.0, 100.0)  # windows of 20
        out = label_segments(labels, cfg, min_fraction=0.5)
        np.testing.assert_array_equal(out, [0, 1])

    def test_label_segments_threshold_sensitivity(self):
        labels = np.zeros(20, dtype=int)
        labels[12:] = 1  # 40 % of the single window
        cfg = SegmentationConfig(200, 0.0, 100.0)
        assert label_segments(labels, cfg, min_fraction=0.5)[0] == 0
        assert label_segments(labels, cfg, min_fraction=0.3)[0] == 1


# ---------------------------------------------------------------------------
# Rotations
# ---------------------------------------------------------------------------
class TestRodrigues:
    @given(
        axis=st.tuples(*[st.floats(-1, 1) for _ in range(3)]).filter(
            lambda a: np.linalg.norm(a) > 1e-3
        ),
        angle=st.floats(-np.pi, np.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_always_a_rotation_matrix(self, axis, angle):
        assert is_rotation_matrix(rodrigues_matrix(np.array(axis), angle))

    def test_known_rotation(self):
        r = rodrigues_matrix([0, 0, 1], np.pi / 2)
        np.testing.assert_allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            rodrigues_matrix([0, 0, 0], 1.0)

    @given(
        u=st.tuples(*[st.floats(-1, 1) for _ in range(3)]).filter(
            lambda a: np.linalg.norm(a) > 1e-2
        ),
        v=st.tuples(*[st.floats(-1, 1) for _ in range(3)]).filter(
            lambda a: np.linalg.norm(a) > 1e-2
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_rotation_between_maps_exactly(self, u, v):
        u, v = np.array(u), np.array(v)
        r = rotation_between(u, v)
        assert is_rotation_matrix(r, atol=1e-7)
        mapped = r @ (u / np.linalg.norm(u))
        # atol covers the intentional snap-to-identity band for angles
        # below ~1.4e-6 rad (cos within 1e-12 of 1).
        np.testing.assert_allclose(mapped, v / np.linalg.norm(v), atol=5e-6)

    def test_antiparallel_case(self):
        r = rotation_between([0, 0, 1], [0, 0, -1])
        np.testing.assert_allclose(r @ [0, 0, 1], [0, 0, -1], atol=1e-9)

    def test_parallel_case_is_identity(self):
        np.testing.assert_allclose(
            rotation_between([0, 0, 2], [0, 0, 5]), np.eye(3), atol=1e-12
        )

    def test_rotate_vectors_rows(self):
        r = rodrigues_matrix([0, 0, 1], np.pi / 2)
        out = rotate_vectors(r, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        np.testing.assert_allclose(out, [[0, 1, 0], [-1, 0, 0]], atol=1e-12)

    def test_is_rotation_matrix_rejects_reflection(self):
        reflection = np.diag([1.0, 1.0, -1.0])
        assert not is_rotation_matrix(reflection)


# ---------------------------------------------------------------------------
# Orientation
# ---------------------------------------------------------------------------
class TestOrientation:
    def test_static_inclination(self):
        pitch, roll = accel_inclination(np.array([[0.0, 0.0, 1.0]]))
        assert pitch[0] == pytest.approx(0.0)
        assert roll[0] == pytest.approx(0.0)
        pitch, roll = accel_inclination(np.array([[1.0, 0.0, 0.0]]))
        assert pitch[0] == pytest.approx(90.0)

    def test_converges_to_static_tilt(self):
        # 30 deg pitch, held: the filter must converge to 30 deg.
        n = 800
        accel = np.tile([np.sin(np.radians(30)), 0.0,
                         np.cos(np.radians(30))], (n, 1))
        gyro = np.zeros((n, 3))
        angles = estimate_euler_angles(accel, gyro, fs=100.0)
        assert angles[-1, 0] == pytest.approx(30.0, abs=0.5)

    def test_yaw_integrates_gyro(self):
        n = 200
        accel = np.tile([0.0, 0.0, 1.0], (n, 1))
        gyro = np.zeros((n, 3))
        gyro[:, 2] = 90.0  # deg/s about z
        angles = estimate_euler_angles(accel, gyro, fs=100.0)
        # After 2 s minus the first sample's bootstrap: ~179 deg.
        assert angles[-1, 2] == pytest.approx(90.0 * (n - 1) / 100.0, abs=1e-6)

    def test_process_equals_streaming_update(self):
        """``process`` (training inputs) matches the streaming
        recurrence ``run`` (serving) fed in uneven chunks, state carried,
        to within a few ulps: ``lfilter`` reassociates the blend, so not
        bit for bit."""
        rng = np.random.default_rng(0)
        accel = rng.normal([0, 0, 1], 0.05, size=(2000, 3))
        gyro = rng.normal(0, 20, size=(2000, 3))
        batch = ComplementaryFilter(fs=100.0).process(accel, gyro)
        stream_filter = ComplementaryFilter(fs=100.0)
        cuts = [0, 1, 4, 150, 151, 777, 1300, 2000]
        chunks = []
        state = None
        for a, b in zip(cuts[:-1], cuts[1:]):
            chunks.append(stream_filter.run(accel[a:b], gyro[a:b], [0],
                                            [state]))
            state = chunks[-1][-1]
        streamed = np.vstack(chunks)
        np.testing.assert_allclose(batch, streamed, rtol=0, atol=1e-12)

    def test_shape_validation(self):
        f = ComplementaryFilter()
        with pytest.raises(ValueError):
            f.process(np.zeros((5, 3)), np.zeros((4, 3)))

    def test_invalid_constructor(self):
        with pytest.raises(ValueError):
            ComplementaryFilter(fs=0.0)


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------
class TestUnits:
    def test_accel_round_trip(self):
        x = np.array([1.0, -2.0])
        np.testing.assert_allclose(
            accel_to_g(accel_from_g(x, "m/s^2"), "m/s^2"), x
        )

    def test_g_conversion_value(self):
        assert accel_to_g(np.array([GRAVITY]), "m/s^2")[0] == pytest.approx(1.0)

    def test_gyro_conversion(self):
        assert gyro_to_dps(np.array([np.pi]), "rad/s")[0] == pytest.approx(180.0)

    def test_unknown_units_rejected(self):
        with pytest.raises(ValueError):
            accel_to_g(np.zeros(2), "ft/s^2")
        with pytest.raises(ValueError):
            gyro_to_dps(np.zeros(2), "rpm")


class TestSegmentationVectorizationParity:
    """The sliding_window_view fast path must match a per-window loop."""

    @given(
        n=st.integers(min_value=0, max_value=300),
        window_ms=st.sampled_from([100.0, 250.0, 400.0]),
        overlap=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
    )
    @settings(max_examples=40, deadline=None)
    def test_segment_signal_matches_loop(self, n, window_ms, overlap):
        config = SegmentationConfig(window_ms=window_ms, overlap=overlap)
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 9))
        got = segment_signal(x, config)
        starts = segment_starts(n, config)
        window = config.window_samples
        expected = np.stack([x[s:s + window] for s in starts]) if len(starts) \
            else np.empty((0, window, 9))
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert got.flags["C_CONTIGUOUS"]

    @given(
        n=st.integers(min_value=0, max_value=300),
        min_fraction=st.sampled_from([0.25, 0.5, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_label_segments_matches_loop(self, n, min_fraction):
        config = SegmentationConfig(window_ms=200.0, overlap=0.5)
        rng = np.random.default_rng(n + 1)
        labels = rng.integers(0, 2, size=n)
        got = label_segments(labels, config, min_fraction=min_fraction)
        starts = segment_starts(n, config)
        window = config.window_samples
        expected = np.array(
            [int(labels[s:s + window].mean() >= min_fraction) for s in starts],
            dtype=int,
        )
        assert np.array_equal(got, expected)
