"""Butterworth low-pass filtering, implemented from first principles.

The paper removes sensor noise with a *fourth-order Butterworth low-pass
filter at 5 Hz* before segmentation.  This module implements the full
design chain — analog prototype poles, frequency pre-warping, bilinear
transform, second-order-section factorisation — plus a zero-phase
forward-backward filter (``sosfiltfilt``).  The test-suite validates every
piece against ``scipy.signal``.

Every SOS pass — offline, one stream, or a whole serving fleet — runs
one hand-written direct-form-II-transposed loop.
:meth:`OnlineSosFilter.run` stacks independent streams as the columns of
one array so the loop runs once for all of them, bit-identical to
filtering each alone; :meth:`OnlineSosFilter.process` is its one-job
case.  The serve path keeps this loop rather than
``scipy.signal.sosfilt``: importing ``scipy.signal`` costs ~75 MB of
resident memory per process and its wrapper more per call than a
one-row block's whole filter pass.

All public filter functions operate on arrays shaped ``(samples,)`` or
``(samples, channels)`` and filter along axis 0.
"""

from __future__ import annotations

import numpy as np

#: ``all`` as a bare ufunc reduction: ``ndarray.all`` adds a Python-level
#: wrapper per call, which shows on one-row streaming blocks.
_all = np.logical_and.reduce

__all__ = [
    "butter_lowpass_sos",
    "sosfilt",
    "sosfilt_zi",
    "sosfiltfilt",
    "lowpass_filter",
    "OnlineSosFilter",
]


def _analog_lowpass_poles(order: int) -> np.ndarray:
    """Poles of the normalised (1 rad/s) analog Butterworth prototype."""
    k = np.arange(1, order + 1)
    theta = np.pi * (2 * k - 1) / (2 * order) + np.pi / 2
    return np.exp(1j * theta)


def _bilinear_pole(analog_pole: complex, fs: float) -> complex:
    """Map one s-plane pole to the z-plane via the bilinear transform."""
    return (2 * fs + analog_pole) / (2 * fs - analog_pole)


def butter_lowpass_sos(order: int, cutoff_hz: float, fs: float) -> np.ndarray:
    """Design a digital Butterworth low-pass as second-order sections.

    Parameters
    ----------
    order:
        Filter order (the paper uses 4).
    cutoff_hz:
        -3 dB cutoff frequency in Hz (the paper uses 5 Hz).
    fs:
        Sampling frequency in Hz (IMU data: 100 Hz).

    Returns
    -------
    ndarray of shape ``(n_sections, 6)`` with rows ``[b0 b1 b2 1 a1 a2]``,
    the same layout as ``scipy.signal.butter(..., output='sos')``.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not 0.0 < cutoff_hz < fs / 2.0:
        raise ValueError(
            f"cutoff must lie in (0, fs/2) = (0, {fs / 2}), got {cutoff_hz}"
        )
    # Pre-warp the cutoff so the digital filter lands exactly on cutoff_hz.
    warped = 2.0 * fs * np.tan(np.pi * cutoff_hz / fs)
    analog_poles = warped * _analog_lowpass_poles(order)
    digital_poles = np.array([_bilinear_pole(p, fs) for p in analog_poles])
    # The bilinear transform maps the order analog zeros at infinity to -1.
    n_sections = (order + 1) // 2
    sos = np.zeros((n_sections, 6))
    # Pair complex-conjugate poles (sorted for determinism: ascending |imag|).
    upper = sorted(
        (p for p in digital_poles if p.imag > 1e-12), key=lambda p: abs(p.imag)
    )
    real = sorted((p.real for p in digital_poles if abs(p.imag) <= 1e-12))
    section = 0
    if order % 2 == 1:
        # One real pole -> first-order section.
        p = real.pop()
        sos[section] = [1.0, 1.0, 0.0, 1.0, -p, 0.0]
        section += 1
    for p in upper:
        # Conjugate pair -> z^2 - 2*Re(p) z + |p|^2 denominator, zeros at -1.
        sos[section] = [1.0, 2.0, 1.0, 1.0, -2.0 * p.real, abs(p) ** 2]
        section += 1
    # Normalise overall DC gain to exactly 1.
    for row in sos:
        b_dc = row[0] + row[1] + row[2]
        a_dc = row[3] + row[4] + row[5]
        row[:3] *= a_dc / b_dc
    return sos


def _df2t(coeffs, x: np.ndarray, zi: np.ndarray):
    """The one SOS kernel: causal direct-form-II-transposed filtering of
    ``x`` ``(samples, width)`` along axis 0 from state ``zi``
    ``(n_sections, 2, width)``; returns new ``(y, zf)`` arrays.

    One fused pass over time, cascading the sections per sample, instead
    of one full pass per section.  The per-(section, sample) arithmetic
    and its order are unchanged — DF2T state for section s at sample n
    depends only on section s-1's outputs up to n — so results are
    bit-identical to the section-major loop while skipping the
    per-section intermediate arrays (this runs on every streaming
    sample, so constant factors matter).  Every operation is elementwise
    across the width, so a column's result does not depend on what else
    shares the array.  ``zi`` is only read.
    """
    n_sections = len(coeffs)
    z1s = [zi[s, 0] for s in range(n_sections)]
    z2s = [zi[s, 1] for s in range(n_sections)]
    y = np.empty_like(x)
    for n in range(x.shape[0]):
        v = x[n]
        for s, (b0, b1, b2, a1, a2) in enumerate(coeffs):
            z1 = z1s[s]
            yn = b0 * v + z1
            z1s[s] = b1 * v - a1 * yn + z2s[s]
            z2s[s] = b2 * v - a2 * yn
            v = yn
        y[n] = v
    zf = np.empty_like(zi)
    for s in range(n_sections):
        zf[s, 0] = z1s[s]
        zf[s, 1] = z2s[s]
    return y, zf


def _coefficients(sos: np.ndarray) -> list[tuple]:
    """``(b0, b1, b2, a1, a2)`` per section as Python floats."""
    return [(b0, b1, b2, a1, a2)
            for b0, b1, b2, _, a1, a2 in sos.tolist()]


def sosfilt(sos: np.ndarray, x: np.ndarray, zi: np.ndarray | None = None):
    """Causal direct-form-II-transposed filtering along axis 0.

    ``zi`` holds per-section state of shape ``(n_sections, 2, channels)``;
    pass the state returned by a previous call to continue a stream.
    Returns ``(y, zf)``.
    """
    sos = np.asarray(sos, dtype=float)
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    n_sections = sos.shape[0]
    channels = x.shape[1]
    if zi is None:
        state = np.zeros((n_sections, 2, channels))
    else:
        state = np.asarray(zi, dtype=float)
        if state.shape != (n_sections, 2, channels):
            raise ValueError(
                f"zi must have shape {(n_sections, 2, channels)}, got {state.shape}"
            )
    y, zf = _df2t(_coefficients(sos), x, state)
    if squeeze:
        return y[:, 0], zf
    return y, zf


def _run_jobs(coeffs, prime: np.ndarray, jobs) -> list:
    """Filter many independent blocks with one DF2T pass per block length.

    ``jobs`` is a sequence of ``(zi, x)`` pairs — typically one per
    stream segment: ``x`` is a float ``(n, channels)`` block with
    ``n >= 1`` (every job has the same channel count) and ``zi`` its
    carried ``(n_sections, 2, channels)`` state, or ``None`` to start at
    steady state for ``x[0]`` (``prime``, the ``(n_sections, 2, 1)``
    unit-step state, scaled by the first row).  A carried state holding
    a non-finite value is re-primed the same way: non-finite input
    poisons IIR state forever, so the stream self-heals at its next
    block.

    Jobs of equal length are stacked as the columns of one
    ``(n, jobs·channels)`` array and run through the loop once.  The
    loop is elementwise per column — each column sees the same IEEE
    operations in the same order whatever the array width — so every
    job's ``(y, zf)`` is bit-identical to :func:`sosfilt` on that job
    alone.  Returns the ``(y, zf)`` pairs in job order; with several
    jobs they are views into the stacked arrays.
    """
    if len(jobs) == 1:
        # The solo path pays for no batching: no grouping, no copies.
        zi, x = jobs[0]
        if zi is None or not _all(np.isfinite(zi), None):
            zi = prime * x[0]
        return [_df2t(coeffs, x, zi)]
    by_length: dict[int, list[int]] = {}
    for j, (_, x) in enumerate(jobs):
        by_length.setdefault(x.shape[0], []).append(j)
    out: list = [None] * len(jobs)
    for group in by_length.values():
        channels = jobs[group[0]][1].shape[1]
        x = np.concatenate([jobs[j][1] for j in group], axis=1)
        zi = np.concatenate(
            [prime * jobs[j][1][0] if jobs[j][0] is None else jobs[j][0]
             for j in group], axis=2)
        finite = np.isfinite(zi)
        if not _all(finite, None):
            healthy = finite.reshape(-1, len(group), channels).all(axis=(0, 2))
            for k in np.flatnonzero(~healthy):
                cols = slice(k * channels, (k + 1) * channels)
                zi[:, :, cols] = prime * x[0, cols]
        y, zf = _df2t(coeffs, x, zi)
        for k, j in enumerate(group):
            cols = slice(k * channels, (k + 1) * channels)
            out[j] = (y[:, cols], zf[:, :, cols])
    return out


def sosfilt_zi(sos: np.ndarray) -> np.ndarray:
    """Steady-state (unit step) initial conditions per section.

    Scaling this by the first input sample makes ``sosfilt`` start-up
    transient-free for signals with a DC offset — essential for IMU data,
    which always carries the 1 g gravity offset.
    Returns shape ``(n_sections, 2)``.
    """
    sos = np.asarray(sos, dtype=float)
    zi = np.zeros((sos.shape[0], 2))
    gain = 1.0
    for s, row in enumerate(sos):
        b0, b1, b2, _, a1, a2 = row
        # Solve the 2-state DF2T steady state for a constant unit input.
        #   z1 = b1 - a1*y + z2,  z2 = b2 - a2*y,  y = b0 + z1
        # => y = (b0+b1+b2)/(1+a1+a2)
        y_ss = (b0 + b1 + b2) / (1.0 + a1 + a2)
        z2 = (b2 - a2 * y_ss) * gain
        z1 = (b1 - a1 * y_ss) * gain + z2
        zi[s, 0] = z1
        zi[s, 1] = z2
        gain *= y_ss
    return zi


def _odd_ext(x: np.ndarray, n: int) -> np.ndarray:
    """Odd extension at both ends along axis 0 (scipy's filtfilt default)."""
    if n < 1:
        return x
    if n >= x.shape[0]:
        raise ValueError(
            f"signal too short ({x.shape[0]} samples) for padlen {n}"
        )
    head = 2 * x[0] - x[1 : n + 1][::-1]
    tail = 2 * x[-1] - x[-n - 1 : -1][::-1]
    return np.concatenate([head, x, tail], axis=0)


def sosfiltfilt(sos: np.ndarray, x: np.ndarray, padlen: int | None = None):
    """Zero-phase filtering: forward pass, reverse, forward, reverse.

    Uses odd extension and steady-state initial conditions like
    ``scipy.signal.sosfiltfilt``.
    """
    sos = np.asarray(sos, dtype=float)
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    if padlen is None:
        # scipy's default: enough samples for the edge transients to settle.
        trailing_zeros = min(
            int((sos[:, 2] == 0).sum()), int((sos[:, 5] == 0).sum())
        )
        padlen = 3 * (2 * sos.shape[0] + 1 - trailing_zeros)
    ext = _odd_ext(x, padlen)
    zi = sosfilt_zi(sos)[:, :, None]  # broadcast over channels
    y, _ = sosfilt(sos, ext, zi * ext[0])
    y, _ = sosfilt(sos, y[::-1], zi * y[-1])
    y = y[::-1]
    if padlen:
        y = y[padlen:-padlen]
    return y[:, 0] if squeeze else y


def lowpass_filter(
    x: np.ndarray, fs: float, cutoff_hz: float = 5.0, order: int = 4
) -> np.ndarray:
    """The paper's noise-removal step: zero-phase 4th-order Butterworth.

    Convenience wrapper around :func:`butter_lowpass_sos` +
    :func:`sosfiltfilt` with the paper's defaults (5 Hz cutoff, order 4).
    """
    sos = butter_lowpass_sos(order, cutoff_hz, fs)
    return sosfiltfilt(sos, x)


class OnlineSosFilter:
    """Streaming causal filter for the on-device (real-time) pipeline.

    The offline pipeline can run zero-phase filtering, but the embedded
    detector sees samples as they arrive; this class keeps per-section
    state across :meth:`process` calls.  State is initialised at steady state for
    the first sample to avoid the gravity-offset start-up transient.
    :meth:`process` is the one-job case of :meth:`run`, which filters
    caller-held ``(state, samples)`` jobs — several streams' blocks in
    one stacked pass — without touching this filter's own state.
    """

    def __init__(self, sos: np.ndarray, channels: int):
        self.sos = np.asarray(sos, dtype=float)
        self.channels = int(channels)
        self._zi_template = sosfilt_zi(self.sos)[:, :, None]
        self._coeffs = _coefficients(self.sos)
        self._state: np.ndarray | None = None

    @property
    def primed(self) -> bool:
        """True once the filter holds state from a first sample."""
        return self._state is not None

    @property
    def state(self) -> np.ndarray | None:
        """Carried ``(n_sections, 2, channels)`` state, ``None`` until
        primed; assign a job's final state from :meth:`run` to continue
        the stream from it."""
        return self._state

    @state.setter
    def state(self, value: np.ndarray | None) -> None:
        self._state = value

    def reset(self) -> None:
        """Forget all state; the next sample re-initialises it."""
        self._state = None

    def reprime(self, sample: np.ndarray) -> None:
        """Re-initialise at steady state for ``sample`` (warm-up skip).

        Used after a long stream gap: priming on the first post-gap sample
        makes a constant input pass through transient-free, exactly like
        the start-of-stream bootstrap.
        """
        sample = np.asarray(sample, dtype=float).reshape(self.channels)
        self._state = self._zi_template * sample

    def run(self, jobs) -> list:
        """Filter ``(state or None, samples)`` jobs — several streams'
        blocks — in one stacked pass with this filter's coefficients;
        returns one ``(y, zf)`` per job.

        A ``None`` or non-finite state starts at steady state for the
        job's first row.  Every job's result is bit-identical to
        :func:`sosfilt` on that job alone (see :func:`_run_jobs`).
        """
        return _run_jobs(self._coeffs, self._zi_template, jobs)

    def process(self, samples: np.ndarray) -> np.ndarray:
        """Filter a block of samples ``(n, channels)`` (or a single ``(channels,)``)."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if samples.shape[1] != self.channels:
            raise ValueError(
                f"expected {self.channels} channels, got {samples.shape[1]}"
            )
        ((y, self._state),) = self.run([(self._state, samples)])
        return y
