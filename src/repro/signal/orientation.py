"""Euler-angle estimation from accelerometer + gyroscope.

The paper's acquisition firmware "computed on the edge the Eulerian angle
data (pitch, roll, yaw) to capture detailed movement dynamics" — i.e. a
lightweight sensor-fusion step suitable for a Cortex-M7.  We implement the
classic *complementary filter*: accelerometer-derived inclination corrects
the drift of integrated gyroscope rates, and yaw (unobservable from the
accelerometer) is pure gyro integration.

Sensor frame convention (sensor on the lower back):
``x`` forward, ``y`` left, ``z`` up, so quiet standing measures
``accel ≈ (0, 0, +1) g``.  Angles are in degrees:

* pitch — forward (+) / backward (−) lean, rotation about ``y``;
* roll  — right (+) / left (−) lean, rotation about ``x``;
* yaw   — heading, rotation about ``z``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["accel_inclination", "ComplementaryFilter", "estimate_euler_angles"]


def accel_inclination(accel_g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pitch and roll (degrees) implied by the accelerometer alone.

    Only exact while the sensor is quasi-static (gravity dominates), which
    is precisely why the complementary filter blends it with the gyro.
    """
    a = np.atleast_2d(np.asarray(accel_g, dtype=float))
    ax, ay, az = a[:, 0], a[:, 1], a[:, 2]
    pitch = np.degrees(np.arctan2(ax, np.sqrt(ay**2 + az**2)))
    roll = np.degrees(np.arctan2(ay, az))
    return pitch, roll


class ComplementaryFilter:
    """First-order complementary filter producing pitch/roll/yaw.

    Parameters
    ----------
    fs:
        Sampling frequency (Hz).
    tau:
        Fusion time constant in seconds.  The blend factor is
        ``alpha = tau / (tau + dt)``: gyro dominates on short timescales,
        the accelerometer pins the long-term inclination.
    """

    def __init__(self, fs: float = 100.0, tau: float = 0.5):
        if fs <= 0 or tau <= 0:
            raise ValueError("fs and tau must be positive")
        self.fs = float(fs)
        self.dt = 1.0 / self.fs
        self.alpha = tau / (tau + self.dt)
        self._angles: np.ndarray | None = None  # (pitch, roll, yaw) degrees

    def reset(self) -> None:
        self._angles = None

    def update_block(
        self,
        accel_g: np.ndarray,
        gyro_dps: np.ndarray,
        reset_rows=None,
    ) -> np.ndarray:
        """Fuse a block ``(n, 3)`` carrying streaming state across calls;
        returns ``[pitch, roll, yaw]`` per row, in degrees.

        The streaming detector's fusion step.  The accelerometer
        inclination is vectorised (elementwise, so any split into blocks
        gives the same bits) while the blend recurrence — inherently
        sequential — runs in one tight scalar pass.  It is bit-identical
        to the per-sample ``update`` kept as the reference in
        ``tests/detector_oracle.py``.  ``reset_rows`` lists row indices at
        which to :meth:`reset` *before* fusing that row (the detector's
        long-gap stream resets).  Unlike :meth:`process`, the entry state
        is honoured and the exit state is kept for the next call.
        """
        accel_g = np.asarray(accel_g, dtype=float)
        gyro_dps = np.asarray(gyro_dps, dtype=float)
        n = accel_g.shape[0]
        out = np.empty((n, 3))
        if n == 0:
            return out
        pitch_acc, roll_acc = accel_inclination(accel_g)
        pa = pitch_acc.tolist()
        ra = roll_acc.tolist()
        gx = gyro_dps[:, 0].tolist()
        gy = gyro_dps[:, 1].tolist()
        gz = gyro_dps[:, 2].tolist()
        resets = set(reset_rows) if reset_rows is not None else ()
        alpha = self.alpha
        one_m_alpha = 1.0 - alpha
        dt = self.dt
        if self._angles is None:
            state = None
        else:
            state = (float(self._angles[0]), float(self._angles[1]),
                     float(self._angles[2]))
        for i in range(n):
            if i in resets:
                state = None
            if state is None:
                # Bootstrap from the accelerometer; yaw starts at 0.
                state = (pa[i], ra[i], 0.0)
            else:
                pitch, roll, yaw = state
                state = (
                    alpha * (pitch + gy[i] * dt) + one_m_alpha * pa[i],
                    alpha * (roll + gx[i] * dt) + one_m_alpha * ra[i],
                    yaw + gz[i] * dt,
                )
            out[i, 0] = state[0]
            out[i, 1] = state[1]
            out[i, 2] = state[2]
        self._angles = np.array(state)
        return out

    def process(self, accel_g: np.ndarray, gyro_dps: np.ndarray) -> np.ndarray:
        """Fuse whole aligned arrays ``(n, 3)``; returns angles ``(n, 3)``.

        The same recurrence as :meth:`update_block`, evaluated as a
        first-order IIR with a vectorised filter for dataset-scale speed
        (dataset synthesis and alignment, i.e. the training inputs).  It
        is *not* bit-identical to the streaming recurrence: ``lfilter``
        reassociates ``alpha * (angle + rate * dt)``, so pitch and roll
        differ in the last bits (~1e-14 degrees).  Ignores and resets any
        streaming state.
        """
        from scipy.signal import lfilter

        accel_g = np.asarray(accel_g, dtype=float)
        gyro_dps = np.asarray(gyro_dps, dtype=float)
        if accel_g.shape != gyro_dps.shape or accel_g.ndim != 2:
            raise ValueError(
                f"accel and gyro must both be (n, 3); got {accel_g.shape} "
                f"and {gyro_dps.shape}"
            )
        self.reset()
        n = accel_g.shape[0]
        pitch_acc, roll_acc = accel_inclination(accel_g)
        out = np.empty((n, 3))
        if n == 0:
            return out
        # angle_t = alpha * angle_{t-1} + u_t  with
        # u_t = alpha*dt*gyro_t + (1-alpha)*angle_acc_t, bootstrapped from
        # the accelerometer at t=0.
        a = self.alpha
        for col, (acc_angle, rate) in enumerate(
            [(pitch_acc, gyro_dps[:, 1]), (roll_acc, gyro_dps[:, 0])]
        ):
            u = a * self.dt * rate + (1.0 - a) * acc_angle
            out[0, col] = acc_angle[0]
            if n > 1:
                y, _ = lfilter([1.0], [1.0, -a], u[1:], zi=[a * acc_angle[0]])
                out[1:, col] = y
        yaw = np.cumsum(gyro_dps[:, 2]) * self.dt
        out[:, 2] = yaw - yaw[0]
        return out


def estimate_euler_angles(
    accel_g: np.ndarray, gyro_dps: np.ndarray, fs: float = 100.0, tau: float = 0.5
) -> np.ndarray:
    """One-shot Euler angle estimation for a whole recording."""
    return ComplementaryFilter(fs=fs, tau=tau).process(accel_g, gyro_dps)
