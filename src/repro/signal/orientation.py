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

_all = np.logical_and.reduce
#: Placeholder carried state of a job that bootstraps instead.
_ORIGIN = (0.0, 0.0, 0.0)
#: The gyro columns (x, y, z rates) that drive (pitch, roll, yaw).
_PITCH_ROLL_YAW_RATES = np.array([1, 0, 2])


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
        self._gain = np.array([self.alpha, self.alpha, 1.0])
        self._angles: np.ndarray | None = None  # (pitch, roll, yaw) degrees

    def reset(self) -> None:
        self._angles = None

    @property
    def state(self) -> np.ndarray | None:
        """Carried ``(pitch, roll, yaw)`` in degrees, ``None`` until the
        first sample; assign a job's last row from :meth:`run` to continue
        the stream from it."""
        return self._angles

    @state.setter
    def state(self, value: np.ndarray | None) -> None:
        self._angles = value

    def run(self, accel_g, gyro_dps, starts, states, out=None) -> np.ndarray:
        """Fuse many independent jobs — several streams' blocks — in one
        pass; returns ``[pitch, roll, yaw]`` per row, in degrees.

        The streaming detector's fusion step.  ``accel_g`` / ``gyro_dps``
        are ``(m, 3)`` rows holding the jobs back to back: job ``k``
        starts at row ``starts[k]`` (``starts[0] == 0``, increasing) and
        runs to the next start.  ``states[k]`` is its carried
        ``(pitch, roll, yaw)``, or ``None`` to bootstrap from the
        accelerometer at its first row (a new stream, or the detector's
        long-gap reset).  A job's exit state is its last output row.
        The rows go to ``out`` (an ``(m, 3)`` array) when given.  This
        filter's own state is untouched.

        Ragged jobs are padded into ``(steps, jobs)`` slots, so the
        sequential recurrence runs as one loop over time whose vector
        width is the job count.  Yaw shares the loop with a gain of 1
        and no accelerometer pull, which leaves its pure gyro integration
        exact (``y * 1 + 0 == y`` for every ``y`` but -0.0, which a sum
        started at +0.0 never reaches).  Every op is elementwise per job,
        in the order of the per-sample ``update`` kept as the reference
        in ``tests/detector_oracle.py``, so any split into jobs gives the
        same bits.
        """
        m = len(accel_g)
        if out is None:
            out = np.empty((m, 3))
        if m == 0:
            return out
        jobs = len(starts)
        fresh = [state is None for state in states]
        any_fresh = True in fresh
        if any_fresh:
            states = [_ORIGIN if state is None else state
                      for state in states]
        # Per row, the gyro increments in (pitch, roll, yaw) order: pitch
        # integrates the y rate, roll the x rate, yaw the z rate.
        rate = np.take(gyro_dps, _PITCH_ROLL_YAW_RATES, axis=1)
        rate *= self.dt
        steps = m // jobs
        if jobs == 1:
            # One job: the slots are the rows, fused straight into ``out``.
            slot = None
            acc = np.asarray(accel_g, dtype=float)
            state = states[0]
            fused = out
        else:
            state = np.asarray(states, dtype=float).reshape(jobs, 3)
            if steps * jobs == m and _all(
                    np.asarray(starts) == np.arange(0, m, steps), None):
                # Equal lengths: the slots are the rows, transposed.
                slot = None
                acc = np.reshape(accel_g, (jobs, steps, 3)).transpose(1, 0, 2)
                rate = rate.reshape(jobs, steps, 3).transpose(1, 0, 2)
            else:
                starts = np.asarray(starts, dtype=np.intp)
                lengths = np.diff(starts, append=m)
                steps = int(lengths.max())
                job = np.repeat(np.arange(jobs), lengths)
                slot = (np.arange(m) - starts[job], job)
                acc = np.zeros((steps, jobs, 3))
                acc[slot] = accel_g
                rows = rate
                rate = np.zeros((steps, jobs, 3))
                rate[slot] = rows
            fused = np.empty((steps, jobs, 3))
        # The accelerometer inclination (accel_inclination's ops) as the
        # pull on pitch and roll, scaled to its (1 - alpha) share; yaw
        # takes no pull and a gain of 1.
        ax, ay, az = acc[..., 0], acc[..., 1], acc[..., 2]
        pull = np.zeros(acc.shape)
        np.arctan2(ax, np.sqrt(ay**2 + az**2), out=pull[..., 0])
        np.arctan2(ay, az, out=pull[..., 1])
        np.degrees(pull, out=pull)
        if any_fresh:
            # A fresh job starts at its first inclination, yaw at 0.
            boot = pull[0].copy()
        pull *= 1.0 - self.alpha
        gain = self._gain
        for i in range(steps):
            row = fused[i]
            np.add(state, rate[i], out=row)
            row *= gain
            row += pull[i]
            if i == 0 and any_fresh:
                np.copyto(row, boot, where=np.reshape(
                    fresh, row.shape[:-1] + (1,)))
            state = row
        if slot is not None:
            out[:] = fused[slot]
        elif jobs > 1:
            out.reshape(jobs, steps, 3)[:] = fused.transpose(1, 0, 2)
        return out

    def process(self, accel_g: np.ndarray, gyro_dps: np.ndarray) -> np.ndarray:
        """Fuse whole aligned arrays ``(n, 3)``; returns angles ``(n, 3)``.

        The same recurrence as :meth:`run`, evaluated as a
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
