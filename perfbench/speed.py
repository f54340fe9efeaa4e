"""The machine's speed, sampled on the benchmark's CPU while the commands run.

On the shared 2-vCPU VM this benchmark was built on, the CPUs change speed by
up to half, on a scale of seconds to minutes, with no steal time reported, so
raw wall and CPU times of the same work spread by more than any useful bound.
The harness therefore runs on one CPU, and a ``SpeedMeter`` thread on that CPU
times a fixed reference step every 50 ms: one Adam mini-batch step of a tiny
8-32-5 softmax network on 32 rows drawn from 680, written here in plain numpy.
That is the shape of an ``ordsoft`` training step, Python overhead included,
but shares no code with the program. ``scale(t0, t1)`` turns a time measured
between ``t0`` and ``t1`` into seconds at the reference speed, at which one
step takes ``REF_STEP_S``; the meter takes about 3% of the CPU from the
command it runs beside.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

REF_STEP_S = 140e-6  # seconds per reference step at the reference speed
STEPS = 10  # reference steps per sample
ROWS, BATCH = 680, 32
PERIOD_S = 0.05


def pin_to_one_cpu() -> None:
    """Run this thread, the threads it starts and every process it starts on one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class SpeedMeter(threading.Thread):
    def __init__(self) -> None:
        super().__init__(name="speed-meter", daemon=True)
        self._rng = np.random.default_rng(0)
        self._x = self._rng.standard_normal((ROWS, 8))
        self._y = np.eye(5)[self._rng.integers(0, 5, ROWS)]
        self._params = {"w1": self._rng.standard_normal((8, 32)) * 0.1, "b1": np.zeros(32),
                        "w2": self._rng.standard_normal((32, 5)) * 0.1, "b2": np.zeros(5)}
        self._m = {k: np.zeros_like(v) for k, v in self._params.items()}
        self._v = {k: np.zeros_like(v) for k, v in self._params.items()}
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._samples: list[tuple[float, float]] = []  # (monotonic time, CPU s per step)

    def _step(self) -> None:
        w = self._params
        idx = self._rng.integers(0, ROWS, BATCH)
        x, y = self._x[idx], self._y[idx]
        a = x @ w["w1"] + w["b1"]
        h = np.maximum(a, 0.0)
        z = h @ w["w2"] + w["b2"]
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        g = (p - y) / BATCH
        gh = (g @ w["w2"].T) * (a > 0)
        grads = {"w1": x.T @ gh, "b1": gh.sum(axis=0), "w2": h.T @ g, "b2": g.sum(axis=0)}
        for k, gk in grads.items():
            self._m[k] = 0.9 * self._m[k] + 0.1 * gk
            self._v[k] = 0.999 * self._v[k] + 0.001 * gk * gk
            w[k] -= 1e-3 * self._m[k] / (np.sqrt(self._v[k]) + 1e-8)

    def _sample(self) -> tuple[float, float]:
        start = time.thread_time()
        for _ in range(STEPS):
            self._step()
        # CPU time of this thread only: a step the command preempted still counts once
        return time.monotonic(), (time.thread_time() - start) / STEPS

    def run(self) -> None:
        while not self._done.wait(PERIOD_S):
            sample = self._sample()
            with self._lock:
                self._samples.append(sample)

    def start(self) -> None:
        super().start()
        while True:  # a first sample, so every interval has one to fall back on
            with self._lock:
                if self._samples:
                    return
            time.sleep(PERIOD_S)

    def stop(self) -> None:
        self._done.set()
        self.join()

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per measured second over the monotonic interval [t0, t1].

        The mean of the sampled speeds (reference over measured step time),
        not the reference over the mean step time: work done is speed
        integrated over time.
        """
        with self._lock:
            inside = [s for t, s in self._samples if t0 <= t <= t1]
            if not inside:  # shorter than one period: the latest sample before t1
                inside = [s for t, s in self._samples if t <= t1][-1:]
        return sum(REF_STEP_S / s for s in inside) / len(inside)
