"""The machine's current speed, measured by a fixed numpy workload.

A shared host runs this machine 20-40 % slower or faster for a second to
minutes at a time, and the program with it: raw times of one workload
spread by 15-35 % between runs a few minutes apart.  The benchmark
therefore times ``sample(kind)`` right next to what it measures and
reports times scaled to nominal speed, ``raw * NOMINAL_S[kind] / sample``.
Each workload names the kind of work it does most, and the sample does
that kind of work: "1d" runs small 1D transforms in a Python loop and a
few 32^3 transforms, "3d" transforms a 64^3 field and cubes it
pointwise.  The samples use numpy only, never phistep, so no change to
the package changes their work.  The first sample in a process also
pays for numpy's transform set-up, so the first is taken untimed.
"""
from __future__ import annotations

import time

import numpy as np

# sample()'s typical time on a 2-core Intel Xeon VM at 2.1 GHz: scaled
# times read as times on that machine at its typical speed.
NOMINAL_S = {"1d": 0.025, "3d": 0.036}


def sample(kind: str) -> float:
    """Seconds the calibration workload of ``kind`` takes now (20-40 ms)."""
    if kind == "1d":
        line = np.exp(1j * np.linspace(0.0, 6.0, 256))
        decay = np.exp(-1e-3 * np.arange(256))
        size, passes = 32, 3
        tic = time.perf_counter()
        for _ in range(400):
            w = np.fft.ifft(line)
            line = decay * line + 1e-3 * np.fft.fft(w * np.conj(w) * w)
    else:
        size, passes = 64, 1
        tic = time.perf_counter()
    cube = np.cos(np.linspace(0.0, 6.0, size ** 3)).reshape(size, size, size)
    for _ in range(passes):
        cube = np.fft.irfftn(0.5 * np.fft.rfftn(cube ** 3 - cube), s=cube.shape, axes=(0, 1, 2))
    return time.perf_counter() - tic
