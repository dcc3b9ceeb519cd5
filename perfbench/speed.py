"""A fixed reference kernel that measures how fast this machine runs right now.

The benchmark's host shares its cores with other guests, and the vCPU runs
up to 1.6x slower for stretches of seconds to minutes (CPU time tracks wall
time, so this is not waiting). The reference does the same work every time
and uses no fibervox code, so a change to fibervox cannot move it. Timed just
before and just after a pass, it tells how fast the machine ran during that
pass, and `normalized` scales the pass's time to a machine on which the
reference takes REFERENCE_S seconds. Its mix follows the workloads:
interpreter work, many numpy calls on a few rows (the packer), and streaming
numpy arithmetic over an array as large as L2 (the volume kernels).
"""

from __future__ import annotations

import time

import numpy as np

# About the reference's time on the 2-vCPU Xeon described in README.md.
REFERENCE_S = 0.25

_RNG = np.random.default_rng(12345)
_POINTS = _RNG.random((64, 3))
_STREAM = _RNG.random(262_144)  # 2 MiB


def _work() -> float:
    table: dict[int, int] = {}
    acc = 0.0
    for i in range(500_000):
        key = (i * 2654435761) % 4093
        table[key] = table.get(key, 0) + 1
        acc += key * 0.5
    for i in range(15_000):
        d = _POINTS - _POINTS[i % 64]
        acc += float(np.einsum("ij,ij->i", d, d).min())
    for _ in range(200):
        b = _STREAM * 1.0001
        b += 1.0
        acc += float(b.sum())
    return acc


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def normalized(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` measured between two reference runs, scaled to a machine
    on which the reference takes REFERENCE_S."""
    return seconds * REFERENCE_S / ((ref_before + ref_after) / 2)
