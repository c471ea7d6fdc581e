"""Machine-speed calibration, so that end-to-end times survive a noisy host.

On the reference machine (a shared 2-vCPU Intel Xeon virtual machine) the
same work runs at speeds that drift by up to 40% over tens of seconds while
no CPU steal is recorded.  Across ten verify-warm runs the raw median pass
time spread by 0.15 (interquartile range over median), and by 0.11 across
ten library-q20 runs.  A fixed kernel timed between commands drifts with the
work: scaled by it, the same runs spread by 0.034 and 0.048.

The kernel is a block of Dirichlet-series terms, the operation that
dominates zerokit's engine, written here with plain numpy so that no change
to zerokit changes it.  `scaled` rescales a measured time to the speed at
which the kernel takes REFERENCE_S seconds.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.1  # the kernel's time on the reference machine when quiet
_POINTS = 0.5 + 1j * np.linspace(-150.0, 150.0, 1500)
_LOG_N = np.log(np.arange(400) + 0.3)
_ROWS = 250  # 100k complex terms per block, like a small-shift Hurwitz call


def calibrate() -> float:
    """Seconds the fixed kernel takes now (after an untimed warm-up round,
    which keeps a fresh process's first-touch costs out of the figure)."""
    _kernel(1)
    start = time.perf_counter()
    _kernel(4)
    return time.perf_counter() - start


def _kernel(rounds: int) -> None:
    # One preallocated block: no allocation, so the allocator's state (which
    # the program's large arrays change) does not change the kernel's time.
    block = np.empty((_ROWS, len(_LOG_N)), dtype=complex)
    for _ in range(rounds):
        for row in range(0, len(_POINTS), _ROWS):
            np.multiply(_POINTS[row : row + _ROWS, None], -_LOG_N[None, :], out=block)
            np.exp(block, out=block).sum(axis=1)


def scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """A time measured between two calibrations, at the reference speed."""
    return seconds * REFERENCE_S / (0.5 * (kernel_before + kernel_after))
