"""Timings scaled to a host of fixed speed.

The shared host this benchmark was tuned on (a 2-core x86-64 VM) drifts in
speed by up to 1.6x over seconds to minutes, and raw timings drift with it,
so two runs of the same code could differ by more than any useful bound. A
fixed reference kernel, independent of beamlab, is timed between the timed
blocks of a run. Each block's wall time is scaled by REFERENCE_S over the
mean kernel time just before and just after it: the result is seconds on a
host where the kernel takes REFERENCE_S, about its time on that VM when
the host is quiet. A change to beamlab moves the blocks, never the kernel.
"""

import statistics
import time

import numpy as np

REFERENCE_S = 0.031
# Timed work between two kernel runs, at least. Blocks shorter than this
# share one kernel run, which keeps the kernel's cost to about a tenth.
EVERY_S = 1.0
KERNEL_REPEATS = 5

# Operands shaped like beamlab's: small matrices, a 60-frame x 129-bin x
# 8-channel spectrogram with its mask, and 400 frames of 256 samples.
_MATRIX = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
_BINS = (np.linspace(-1.0, 1.0, 60 * 129 * 8)
         + 1j * np.linspace(1.0, -1.0, 60 * 129 * 8)).reshape(60, 129, 8)
_MASK = np.linspace(0.0, 1.0, 60 * 129).reshape(60, 129)
_FRAMES = np.linspace(-1.0, 1.0, 400 * 256).reshape(400, 256)


def reference_kernel() -> float:
    """Median wall seconds of a fixed mix of the work beamlab does: small
    matrix products and FFTs, a masked cross-channel PSD, a framed FFT and
    an interpreted loop. The median of several short repeats ignores a
    repeat the scheduler interrupted."""
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        for _ in range(60):
            np.fft.rfft(_MATRIX @ _MATRIX, axis=0).real.sum()
        for _ in range(6):
            np.einsum("tf,tfc,tfd->fcd", _MASK, _BINS, _BINS.conj())
        np.fft.rfft(_FRAMES * np.hanning(256), axis=1)
        total = 0
        for i in range(30_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostSpeed:
    """Running totals of timed blocks, in wall and in normalized seconds."""

    def __init__(self):
        self.kernel_s = reference_kernel()
        self.pending = 0.0  # wall seconds of blocks not yet scaled
        self.wall = 0.0
        self.normalized = 0.0

    def add(self, seconds: float) -> None:
        """Count one timed block that has just ended."""
        self.pending += seconds
        if self.pending >= EVERY_S:
            self.flush()

    def flush(self) -> None:
        """Scale the pending blocks; call when a timed section ends."""
        if not self.pending:
            return
        before, self.kernel_s = self.kernel_s, reference_kernel()
        self.wall += self.pending
        self.normalized += self.pending * REFERENCE_S / ((before + self.kernel_s) / 2)
        self.pending = 0.0

    def totals(self) -> tuple:
        """(wall, normalized) seconds of the blocks scaled so far."""
        return self.wall, self.normalized
