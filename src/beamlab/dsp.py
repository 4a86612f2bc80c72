"""Time-frequency analysis/synthesis and the log-fbank feature pipeline.

Shape conventions used throughout the package:
    waveforms     [C, n_samples]       (channels first)
    spectrograms  [T, F, C]            (frames, freq bins, channels)
    features      [T, D]               (frames, feature dims)
"""

import ctypes
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

# Floor added to mel energies (and log-power mask features) before the log.
LOG_FLOOR = 1e-10
# Variance floor for per-utterance mean-variance normalization.
CMVN_VAR_FLOOR = 1e-8
# istft normalizes a sample only where the summed squared window is at least this
# fraction of its maximum. Near the two ends the envelope falls to w(1)^2, about
# 1.4e-9 for a 512-sample window, and dividing by it turns the small inconsistency
# of a beamformed (not a true STFT) spectrogram into full-scale clicks. On perfbench's
# 18 oracle-mask scenes at 512 / 128, 1e-3 keeps the first and last hop within 1.21
# times the interior peak and zeroes 33 samples at the start (1e-4: 3.50 times, 19
# samples; 1e-2: 0.32 times, 59 samples).
ISTFT_ENVELOPE_FLOOR = 1e-3

# Windowed samples per rfft call in stft (more only when one frame of every
# channel exceeds it); bounds its temporary. A toy utterance (4 channels x
# <= 60 frames x 256) still takes one call. It is also the size rule of the
# two-CPU split (_in_two): stft splits an input of more than one block;
# beamform.masked_psd bins and the roomsim.simulate_multichannel output
# [C, n] of at least this many entries are split too. Toy shapes stay below
# it, so training never splits.
STFT_BLOCK_SAMPLES = 1 << 16


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


def _all_finite(values: np.ndarray) -> bool:
    """np.isfinite(values).all(), from the sum first: a NaN or infinite entry makes
    the sum NaN or infinite, so a finite sum proves every entry finite, and only a
    sum that is not finite (a non-finite entry, or finite ones that overflow it)
    takes the elementwise check."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = values.sum()
    return bool(np.isfinite(total) or np.isfinite(values).all())


def _as_array(values, single, double) -> np.ndarray:
    """values as an array of dtype `single` if they already have it, else of dtype
    `double`; an array that already has its dtype is not copied."""
    return np.asarray(values, dtype=single if getattr(values, "dtype", None) == single
                      else double)


@dataclass
class Waveform:
    """Sampled audio, one or more channels.

    samples: 2-D float array [channels >= 1, n_samples >= 1], finite amplitudes;
    float32 samples stay float32 (`enhance`'s single-precision front end), any
    other input becomes float64, without a copy if it already is.
    sample_rate: Hz.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = _as_array(self.samples, np.float32, np.float64)
        if self.samples.ndim != 2 or self.samples.shape[0] < 1:
            raise ValueError("waveform samples must be [channels >= 1, n_samples], "
                             f"not {self.samples.shape}")
        if self.samples.shape[1] == 0:
            raise ValueError("waveform must contain at least one sample")
        if not _all_finite(self.samples):
            raise ValueError("waveform amplitudes must be finite")
        self.sample_rate = int(self.sample_rate)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


@dataclass
class Spectrogram:
    """Complex STFT tensor indexed (frame t, frequency f, channel c); [T, F] is one channel.

    complex64 bins stay complex64 (what `stft` gives float32 samples), any other
    input becomes complex128, without a copy if it already is.
    """

    bins: np.ndarray
    sample_rate: int
    window_size: int
    hop: int

    def __post_init__(self):
        self.bins = _as_array(self.bins, np.complex64, np.complex128)
        if self.bins.ndim == 2:
            self.bins = self.bins[:, :, None]
        if self.bins.ndim != 3 or self.bins.shape[2] < 1:
            raise ValueError("spectrogram bins must be [frames, freq_bins, channels >= 1]")
        if self.bins.shape[1] != self.window_size // 2 + 1:
            raise ValueError(
                f"freq_bins {self.bins.shape[1]} inconsistent with window_size "
                f"{self.window_size} (expected {self.window_size // 2 + 1})"
            )
        if not _all_finite(self.bins):
            raise ValueError("spectrogram entries must be finite")

    @property
    def frames(self) -> int:
        return self.bins.shape[0]

    @property
    def freq_bins(self) -> int:
        return self.bins.shape[1]

    @property
    def channels(self) -> int:
        return self.bins.shape[2]


# ---------------------------------------------------------------------------
# STFT / iSTFT
# ---------------------------------------------------------------------------


def periodic_hann(window_size: int) -> np.ndarray:
    n = np.arange(window_size)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / window_size)


def stft(wave: Waveform, window_size: int, hop: int) -> Spectrogram:
    """Per-channel framed, periodic-Hann-windowed real FFT. No center padding.
    float32 samples give complex64 bins, float64 samples complex128.

    Frame count is floor((n_samples - window_size) / hop) + 1; trailing
    samples that do not fill a frame are dropped.
    """
    if window_size <= 0 or (window_size & (window_size - 1)) != 0:
        raise ValueError("window_size must be a power of two")
    if not 0 < hop <= window_size:
        raise ValueError("hop must satisfy 0 < hop <= window_size")
    if wave.n_samples < window_size:
        raise ValueError("input too short: need at least one full window")

    # [C, T, window] strided view of the frames, windowed and transformed in
    # blocks of frames over all channels into a preallocated output. The output
    # is a C-contiguous [T, F, C] array, channels innermost whatever the
    # samples' order: the order masked_psd reads fastest. One block is windowed
    # before the output is allocated (a toy utterance ran about 6% slower the
    # other way round). A longer input is split into two halves of frames, one
    # per CPU (_in_two), each windowed in blocks of half the size into a buffer
    # allocated here, so both together hold at most one block; every frame's
    # rfft is the same call on the same samples, so the output is unchanged.
    frames = np.lib.stride_tricks.sliding_window_view(wave.samples, window_size, axis=1)[:, ::hop]
    real = wave.samples.dtype
    window = periodic_hann(window_size).astype(real, copy=False)
    n_channels, n_frames = frames.shape[:2]
    n_bins = window_size // 2 + 1
    step = max(1, STFT_BLOCK_SAMPLES // (n_channels * window_size))
    shape = (n_frames, n_bins, n_channels)
    complex_dtype = np.promote_types(real, np.complex64)  # complex64 for float32 samples
    if n_frames <= step:
        windowed = frames * window
        spec = np.empty(shape, dtype=complex_dtype).transpose(2, 0, 1)
        np.fft.rfft(windowed, axis=2, out=spec)
    else:
        spec = np.empty(shape, dtype=complex_dtype).transpose(2, 0, 1)
        half = (n_frames + 1) // 2
        buffers = np.empty((2, n_channels, max(1, step // 2), window_size), dtype=real)
        _in_two(lambda: _rfft_blocks(frames[:, :half], window, buffers[0], spec[:, :half]),
                lambda: _rfft_blocks(frames[:, half:], window, buffers[1], spec[:, half:]))
    return Spectrogram(
        bins=spec.transpose(1, 2, 0),
        sample_rate=wave.sample_rate,
        window_size=window_size,
        hop=hop,
    )


def _rfft_blocks(frames: np.ndarray, window: np.ndarray, buffer: np.ndarray,
                 out: np.ndarray) -> None:
    """out[:, t] = rfft(frames[:, t] * window) for frames [C, T, W], windowed
    buffer.shape[1] frames at a time into buffer [C, block, W]."""
    step = buffer.shape[1]
    for t in range(0, frames.shape[1], step):
        block = buffer[:, : frames.shape[1] - t]
        np.multiply(frames[:, t : t + step], window, out=block)
        np.fft.rfft(block, axis=2, out=out[:, t : t + step])


def istft(spec: Spectrogram) -> Waveform:
    """Weighted overlap-add synthesis with per-sample COLA normalization, in the
    bins' precision (complex64 bins give float32 samples).

    Reconstruction is exact (to roundoff) wherever the accumulated squared
    window envelope is at least ISTFT_ENVELOPE_FLOOR of its maximum; the other
    samples, at the two ends (and between frames for a hop near the window size),
    come out zero.
    """
    if spec.channels != 1:
        raise ValueError("istft requires a single-channel spectrogram")
    window = periodic_hann(spec.window_size).astype(np.finfo(spec.bins.dtype).dtype,
                                                    copy=False)
    frames = np.fft.irfft(spec.bins[:, :, 0], n=spec.window_size, axis=1)
    frames *= window  # in place: no second [T, W] array
    out = _overlap_add(frames, spec.frames, spec.hop)
    envelope = _overlap_add((window * window)[None, :], spec.frames, spec.hop)
    covered = envelope >= ISTFT_ENVELOPE_FLOOR * envelope.max()
    out[covered] /= envelope[covered]
    out[~covered] = 0.0
    return Waveform(samples=out[None, :], sample_rate=spec.sample_rate)


def _overlap_add(frames: np.ndarray, n_frames: int, hop: int) -> np.ndarray:
    """Sum of frames[t] placed at t * hop for t < n_frames; a one-row frames is
    placed at every t. [n_frames or 1, W] -> [(n_frames - 1) * hop + W].

    Segment j (samples j*hop to (j+1)*hop) of frame t lands on output block
    t + j. Adding the segments for j = k-1 down to 0 gives each block its
    frames in increasing order, from +0.0: the per-frame loop's additions.
    """
    width = frames.shape[1]
    k = -(-width // hop)
    out = np.zeros((n_frames + k - 1, hop), dtype=frames.dtype)
    for j in range(k - 1, -1, -1):
        segment = frames[:, j * hop : (j + 1) * hop]
        out[j : j + n_frames, : segment.shape[1]] += segment
    return out.reshape(-1)[: (n_frames - 1) * hop + width]


# ---------------------------------------------------------------------------
# Mel filterbank features
# ---------------------------------------------------------------------------


def _hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def _mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=32)
def mel_filterbank(n_mels: int, n_fft_bins: int, window_size: int, sample_rate: int) -> np.ndarray:
    """Triangular HTK-mel filters spanning 0 Hz to Nyquist, [n_mels, F]; cached, read-only."""
    nyquist = sample_rate / 2.0
    mel_points = np.linspace(_hz_to_mel(0.0), _hz_to_mel(nyquist), n_mels + 2)
    hz_points = _mel_to_hz(mel_points)
    bin_freqs = np.arange(n_fft_bins) * sample_rate / window_size
    filters = np.zeros((n_mels, n_fft_bins))
    for m in range(n_mels):
        left, center, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        filters[m] = np.maximum(0.0, np.minimum(rising, falling))
    filters.flags.writeable = False
    return filters


def fbank_chain_vjp(bins: np.ndarray, filters: np.ndarray, factor: int):
    """The feature chain on complex bins [T >= 5, F] and mel filters [M, F]:
    log mel energies (floor LOG_FLOOR) -> per-utterance, per-dimension mean
    and variance normalization (variance floor CMVN_VAR_FLOOR) -> features,
    deltas and delta-deltas side by side -> frames 0, factor, 2*factor, ...

    Returns (features [ceil(T / factor), 3M], vjp); vjp(g_features) -> g_bins,
    complex, under the Wirtinger convention of `pipeline`.
    """
    check_subsample_factor(factor)
    if bins.shape[0] < 5:
        raise ValueError("insufficient frames: deltas need >= 5 frames")
    energies = (np.abs(bins) ** 2) @ filters.T
    logf = np.log(energies + LOG_FLOOR)
    var = logf.var(axis=0)
    sigma = np.sqrt(np.maximum(var, CMVN_VAR_FLOOR))
    active = var > CMVN_VAR_FLOOR
    normed = (logf - logf.mean(axis=0)) / sigma
    d1 = delta_features(normed)
    feats = np.concatenate([normed, d1, delta_features(d1)], axis=1)[::factor].copy()

    def vjp(g_sub: np.ndarray) -> np.ndarray:
        g_feats = np.zeros((normed.shape[0], g_sub.shape[1]))
        g_feats[::factor] = g_sub
        n = normed.shape[1]
        g_d1 = g_feats[:, n : 2 * n] + delta_features_adjoint(g_feats[:, 2 * n :])
        g_normed = g_feats[:, :n] + delta_features_adjoint(g_d1)
        centered = g_normed - g_normed.mean(axis=0)
        correction = normed * (g_normed * normed).mean(axis=0)
        g_logf = np.where(active, centered - correction, centered) / sigma
        g_power = (g_logf / (energies + LOG_FLOOR)) @ filters
        return 2.0 * g_power * bins  # adjoint of |z|^2 for a real loss

    return feats, vjp


def delta_features(values: np.ndarray) -> np.ndarray:
    """Standard regression deltas: d[t] = sum_k k*(x[t+k]-x[t-k]) / (2*sum k^2)."""
    padded = np.concatenate([values[:1], values[:1], values, values[-1:], values[-1:]], axis=0)
    t = values.shape[0]
    return (
        (padded[3 : 3 + t] - padded[1 : 1 + t]) + 2.0 * (padded[4 : 4 + t] - padded[0:t])
    ) / 10.0


def delta_features_adjoint(grad: np.ndarray) -> np.ndarray:
    """Transpose of delta_features (replicate-pad followed by the linear stencil)."""
    t = grad.shape[0]
    gp = np.zeros((t + 4, grad.shape[1]))
    gp[3 : 3 + t] += grad / 10.0
    gp[1 : 1 + t] -= grad / 10.0
    gp[4 : 4 + t] += 2.0 * grad / 10.0
    gp[0:t] -= 2.0 * grad / 10.0
    out = gp[2 : 2 + t].copy()
    out[0] += gp[0] + gp[1]
    out[-1] += gp[t + 2] + gp[t + 3]
    return out


def check_subsample_factor(factor: int) -> None:
    """A factor below 1 would reverse the frames (< 0) or fail to slice (0)."""
    if factor < 1:
        raise ValueError(f"subsample factor must be >= 1, got {factor}")


# ---------------------------------------------------------------------------
# Two CPUs
# ---------------------------------------------------------------------------


def _other_cpus() -> set:
    """The usable CPUs other than the one this thread runs on; empty with one
    usable CPU or without os.sched_getaffinity. A kernel that does not balance
    load leaves a new thread or process on its parent's CPU, so a second worker
    (_in_two's thread, sched's batch helper) must be pinned to these."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    return cpus - {ctypes.CDLL(None).sched_getcpu()} if len(cpus) > 1 else set()


def _in_two(first, second):
    """(first(), second()): first on a thread pinned to _other_cpus() while this
    thread runs second, or both here, in order, with one usable CPU. The thread
    is joined before this returns or raises; if both raise, first's exception
    wins. The callers split numpy work that releases the GIL (FFTs, matmuls,
    ufunc loops) and allocate every large buffer before the call, on this
    thread: the worker's own malloc arena would add its high-water mark to the
    process's peak memory. They are stft (halves of frames),
    beamform.masked_psd (halves of frequencies) and
    roomsim.simulate_multichannel (halves of RIR rows), each only above the
    STFT_BLOCK_SAMPLES size rule. istft is not split: on a 2-vCPU host its
    halves of a 4.5 s, 16 kHz scene took 1.28 ms against 1.11 ms on one CPU."""
    cpus = _other_cpus()
    if not cpus:
        return first(), second()
    out = {}

    def run():
        try:
            os.sched_setaffinity(0, cpus)
            out["first"] = first()
        except BaseException as exc:
            out["error"] = exc

    worker = threading.Thread(target=run)
    worker.start()
    try:
        mine = second()
    finally:
        worker.join()
        if "error" in out:
            raise out["error"]
    return out["first"], mine


# One thread started and joined at import, while the heap is still small.
# glibc keeps a finished thread's stack and thread-local block for the next
# thread, so _in_two's threads reuse them instead of allocating them on the
# first large call, between the arrays of a large heap, where they split a
# free region and raised a 16 kHz run's peak memory by about 5 MB.
_first_thread = threading.Thread(target=int)
_first_thread.start()
_first_thread.join()
