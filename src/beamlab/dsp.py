"""Time-frequency analysis/synthesis and the log-fbank feature pipeline.

Shape conventions used throughout the package:
    waveforms     [C, n_samples]       (channels first)
    spectrograms  [T, F, C]            (frames, freq bins, channels)
    features      [T, D]               (frames, feature dims)
"""

import functools
from dataclasses import dataclass

import numpy as np

# Floor added to mel energies (and log-power mask features) before the log.
LOG_FLOOR = 1e-10
# Variance floor for per-utterance mean-variance normalization.
CMVN_VAR_FLOOR = 1e-8

# Windowed samples per rfft call in stft (more only when one frame of every
# channel exceeds it); bounds its temporary. A toy utterance (4 channels x
# <= 60 frames x 256) still takes one call.
STFT_BLOCK_SAMPLES = 1 << 16


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass
class Waveform:
    """Sampled audio, one or more channels.

    samples: float array [channels, n_samples], finite amplitudes.
    sample_rate: Hz.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 2:
            raise ValueError("waveform samples must be [channels, n_samples]")
        if self.samples.shape[1] == 0:
            raise ValueError("waveform must contain at least one sample")
        if not np.all(np.isfinite(self.samples)):
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
    """Complex STFT tensor indexed (frame t, frequency f, channel c)."""

    bins: np.ndarray
    sample_rate: int
    window_size: int
    hop: int

    def __post_init__(self):
        self.bins = np.asarray(self.bins, dtype=np.complex128)
        if self.bins.ndim == 2:
            self.bins = self.bins[:, :, None]
        if self.bins.ndim != 3:
            raise ValueError("spectrogram bins must be [frames, freq_bins, channels]")
        if self.bins.shape[1] != self.window_size // 2 + 1:
            raise ValueError(
                f"freq_bins {self.bins.shape[1]} inconsistent with window_size "
                f"{self.window_size} (expected {self.window_size // 2 + 1})"
            )
        if not np.all(np.isfinite(self.bins)):
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
    # blocks of frames over all channels into a preallocated output. The first
    # block is windowed before the output is allocated (a toy utterance, one
    # block, ran about 6% slower the other way round) and its buffer is reused
    # by the rest. The output is a C-contiguous [T, F, C] array, channels
    # innermost whatever the samples' order: the order masked_psd reads fastest.
    frames = np.lib.stride_tricks.sliding_window_view(wave.samples, window_size, axis=1)[:, ::hop]
    window = periodic_hann(window_size)
    n_channels, n_frames = frames.shape[:2]
    n_bins = window_size // 2 + 1
    step = max(1, STFT_BLOCK_SAMPLES // (n_channels * window_size))
    windowed = frames[:, :step] * window
    spec = np.empty((n_frames, n_bins, n_channels), dtype=np.complex128).transpose(2, 0, 1)
    for t in range(0, n_frames, step):
        block = windowed[:, : n_frames - t]
        if t:
            np.multiply(frames[:, t : t + step], window, out=block)
        np.fft.rfft(block, axis=2, out=spec[:, t : t + step])
    return Spectrogram(
        bins=spec.transpose(1, 2, 0),
        sample_rate=wave.sample_rate,
        window_size=window_size,
        hop=hop,
    )


def istft(spec: Spectrogram) -> Waveform:
    """Weighted overlap-add synthesis with per-sample COLA normalization.

    Reconstruction is exact (to roundoff) wherever the accumulated squared
    window envelope is nonzero; uncovered edge samples come out zero.
    """
    if spec.channels != 1:
        raise ValueError("istft requires a single-channel spectrogram")
    window = periodic_hann(spec.window_size)
    frames = np.fft.irfft(spec.bins[:, :, 0], n=spec.window_size, axis=1)
    out = _overlap_add(frames * window, spec.frames, spec.hop)
    envelope = _overlap_add((window * window)[None, :], spec.frames, spec.hop)
    covered = envelope > 1e-12
    out[covered] /= envelope[covered]
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
    out = np.zeros((n_frames + k - 1, hop))
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
