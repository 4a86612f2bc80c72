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

DEFAULT_SAMPLE_RATE = 16000
DEFAULT_WINDOW = 512
DEFAULT_HOP = 128
DEFAULT_N_MELS = 40


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


@dataclass
class FeatureMatrix:
    """Real feature array [frames, dims] with a provenance tag."""

    values: np.ndarray
    meta: str = "fbank"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("feature values must be [frames, dims]")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature values must be finite")

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]


@dataclass
class AugPolicy:
    """SpecAugment policy: fixed-width masks at random positions."""

    n_freq_masks: int = 0
    freq_width: int = 0
    n_time_masks: int = 0
    time_width: int = 0


# ---------------------------------------------------------------------------
# STFT / iSTFT
# ---------------------------------------------------------------------------


def periodic_hann(window_size: int) -> np.ndarray:
    n = np.arange(window_size)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / window_size)


def stft(wave: Waveform, window_size: int = DEFAULT_WINDOW, hop: int = DEFAULT_HOP) -> Spectrogram:
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

    # [C, T, window] strided view of the frames; the product copies them once.
    frames = np.lib.stride_tricks.sliding_window_view(wave.samples, window_size, axis=1)[:, ::hop]
    spec = np.fft.rfft(frames * periodic_hann(window_size), axis=2)  # [C, T, F]
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
    n_frames = spec.frames
    out_len = (n_frames - 1) * spec.hop + spec.window_size
    out = np.zeros(out_len)
    envelope = np.zeros(out_len)
    frames = np.fft.irfft(spec.bins[:, :, 0], n=spec.window_size, axis=1)
    for t in range(n_frames):
        start = t * spec.hop
        out[start : start + spec.window_size] += frames[t] * window
        envelope[start : start + spec.window_size] += window * window
    covered = envelope > 1e-12
    out[covered] /= envelope[covered]
    return Waveform(samples=out[None, :], sample_rate=spec.sample_rate)


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


def _log_mel(bins: np.ndarray, filters: np.ndarray):
    """Log mel energies of complex bins [T, F]: (log energies, energies)."""
    energies = (np.abs(bins) ** 2) @ filters.T
    return np.log(energies + LOG_FLOOR), energies


def _cmvn(values: np.ndarray):
    """(normalized values, per-dim sigma, mask of dims above the variance floor)."""
    mean = values.mean(axis=0)
    var = values.var(axis=0)
    sigma = np.sqrt(np.maximum(var, CMVN_VAR_FLOOR))
    return (values - mean) / sigma, sigma, var > CMVN_VAR_FLOOR


def _stack_deltas(values: np.ndarray) -> np.ndarray:
    if values.shape[0] < 5:
        raise ValueError("insufficient frames: deltas need >= 5 frames")
    d1 = delta_features(values)
    return np.concatenate([values, d1, delta_features(d1)], axis=1)


def log_fbank(spec: Spectrogram, n_mels: int = DEFAULT_N_MELS) -> FeatureMatrix:
    """Log mel filterbank energies of the power spectrum, floor 1e-10."""
    if spec.channels != 1:
        raise ValueError("log_fbank requires a single-channel spectrogram")
    filters = mel_filterbank(n_mels, spec.freq_bins, spec.window_size, spec.sample_rate)
    return FeatureMatrix(values=_log_mel(spec.bins[:, :, 0], filters)[0], meta="fbank")


def cmvn(feat: FeatureMatrix) -> FeatureMatrix:
    """Per-utterance, per-dimension zero mean / unit variance."""
    if feat.frames < 2:
        raise ValueError("insufficient frames: cmvn needs >= 2 frames")
    return FeatureMatrix(values=_cmvn(feat.values)[0], meta="cmvn")


def add_deltas(feat: FeatureMatrix) -> FeatureMatrix:
    """Append regression deltas and delta-deltas (window +-2, edges replicated).

    Output dims = 3x input dims.
    """
    return FeatureMatrix(values=_stack_deltas(feat.values), meta="deltas")


def fbank_chain_vjp(bins: np.ndarray, filters: np.ndarray, factor: int):
    """log_fbank -> cmvn -> add_deltas -> subsample on complex bins [T, F].

    Returns (features, vjp); vjp(g_features) -> g_bins, complex, under the
    Wirtinger convention of `pipeline`.
    """
    check_subsample_factor(factor)
    logf, energies = _log_mel(bins, filters)
    normed, sigma, active = _cmvn(logf)
    feats = _stack_deltas(normed)[::factor].copy()

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


def subsample(feat: FeatureMatrix, factor: int = 3) -> FeatureMatrix:
    """Keep frames 0, factor, 2*factor, ... (frame count = ceil(frames/factor))."""
    check_subsample_factor(factor)
    return FeatureMatrix(values=feat.values[::factor].copy(), meta="subsampled")


def spec_augment(feat: FeatureMatrix, policy: AugPolicy, rng: np.random.Generator) -> FeatureMatrix:
    """Zero out fixed-width frequency and time bands at rng-chosen positions."""
    if policy.n_freq_masks > 0 and policy.freq_width >= feat.dims:
        raise ValueError("freq mask width must be smaller than feature dims")
    if policy.n_time_masks > 0 and policy.time_width >= feat.frames:
        raise ValueError("time mask width must be smaller than frame count")
    values = feat.values.copy()
    for _ in range(policy.n_freq_masks):
        start = int(rng.integers(0, feat.dims - policy.freq_width + 1))
        values[:, start : start + policy.freq_width] = 0.0
    for _ in range(policy.n_time_masks):
        start = int(rng.integers(0, feat.frames - policy.time_width + 1))
        values[start : start + policy.time_width, :] = 0.0
    return FeatureMatrix(values=values, meta="specaug")
