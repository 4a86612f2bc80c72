"""Mask-based MVDR beamformer.

The MVDR weights follow the masked-statistics formulation: per-frequency
speech/noise cross-channel PSD matrices, filter
    h(f) = (Phi_NN^-1(f) Phi_SS(f) / tr{Phi_NN^-1(f) Phi_SS(f)}) u
with u one-hot at the reference microphone, applied as x_hat = h^H x.

The `*_vjp` functions return their forward's output and its adjoint
(vector-Jacobian product) under the Wirtinger convention of `pipeline`.
"""

from dataclasses import dataclass, replace

import numpy as np

from .dsp import Spectrogram

MASK_EPS = 1e-10
# Relative diagonal loading applied to Phi_NN before inversion.
DIAGONAL_LOADING = 1e-6
HERMITIAN_TOL = 1e-8
# Frequency bins per batched matmul in the PSD kernels; bounds their temporaries.
PSD_BLOCK_BINS = 32


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass
class TFMask:
    """Per-(t,f) weight in [0,1]; target names what the mask selects."""

    values: np.ndarray
    target: str = "speech"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("mask values must be [frames, freq_bins]")
        if np.any(self.values < 0.0) or np.any(self.values > 1.0):
            raise ValueError("mask values must lie in [0, 1]")
        if self.target not in ("speech", "noise"):
            raise ValueError("mask target must be 'speech' or 'noise'")


@dataclass
class PsdPair:
    """Per-frequency C x C Hermitian PSD matrices for speech and noise."""

    phi_ss: np.ndarray
    phi_nn: np.ndarray

    def __post_init__(self):
        self.phi_ss = np.asarray(self.phi_ss, dtype=np.complex128)
        self.phi_nn = np.asarray(self.phi_nn, dtype=np.complex128)
        for name, phi in (("phi_ss", self.phi_ss), ("phi_nn", self.phi_nn)):
            if phi.ndim != 3 or phi.shape[1] != phi.shape[2]:
                raise ValueError(f"{name} must be [freq_bins, C, C]")
        if self.phi_ss.shape != self.phi_nn.shape:
            raise ValueError("phi_ss and phi_nn shapes must match")

    @property
    def channels(self) -> int:
        return self.phi_ss.shape[1]


@dataclass
class BeamWeights:
    """Per-frequency complex filter h(f) of length C plus the reference index."""

    h: np.ndarray
    ref_channel: int

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=np.complex128)
        if self.h.ndim != 2:
            raise ValueError("beam weights must be [freq_bins, C]")
        if not np.all(np.isfinite(self.h)):
            raise ValueError("beam weights must be finite")
        if not 0 <= self.ref_channel < self.h.shape[1]:
            raise ValueError("ref_channel out of range")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def oracle_masks(clean: Spectrogram, noise: Spectrogram):
    """Ideal ratio masks from known clean/noise components (first channel).

    m_s = |S|^2 / (|S|^2 + |N|^2 + eps), m_n = 1 - m_s.
    Returns (speech TFMask, noise TFMask).
    """
    if clean.bins.shape != noise.bins.shape:
        raise ValueError("clean and noise spectrogram shapes must match")
    s_pow = np.abs(clean.bins[:, :, 0]) ** 2
    n_pow = np.abs(noise.bins[:, :, 0]) ** 2
    m_s = s_pow / (s_pow + n_pow + MASK_EPS)
    return TFMask(m_s, target="speech"), TFMask(1.0 - m_s, target="noise")


def masked_psd(bins: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Raw-array core of estimate_psd: bins [T,F,C], mask [T,F] -> [F,C,C].
    Per bin, sum_t m x x^H = X^T (m conj X): one batched matmul per block of bins."""
    numer = np.empty((bins.shape[1], bins.shape[2], bins.shape[2]), dtype=np.complex128)
    for f0 in range(0, bins.shape[1], PSD_BLOCK_BINS):
        block = slice(f0, f0 + PSD_BLOCK_BINS)
        x = bins[:, block].transpose(1, 0, 2)  # [f, T, C] view
        numer[block] = np.swapaxes(x, 1, 2) @ (x.conj() * mask[:, block].T[:, :, None])
    denom = np.maximum(mask.sum(axis=0), MASK_EPS)
    return numer / denom[:, None, None]


def masked_psd_pair_vjp(bins: np.ndarray, mask: np.ndarray):
    """PSDs of masks m, 1 - m and their adjoint: (phi_ss, phi_nn, vjp(g_ss, g_nn) -> g_mask).
    Re x^H g x is linear in g: one quadratic form on g_ss / d_ss - g_nn / d_nn (d: mask sums)."""
    noise_mask = 1.0 - mask
    phi_ss = masked_psd(bins, mask)
    phi_nn = masked_psd(bins, noise_mask)

    def vjp(g_ss: np.ndarray, g_nn: np.ndarray) -> np.ndarray:
        # Per PSD: (Re x^H g x - <g, phi>) / d; <g, phi> only where d is unclamped.
        g_quad, offset = 0.0, 0.0
        for sign, m, g, phi in ((1.0, mask, g_ss, phi_ss), (-1.0, noise_mask, g_nn, phi_nn)):
            mask_sum = m.sum(axis=0)
            denom = np.maximum(mask_sum, MASK_EPS)
            inner = np.einsum("fij,fij->f", g.conj(), phi).real
            g_quad = g_quad + sign * g / denom[:, None, None]
            offset = offset + sign * np.where(mask_sum > MASK_EPS, inner, 0.0) / denom
        quad = np.empty(mask.shape)
        for f0 in range(0, bins.shape[1], PSD_BLOCK_BINS):
            block = slice(f0, f0 + PSD_BLOCK_BINS)
            gx = bins[:, block].transpose(1, 0, 2) @ np.swapaxes(g_quad[block], 1, 2)  # [f, T, C]
            quad[:, block] = np.einsum("tfk,ftk->tf", bins[:, block].conj(), gx).real
        return quad - offset

    return phi_ss, phi_nn, vjp


def estimate_psd(spec: Spectrogram, mask) -> np.ndarray:
    """Mask-weighted spatial covariance per frequency.

    Phi(f) = sum_t m(t,f) x(t,f) x(t,f)^H / max(sum_t m(t,f), eps).
    Hermitian by construction; an all-zero mask column yields a zero matrix.
    """
    values = mask.values if isinstance(mask, TFMask) else np.asarray(mask, dtype=np.float64)
    if values.shape != (spec.frames, spec.freq_bins):
        raise ValueError("mask shape must match spectrogram frames x freq_bins")
    return masked_psd(spec.bins, values)


def _check_hermitian(phi: np.ndarray, name: str):
    scale = max(1.0, float(np.abs(phi).max(initial=0.0)))
    if np.abs(phi - phi.conj().transpose(0, 2, 1)).max(initial=0.0) > HERMITIAN_TOL * scale:
        raise ValueError(f"invalid PSD: {name} is not Hermitian within tolerance")


def load_noise_psd(phi_nn: np.ndarray) -> np.ndarray:
    """Diagonal loading Phi_NN + delta*(tr(Phi_NN)/C)*I, delta = 1e-6."""
    c = phi_nn.shape[-1]
    trace = np.trace(phi_nn, axis1=1, axis2=2).real
    eye = np.eye(c)
    return phi_nn + (DIAGONAL_LOADING * trace / c)[:, None, None] * eye


def normalized_psd_ratio_vjp(phi_ss: np.ndarray, phi_nn: np.ndarray):
    """normalized_psd_ratio plus its adjoint: (W, vjp), vjp(g_W) -> (g_phi_ss, g_phi_nn).

    The diagonal loading is treated as a constant shift in the adjoint: g_A
    passes to g_phi_nn unchanged, dropping the dependence of the loading on
    tr(Phi_NN). This is not negligible: the finite-difference check exceeds
    its 1e-4 tolerance on some inputs (`beamlab gradcheck --seed 17001`,
    `--seed 28000`) and passes with DIAGONAL_LOADING = 0 (ROADMAP item 1).
    """
    loaded = load_noise_psd(phi_nn)
    ratio = np.linalg.solve(loaded, phi_ss)
    trace = np.trace(ratio, axis1=1, axis2=2)
    out = np.zeros_like(ratio)
    nz = trace != 0
    out[nz] = ratio[nz] / trace[nz, None, None]

    def vjp(g_w: np.ndarray):
        # W = G / tr(G):  g_G = g_W / conj(tau) - conj(<g_W, G> / tau^2) * I.
        g_ratio = np.zeros_like(ratio)
        inner = np.einsum("fij,fij->f", g_w.conj(), ratio)
        diag_term = np.conj(inner / np.where(nz, trace, 1.0) ** 2)
        g_ratio[nz] = g_w[nz] / np.conj(trace[nz, None, None])
        idx = np.arange(ratio.shape[1])
        g_ratio[:, idx, idx] -= np.where(nz, diag_term, 0.0)[:, None]
        # G = A^-1 B with A = loaded noise PSD (Hermitian), B = speech PSD:
        #   g_B = A^-H g_G,   g_A = -g_B G^H.
        g_phi_ss = np.linalg.solve(loaded, g_ratio)
        return g_phi_ss, -g_phi_ss @ ratio.conj().transpose(0, 2, 1)

    return out, vjp


def normalized_psd_ratio(phi_ss: np.ndarray, phi_nn: np.ndarray) -> np.ndarray:
    """Trace-normalized G = Phi_NN_loaded^-1 Phi_SS per frequency.

    tr of every returned matrix is 1 except where tr(G) is exactly zero
    (Phi_SS identically zero), which yields a zero matrix.
    """
    return normalized_psd_ratio_vjp(phi_ss, phi_nn)[0]


def mvdr_weights(psd: PsdPair, ref: int) -> BeamWeights:
    """MVDR filter h(f) = (Phi_NN^-1 Phi_SS / tr{.}) u with diagonal loading."""
    if not 0 <= ref < psd.channels:
        raise ValueError("ref channel out of range")
    _check_hermitian(psd.phi_ss, "phi_ss")
    _check_hermitian(psd.phi_nn, "phi_nn")
    normalized = normalized_psd_ratio(psd.phi_ss, psd.phi_nn)
    return BeamWeights(h=normalized[:, :, ref], ref_channel=ref)


def apply_beamformer(weights: BeamWeights, spec: Spectrogram) -> Spectrogram:
    """Enhanced single-channel spectrogram x_hat(t,f) = h(f)^H x(t,f)."""
    if weights.h.shape[1] != spec.channels:
        raise ValueError("beam weight channel count does not match spectrogram")
    if weights.h.shape[0] != spec.freq_bins:
        raise ValueError("beam weight bin count does not match spectrogram")
    enhanced, _ = apply_beamformer_vjp(weights.h, spec.bins)
    return replace(spec, bins=enhanced[:, :, None])


def apply_beamformer_vjp(h: np.ndarray, bins: np.ndarray):
    """Raw-array core of apply_beamformer plus its adjoint: (x_hat [T,F], vjp(g_xhat) -> g_h).
    x_hat = h^H x is conjugate-linear in h, so g_h[f,c] = sum_t conj(g_xhat) x."""
    def vjp(g_xhat: np.ndarray) -> np.ndarray:
        return np.einsum("tf,tfc->fc", g_xhat.conj(), bins)

    return np.einsum("fc,tfc->tf", h.conj(), bins), vjp


def select_reference(phi_ss: np.ndarray) -> int:
    """Reference microphone: argmax over channels of mean diagonal signal power.

    Approximates principal-component selection; ties break to the lowest index.
    """
    phi_ss = np.asarray(phi_ss)
    if phi_ss.ndim != 3 or phi_ss.shape[0] < 1:
        raise ValueError("phi_ss must be [freq_bins, C, C] with >= 1 bin")
    power = np.einsum("fcc->c", phi_ss).real / phi_ss.shape[0]
    return int(np.argmax(power))
