"""Mask-based MVDR beamformer.

The MVDR weights follow the masked-statistics formulation: per-frequency
speech/noise cross-channel PSD sums Phi_SS = sum_t m x x^H and Phi_NN =
sum_t (1 - m) x x^H of a speech mask m, filter
    h(f) = (Phi_NN^-1(f) Phi_SS(f) / tr{Phi_NN^-1(f) Phi_SS(f)}) u
with u one-hot at the reference microphone, applied as x_hat = h^H x.
`mvdr_weights` is that chain, mask to filter, for both `enhance` and the
joint training path. W = G / tr G, G = (Phi_NN + (delta/C) tr{Phi_NN} I)^-1 Phi_SS,
is unchanged by any positive per-bin scale of Phi_SS or Phi_NN, the loading included,
so the sums need no division by sum_t m: it would cancel in W, and its adjoint term
Re <g, Phi> / d is zero (Euler, degree 0); only the reference selection sees the scale.

The `*_vjp` functions return their forward's output and its adjoint
(vector-Jacobian product) under the Wirtinger convention of `pipeline`.
"""

import numpy as np

from .dsp import STFT_BLOCK_SAMPLES, _in_two

MASK_EPS = 1e-10
# Relative diagonal loading applied to Phi_NN before inversion.
DIAGONAL_LOADING = 1e-6
# Frequency bins per batched matmul in the PSD kernels; bounds their temporaries.
PSD_BLOCK_BINS = 32


def oracle_masks(clean: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Ideal ratio speech mask from known clean/noise bins [T, F] of one channel:
    m_s = |S|^2 / (|S|^2 + |N|^2 + eps); the noise mask is 1 - m_s."""
    if clean.shape != noise.shape:
        raise ValueError("clean and noise spectrogram shapes must match")
    s_pow = np.abs(clean) ** 2
    n_pow = np.abs(noise) ** 2
    return s_pow / (s_pow + n_pow + MASK_EPS)


def masked_psd(bins: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mask-weighted spatial covariance sum, bins [T,F,C], mask [T,F] -> [F,C,C]:
    Phi(f) = sum_t m x x^H = X^T (m conj X), not divided by sum_t m, in the bins'
    dtype; one batched matmul per block of bins, Hermitian by construction. Bins
    of at least STFT_BLOCK_SAMPLES entries (a 16 kHz array scene, never a toy
    utterance) are summed in two halves of frequencies, one per CPU
    (dsp._in_two), in blocks of half the size; every bin's matmul is unchanged,
    and so is the result."""
    frames, n_bins, channels = bins.shape
    phi = np.empty((n_bins, channels, channels), dtype=bins.dtype)
    if bins.size < STFT_BLOCK_SAMPLES:
        scratch = np.empty((frames, PSD_BLOCK_BINS, channels), dtype=bins.dtype)
        _masked_psd_blocks(phi, bins, mask, scratch)
        return phi
    half = (n_bins + 1) // 2
    scratch = np.empty((2, frames, PSD_BLOCK_BINS // 2, channels), dtype=bins.dtype)
    _in_two(lambda: _masked_psd_blocks(phi[:half], bins[:, :half], mask[:, :half], scratch[0]),
            lambda: _masked_psd_blocks(phi[half:], bins[:, half:], mask[:, half:], scratch[1]))
    return phi


def _masked_psd_blocks(phi: np.ndarray, bins: np.ndarray, mask: np.ndarray,
                       scratch: np.ndarray) -> None:
    """phi[f] = sum_t m x x^H into phi [F,C,C], scratch.shape[1] bins at a time;
    scratch [T, block, C], laid out like the bins, holds each block's m conj X."""
    step = scratch.shape[1]
    for f0 in range(0, bins.shape[1], step):
        block = slice(f0, f0 + step)
        x = bins[:, block].transpose(1, 0, 2)  # [f, T, C] view
        weighted = np.conjugate(x, out=scratch[:, : x.shape[0]].transpose(1, 0, 2))
        weighted *= mask[:, block].T[:, :, None]
        np.matmul(np.swapaxes(x, 1, 2), weighted, out=phi[block])


def masked_psd_pair_vjp(bins: np.ndarray, mask: np.ndarray):
    """Masked sums of m, 1 - m and their adjoint: (phi_ss, phi_nn, vjp(g_ss, g_nn) -> g_mask).
    Both sums are linear in m, so g_m(t, f) = Re x^H (g_ss - g_nn) x: one quadratic form."""
    phi_ss, phi_nn = masked_psd(bins, mask), masked_psd(bins, 1.0 - mask)

    def vjp(g_ss: np.ndarray, g_nn: np.ndarray) -> np.ndarray:
        g_diff = g_ss - g_nn
        quad = np.empty(mask.shape)
        for f0 in range(0, bins.shape[1], PSD_BLOCK_BINS):
            block = slice(f0, f0 + PSD_BLOCK_BINS)
            gx = bins[:, block].transpose(1, 0, 2) @ np.swapaxes(g_diff[block], 1, 2)  # [f, T, C]
            quad[:, block] = np.einsum("tfk,ftk->tf", bins[:, block].conj(), gx).real
        return quad

    return phi_ss, phi_nn, vjp


def load_noise_psd(phi_nn: np.ndarray) -> np.ndarray:
    """Diagonal loading Phi_NN + delta*(tr(Phi_NN)/C)*I, delta = 1e-6."""
    c = phi_nn.shape[-1]
    trace = np.trace(phi_nn, axis1=1, axis2=2).real
    return phi_nn + (DIAGONAL_LOADING * trace / c)[:, None, None] * np.eye(c)


def normalized_psd_ratio_vjp(phi_ss: np.ndarray, phi_nn: np.ndarray):
    """Trace-normalized W = G / tr(G), G = Phi_NN_loaded^-1 Phi_SS per frequency,
    plus its adjoint: (W, vjp), vjp(g_W) -> (g_phi_ss, g_phi_nn). Where tr(G)
    is exactly zero (Phi_SS identically zero), W is a zero matrix.

    The adjoint is exact, the diagonal loading included: the loading
    s = (delta/C) Re tr(Phi_NN) depends on Phi_NN, so g_phi_nn is g_A plus
    (delta/C) Re tr(g_A) on its diagonal, with g_A the adjoint of the loaded
    matrix A = Phi_NN + s I.
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
        # A = Phi_NN + s I with s = (delta/C) Re tr(Phi_NN), so the loading adds
        #   g_Phi_NN = g_A + (delta/C) Re tr(g_A) I,  through a strided [F, C] diagonal view.
        g_phi_ss = np.linalg.solve(loaded, g_ratio)
        g_phi_nn = -g_phi_ss @ ratio.conj().transpose(0, 2, 1)
        c = g_phi_nn.shape[-1]
        diagonals = g_phi_nn.reshape(len(g_phi_nn), -1)[:, :: c + 1]
        diagonals += (DIAGONAL_LOADING * np.trace(g_phi_nn, axis1=1, axis2=2).real / c)[:, None]
        return g_phi_ss, g_phi_nn

    return out, vjp


def mvdr_weights(bins: np.ndarray, mask: np.ndarray, ref: int | None):
    """MVDR filter from a speech mask: (h [F, C] complex128, ref, vjp(g_h) -> g_mask).

    Masked speech and noise sums, loaded ratio normalized to unit trace, column
    `ref`. ref None selects it from the speech sum over max(sum_t m, MASK_EPS),
    a constant of the adjoint (the argmax is not differentiated). complex64 bins
    give complex64 sums; the loading, the solve and the reference selection run
    on them upcast to complex128.
    """
    phi_ss, phi_nn, psd_vjp = masked_psd_pair_vjp(bins, mask)
    phi_ss, phi_nn = (phi.astype(np.complex128, copy=False) for phi in (phi_ss, phi_nn))
    weights, ratio_vjp = normalized_psd_ratio_vjp(phi_ss, phi_nn)
    speech_sum = np.maximum(mask.sum(axis=0, dtype=np.float64), MASK_EPS)[:, None, None]
    ref = select_reference(phi_ss / speech_sum) if ref is None else ref
    if not 0 <= ref < bins.shape[2]:
        raise ValueError("ref channel out of range")

    def vjp(g_h: np.ndarray) -> np.ndarray:
        # h = W[:, :, ref], so g_h lands in the ref column of g_W.
        g_weights = np.zeros_like(weights)
        g_weights[:, :, ref] = g_h
        return psd_vjp(*ratio_vjp(g_weights))

    return weights[:, :, ref], ref, vjp


def apply_beamformer(h: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Enhanced single channel x_hat(t,f) = h(f)^H x(t,f): h [F,C], bins [T,F,C] -> [T,F],
    in the bins' dtype (h is cast to it, so complex64 bins are never copied to complex128)."""
    return np.einsum("fc,tfc->tf", h.astype(bins.dtype, copy=False).conj(), bins)


def apply_beamformer_vjp(h: np.ndarray, bins: np.ndarray):
    """apply_beamformer plus its adjoint: (x_hat [T,F], vjp(g_xhat) -> g_h).
    x_hat = h^H x is conjugate-linear in h, so g_h[f,c] = sum_t conj(g_xhat) x."""
    def vjp(g_xhat: np.ndarray) -> np.ndarray:
        return np.einsum("tf,tfc->fc", g_xhat.conj(), bins)

    return apply_beamformer(h, bins), vjp


def select_reference(phi_ss: np.ndarray) -> int:
    """Reference microphone: argmax over channels of mean diagonal signal power.

    Approximates principal-component selection; ties break to the lowest index.
    """
    if phi_ss.ndim != 3 or phi_ss.shape[0] < 1:
        raise ValueError("phi_ss must be [freq_bins, C, C] with >= 1 bin")
    power = np.einsum("fcc->c", phi_ss).real / phi_ss.shape[0]
    return int(np.argmax(power))
