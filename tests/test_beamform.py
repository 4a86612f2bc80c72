"""beamform tests: masks, PSD estimation, MVDR, reference selection, DAS."""

import numpy as np
import pytest

from beamlab import beamform
from beamlab.beamform import (
    BeamWeights,
    PsdPair,
    TFMask,
    apply_beamformer,
    apply_beamformer_vjp,
    delay_and_sum,
    estimate_psd,
    load_noise_psd,
    masked_psd,
    masked_psd_pair_vjp,
    mvdr_weights,
    normalized_psd_ratio,
    normalized_psd_ratio_vjp,
    oracle_masks,
    select_reference,
)
from beamlab.dsp import Spectrogram
from test_backend import max_fd_error


def _rng(seed=0):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _random_spec(rng, frames=20, window=16, channels=3):
    f = window // 2 + 1
    bins = rng.normal(size=(frames, f, channels)) + 1j * rng.normal(size=(frames, f, channels))
    return Spectrogram(bins=bins, sample_rate=16000, window_size=window, hop=window // 2)


def _random_bins(rng, frames, n_bins, channels, layout):
    """Complex bins [T, F, C]: C-contiguous, or a view of a [C, T, F] array,
    whose frequency blocks numpy cannot hand to BLAS without a copy."""
    shape = (frames, n_bins, channels) if layout == "tfc" else (channels, frames, n_bins)
    bins = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return bins if layout == "tfc" else bins.transpose(1, 2, 0)


# The 3-operand einsum kernels the batched matmuls replaced: the reference
# oracle for masked_psd and its adjoint.
def _einsum_psd(bins, mask):
    numer = np.einsum("tf,tfi,tfj->fij", mask, bins, bins.conj())
    return numer / np.maximum(mask.sum(axis=0), beamform.MASK_EPS)[:, None, None]


def _einsum_psd_vjp(bins, mask, g_phi):
    mask_sum = mask.sum(axis=0)
    quad = np.einsum("tfi,fij,tfj->tf", bins.conj(), g_phi, bins).real
    inner = np.einsum("fij,fij->f", g_phi.conj(), _einsum_psd(bins, mask)).real
    active = mask_sum > beamform.MASK_EPS
    return (quad - np.where(active, inner, 0.0)) / np.maximum(mask_sum, beamform.MASK_EPS)


def _assert_rel_close(actual, oracle, rtol=1e-12):
    np.testing.assert_allclose(actual, oracle, rtol=rtol, atol=rtol * np.abs(oracle).max())


def _random_psd(rng, f, c, scale=1.0):
    """Random Hermitian positive-definite stack via A A^H + I."""
    a = rng.normal(size=(f, c, c)) + 1j * rng.normal(size=(f, c, c))
    psd = scale * (a @ a.conj().transpose(0, 2, 1)) + np.eye(c)[None]
    return 0.5 * (psd + psd.conj().transpose(0, 2, 1))


class TestMasks:
    def test_oracle_masks_sum_to_one(self):
        rng = _rng(0)
        clean, noise = _random_spec(rng), _random_spec(rng)
        ms, mn = oracle_masks(clean, noise)
        np.testing.assert_allclose(ms.values + mn.values, 1.0, atol=1e-12)
        assert np.all(ms.values >= 0) and np.all(ms.values <= 1)
        assert ms.target == "speech" and mn.target == "noise"

    def test_oracle_masks_irm_formula(self):
        rng = _rng(1)
        clean, noise = _random_spec(rng), _random_spec(rng)
        ms, _ = oracle_masks(clean, noise)
        s = np.abs(clean.bins[:, :, 0]) ** 2
        n = np.abs(noise.bins[:, :, 0]) ** 2
        np.testing.assert_allclose(ms.values, s / (s + n + 1e-10), atol=1e-12)

    def test_mask_range_validated(self):
        with pytest.raises(ValueError):
            TFMask(values=np.full((3, 4), 1.5))


class TestPsd:
    def test_masked_psd_matches_loop_oracle(self):
        rng = _rng(2)
        spec = _random_spec(rng, frames=11, window=8, channels=2)
        mask = rng.uniform(size=(11, 5))
        phi = masked_psd(spec.bins, mask)
        for f in range(5):
            num = np.zeros((2, 2), complex)
            for t in range(11):
                x = spec.bins[t, f][:, None]
                num += mask[t, f] * (x @ x.conj().T)
            oracle = num / max(mask[:, f].sum(), 1e-10)
            np.testing.assert_allclose(phi[f], oracle, atol=1e-12)

    def test_masked_psd_hermitian(self):
        # Off-diagonals are conjugate pairs; the diagonal keeps an O(1e-17)
        # imaginary residue from the mask-times-bin intermediate rounding.
        rng = _rng(3)
        spec = _random_spec(rng, frames=30, window=32, channels=4)
        mask = rng.uniform(size=(30, 17))
        phi = masked_psd(spec.bins, mask)
        err = np.abs(phi - phi.conj().transpose(0, 2, 1)).max()
        assert err < 1e-15 * np.abs(phi).max()

    def test_zero_mask_column_gives_zero_matrix(self):
        rng = _rng(4)
        spec = _random_spec(rng, frames=6, window=8, channels=2)
        mask = np.ones((6, 5))
        mask[:, 2] = 0.0
        phi = masked_psd(spec.bins, mask)
        np.testing.assert_array_equal(phi[2], np.zeros((2, 2)))

    @pytest.mark.parametrize("layout", ["tfc", "ctf"])
    @pytest.mark.parametrize("frames,n_bins,channels", [(40, 257, 8), (9, 33, 3), (5, 7, 2)])
    def test_masked_psd_matches_einsum_oracle_across_blocks(self, layout, frames, n_bins,
                                                            channels):
        # 257 and 33 bins span several PSD_BLOCK_BINS blocks and end in a partial one.
        rng = _rng(7)
        bins = _random_bins(rng, frames, n_bins, channels, layout)
        mask = rng.uniform(size=(frames, n_bins))
        _assert_rel_close(masked_psd(bins, mask), _einsum_psd(bins, mask))

    @pytest.mark.parametrize("layout", ["tfc", "ctf"])
    def test_zero_mask_column_on_block_boundary(self, layout):
        rng = _rng(8)
        block = beamform.PSD_BLOCK_BINS
        bins = _random_bins(rng, 6, block + 1, 3, layout)
        mask = rng.uniform(size=(6, block + 1))
        mask[:, [block - 1, block]] = 0.0  # last bin of a full block, first of the next
        phi = masked_psd(bins, mask)
        np.testing.assert_array_equal(phi[block - 1:], np.zeros((2, 3, 3)))
        assert np.all(phi[:block - 1] != 0.0)

    def test_estimate_psd_validates_mask_shape(self):
        spec = _random_spec(_rng(0))
        with pytest.raises(ValueError):
            estimate_psd(spec, np.ones((3, 3)))

    def test_load_noise_psd_adds_relative_identity(self):
        rng = _rng(5)
        phi = _random_psd(rng, 4, 3)
        loaded = load_noise_psd(phi)
        for f in range(4):
            delta = 1e-6 * (np.trace(phi[f]).real / 3)
            np.testing.assert_allclose(
                loaded[f], phi[f] + delta * np.eye(3), atol=1e-15
            )

    def test_load_noise_psd_zero_trace_passthrough(self):
        phi = np.zeros((2, 3, 3), complex)
        np.testing.assert_array_equal(load_noise_psd(phi), phi)


class TestAdjoints:
    def test_masked_psd_pair_vjp_matches_finite_differences(self):
        rng = _rng(40)
        bins = _random_spec(rng, frames=8, window=16, channels=3).bins
        mask = rng.uniform(0.05, 0.95, size=bins.shape[:2])
        # Columns whose speech (1, 5) or noise (3, 7) mask sum is under the
        # MASK_EPS clamp run each PSD's inactive branch; the all-0 and all-1
        # columns give a zero PSD, the 5e-12 ones a nonzero one.
        clamped = {1: 0.0, 3: 1.0, 5: 5e-12, 7: 1.0 - 5e-12}
        for f, value in clamped.items():
            mask[:, f] = value
        g_ss = rng.normal(size=(9, 3, 3)) + 1j * rng.normal(size=(9, 3, 3))
        g_nn = rng.normal(size=(9, 3, 3)) + 1j * rng.normal(size=(9, 3, 3))

        def loss_fn():  # L = Re <g_ss, phi_ss> + Re <g_nn, phi_nn>
            phi_ss, phi_nn, _ = masked_psd_pair_vjp(bins, mask)
            return float(np.sum(g_ss.conj() * phi_ss).real + np.sum(g_nn.conj() * phi_nn).real)

        phi_ss, phi_nn, vjp = masked_psd_pair_vjp(bins, mask)
        np.testing.assert_array_equal(phi_ss, masked_psd(bins, mask))
        np.testing.assert_array_equal(phi_nn, masked_psd(bins, 1.0 - mask))
        g_mask = vjp(g_ss, g_nn)
        for f in range(mask.shape[1]):
            # A clamped sum is linear only while it stays under MASK_EPS; the
            # step is a power of two so that 1 - (m + eps) is exact.
            eps = 2.0 ** -36 if f in clamped else 1e-5
            col = slice(f, f + 1)
            assert max_fd_error(loss_fn, mask[:, col], g_mask[:, col], eps) < 1e-4, f

    @pytest.mark.parametrize("layout", ["tfc", "ctf"])
    @pytest.mark.parametrize("n_bins", [257, 33])
    def test_masked_psd_pair_vjp_matches_einsum_oracle(self, layout, n_bins):
        # Several PSD_BLOCK_BINS blocks, the last one partial.
        rng = _rng(42)
        bins = _random_bins(rng, 12, n_bins, 4, layout)
        mask = rng.uniform(size=(12, n_bins))
        mask[:, 31], mask[:, 32] = 0.0, 1.0  # an inactive speech and noise sum
        g_ss = rng.normal(size=(n_bins, 4, 4)) + 1j * rng.normal(size=(n_bins, 4, 4))
        g_nn = rng.normal(size=(n_bins, 4, 4)) + 1j * rng.normal(size=(n_bins, 4, 4))
        phi_ss, phi_nn, vjp = masked_psd_pair_vjp(bins, mask)
        _assert_rel_close(phi_ss, _einsum_psd(bins, mask))
        _assert_rel_close(phi_nn, _einsum_psd(bins, 1.0 - mask))
        oracle_ss = _einsum_psd_vjp(bins, mask, g_ss)
        oracle_nn = _einsum_psd_vjp(bins, 1.0 - mask, g_nn)
        # One quadratic form on g_ss/d_ss - g_nn/d_nn in place of two: the
        # tolerance is relative to the terms, which may cancel.
        scale = max(np.abs(oracle_ss).max(), np.abs(oracle_nn).max())
        np.testing.assert_allclose(vjp(g_ss, g_nn), oracle_ss - oracle_nn, rtol=1e-12,
                                   atol=1e-12 * scale)

    def test_normalized_psd_ratio_vjp_matches_finite_differences(self):
        rng = _rng(41)
        phi_ss = _random_psd(rng, 4, 3)
        phi_nn = _random_psd(rng, 4, 3)  # A A^H + I: well conditioned
        g_w = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))

        def loss_fn():  # L = Re <g_W, W>
            return float(np.sum(g_w.conj() * normalized_psd_ratio(phi_ss, phi_nn)).real)

        w, vjp = normalized_psd_ratio_vjp(phi_ss, phi_nn)
        np.testing.assert_array_equal(w, normalized_psd_ratio(phi_ss, phi_nn))
        g_phi_ss, g_phi_nn = vjp(g_w)
        assert max_fd_error(loss_fn, phi_ss, g_phi_ss) < 1e-4
        assert max_fd_error(loss_fn, phi_nn, g_phi_nn) < 1e-4


class TestMvdr:
    def test_trace_normalization(self):
        # tr of the normalized ratio matrix is 1 to near machine precision.
        rng = _rng(6)
        for c in (2, 4, 6):
            phi_ss = _random_psd(rng, 5, c)
            phi_nn = _random_psd(rng, 5, c)
            ratio = normalized_psd_ratio(phi_ss, phi_nn)
            traces = np.einsum("fcc->f", ratio)
            np.testing.assert_allclose(traces, 1.0, atol=1e-10)

    def test_distortionless_rank1_identity_noise(self):
        # Rank-1 speech + sigma^2 I noise: the MVDR output reproduces the
        # reference channel of the clean scene exactly.
        rng = _rng(7)
        frames, f, c = 15, 9, 4
        steer = rng.normal(size=(f, c)) + 1j * rng.normal(size=(f, c))
        src = rng.normal(size=(frames, f)) + 1j * rng.normal(size=(frames, f))
        bins = src[:, :, None] * steer[None, :, :]
        spec = Spectrogram(bins=bins, sample_rate=16000, window_size=16, hop=8)
        phi_ss = estimate_psd(spec, np.ones((frames, f)))
        phi_nn = np.tile(np.eye(c, dtype=complex) * 0.3, (f, 1, 1))
        for ref in (0, 2):
            w = mvdr_weights(PsdPair(phi_ss, phi_nn), ref)
            out = apply_beamformer(w, spec)
            err = np.max(np.abs(out.bins[:, :, 0] - bins[:, :, ref]))
            assert err < 1e-8, err

    def test_single_channel_weight_is_unity(self):
        # x/x through the LAPACK solve (reciprocal then multiply) can sit
        # one ulp off exact 1.
        rng = _rng(8)
        phi_ss = _random_psd(rng, 6, 1)
        phi_nn = _random_psd(rng, 6, 1)
        w = mvdr_weights(PsdPair(phi_ss, phi_nn), 0)
        np.testing.assert_allclose(w.h, np.ones((6, 1), complex), rtol=0, atol=1e-12)

    def test_ref_out_of_range(self):
        rng = _rng(9)
        pair = PsdPair(_random_psd(rng, 3, 2), _random_psd(rng, 3, 2))
        with pytest.raises(ValueError):
            mvdr_weights(pair, 2)

    def test_non_hermitian_rejected(self):
        rng = _rng(10)
        phi = _random_psd(rng, 3, 2)
        bad = phi.copy()
        bad[1, 0, 1] += 1.0
        with pytest.raises(ValueError, match="invalid PSD"):
            mvdr_weights(PsdPair(phi, bad), 0)

    def test_zero_ratio_trace_gives_zero_weights(self):
        phi_ss = np.zeros((2, 3, 3), complex)
        phi_nn = np.tile(np.eye(3, dtype=complex), (2, 1, 1))
        w = mvdr_weights(PsdPair(phi_ss, phi_nn), 0)
        np.testing.assert_array_equal(w.h, np.zeros((2, 3)))

    def test_weights_match_formula_oracle(self):
        # Dual route: per-frequency explicit inverse and trace division.
        rng = _rng(11)
        phi_ss = _random_psd(rng, 4, 3)
        phi_nn = _random_psd(rng, 4, 3)
        w = mvdr_weights(PsdPair(phi_ss, phi_nn), 1)
        for f in range(4):
            loading = 1e-6 * (np.trace(phi_nn[f]).real / 3) * np.eye(3)
            g = np.linalg.inv(phi_nn[f] + loading) @ phi_ss[f]
            oracle = (g / np.trace(g))[:, 1]
            np.testing.assert_allclose(w.h[f], oracle, atol=1e-10)


class TestApplyAndReference:
    def test_apply_beamformer_conjugates(self):
        # x_hat = h^H x, not h^T x.
        spec = Spectrogram(bins=np.zeros((2, 2, 2), complex), sample_rate=8000,
                           window_size=2, hop=1)
        spec.bins[0, 0, 0] = 2.0
        w = BeamWeights(h=np.array([[1j, 0.0], [1.0, 0.0]]), ref_channel=0)
        out = apply_beamformer(w, spec)
        assert out.bins[0, 0, 0] == np.conj(1j) * 2.0

    @pytest.mark.parametrize("channels", [1, 2, 4, 8])
    def test_apply_beamformer_vjp_dot_product(self, channels):
        # h -> h^H x is real-linear: <J v, u> = <v, J^H u> under Re <a, b>.
        rng = _rng(50 + channels)
        frames, n_bins = 11, 9
        bins = rng.normal(size=(frames, n_bins, channels)) + 1j * rng.normal(
            size=(frames, n_bins, channels))
        h, v = (rng.normal(size=(n_bins, channels)) + 1j * rng.normal(size=(n_bins, channels))
                for _ in range(2))
        u = rng.normal(size=(frames, n_bins)) + 1j * rng.normal(size=(frames, n_bins))
        xhat, vjp = apply_beamformer_vjp(h, bins)
        np.testing.assert_allclose(xhat, np.einsum("fc,tfc->tf", h.conj(), bins), rtol=1e-14)
        j_v, _ = apply_beamformer_vjp(v, bins)
        lhs = np.vdot(j_v, u).real
        rhs = np.vdot(v, vjp(u)).real
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_select_reference_prefers_loud_channel(self):
        phi = np.zeros((3, 2, 2), complex)
        phi[:, 0, 0] = 1.0
        phi[:, 1, 1] = 2.0
        assert select_reference(phi) == 1

    def test_select_reference_tie_breaks_low(self):
        phi = np.tile(np.eye(2, dtype=complex), (4, 1, 1))
        assert select_reference(phi) == 0

    def test_channel_mismatch_rejected(self):
        spec = _random_spec(_rng(0), channels=3)
        w = BeamWeights(h=np.ones((spec.freq_bins, 2), complex), ref_channel=0)
        with pytest.raises(ValueError):
            apply_beamformer(w, spec)


class TestDelayAndSum:
    def test_zero_delays_average_channels(self):
        rng = _rng(12)
        spec = _random_spec(rng, channels=3)
        out = delay_and_sum(spec, np.zeros(3))
        np.testing.assert_allclose(out.bins[:, :, 0], spec.bins.mean(axis=2), atol=1e-12)

    def test_integer_delay_aligns_tone(self):
        # Channel 1 lags channel 0 by 8 samples; compensating delays make DAS
        # output match channel 0 on a pure tone (steady-state frames).
        sr, win, hop, lag = 8000, 64, 32, 8
        n = 800
        t = np.arange(n + lag) / sr
        tone = np.sin(2 * np.pi * 500.0 * t)
        two = np.stack([tone[lag:], tone[:-lag]])
        from beamlab.dsp import Waveform, stft

        spec = stft(Waveform(samples=two, sample_rate=sr), win, hop)
        aligned = delay_and_sum(spec, np.array([0.0, -float(lag)]))
        ref = spec.bins[:, :, 0]
        # On-bin tone (bin 4 = 500/8000*64): a shifted sinusoid's windowed DFT
        # is an exact phase rotation, so interior frames align to roundoff.
        k = int(500.0 / sr * win)
        ratio = aligned.bins[3:-3, k, 0] / ref[3:-3, k]
        np.testing.assert_allclose(ratio, 1.0, atol=1e-6)

    def test_delay_count_checked(self):
        spec = _random_spec(_rng(0), channels=3)
        with pytest.raises(ValueError):
            delay_and_sum(spec, np.zeros(2))
