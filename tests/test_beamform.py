"""beamform tests: masks, PSD estimation, MVDR, reference selection, DAS."""

import numpy as np
import pytest

from beamlab import beamform
from beamlab.beamform import (
    BeamWeights,
    PsdPair,
    TFMask,
    apply_beamformer,
    delay_and_sum,
    estimate_psd,
    load_noise_psd,
    masked_psd,
    masked_psd_vjp,
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
    def test_masked_psd_vjp_matches_finite_differences(self):
        rng = _rng(40)
        bins = _random_spec(rng, frames=8, window=8, channels=3).bins
        mask = rng.uniform(0.05, 0.95, size=bins.shape[:2])
        g_phi = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))

        def loss_fn():  # L = Re <g_phi, phi>
            return float(np.sum(g_phi.conj() * masked_psd(bins, mask)).real)

        phi, vjp = masked_psd_vjp(bins, mask)
        np.testing.assert_array_equal(phi, masked_psd(bins, mask))
        assert max_fd_error(loss_fn, mask, vjp(g_phi)) < 1e-4

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
