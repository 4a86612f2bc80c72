"""dsp tests: STFT/iSTFT, mel features, CMVN, deltas, subsampling, SpecAugment."""

import numpy as np
import pytest

from beamlab.dsp import (
    CMVN_VAR_FLOOR,
    AugPolicy,
    FeatureMatrix,
    Spectrogram,
    Waveform,
    add_deltas,
    cmvn,
    delta_features,
    delta_features_adjoint,
    fbank_chain_vjp,
    istft,
    log_fbank,
    mel_filterbank,
    periodic_hann,
    spec_augment,
    stft,
    subsample,
)
from test_backend import max_fd_error


def _rng(seed=0):
    return np.random.default_rng(np.random.SeedSequence(seed))


class TestContainers:
    def test_waveform_rejects_empty(self):
        with pytest.raises(ValueError):
            Waveform(samples=np.zeros((1, 0)), sample_rate=8000)

    def test_waveform_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Waveform(samples=np.array([[0.0, np.nan]]), sample_rate=8000)

    def test_waveform_1d_autoexpands(self):
        w = Waveform(samples=np.zeros(16), sample_rate=8000)
        assert w.samples.shape == (1, 16)
        assert w.channels == 1 and w.n_samples == 16

    def test_spectrogram_bin_count_checked(self):
        with pytest.raises(ValueError):
            Spectrogram(bins=np.zeros((3, 10), complex), sample_rate=8000,
                        window_size=16, hop=8)

    def test_feature_matrix_requires_2d(self):
        with pytest.raises(ValueError):
            FeatureMatrix(values=np.zeros(5))


class TestStft:
    def test_window_is_periodic_hann(self):
        # Periodic Hann: w[n] = 0.5 - 0.5 cos(2 pi n / N); w[0] == 0, no w == 1
        # at the end (unlike the symmetric variant).
        w = periodic_hann(8)
        expected = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(8) / 8)
        np.testing.assert_allclose(w, expected, rtol=0, atol=0)
        assert w[0] == 0.0

    def test_frame_count(self):
        wave = Waveform(samples=np.zeros((1, 1000)), sample_rate=8000)
        spec = stft(wave, 256, 128)
        assert spec.frames == (1000 - 256) // 128 + 1
        assert spec.freq_bins == 129

    def test_pure_tone_bin_frozen(self):
        # Frozen from an explicit-DFT oracle: 1 kHz sine, sr 8 kHz, window 256,
        # hop 128, frame 2, bin 32 (= 1000/8000*256).
        t = np.arange(1024) / 8000.0
        wave = Waveform(samples=np.sin(2 * np.pi * 1000.0 * t)[None, :], sample_rate=8000)
        spec = stft(wave, 256, 128)
        frozen = -1.7265642583176588e-12 - 63.99999999999995j
        assert abs(spec.bins[2, 32, 0] - frozen) < 1e-9

    def test_matches_naive_dft(self):
        # Dual route: windowed frames through an explicit O(N^2) DFT sum.
        rng = _rng(3)
        wave = Waveform(samples=rng.normal(size=(2, 400)), sample_rate=8000)
        spec = stft(wave, 64, 32)
        w = periodic_hann(64)
        for c in range(2):
            for t in range(spec.frames):
                frame = wave.samples[c, t * 32 : t * 32 + 64] * w
                for k in (0, 7, 32):
                    oracle = np.sum(frame * np.exp(-2j * np.pi * k * np.arange(64) / 64))
                    assert abs(spec.bins[t, k, c] - oracle) < 1e-10

    @pytest.mark.parametrize("channels", [1, 4, 8])
    @pytest.mark.parametrize("n_samples, window, hop", [
        (1000, 256, 128),  # 6 frames, 104 trailing samples dropped
        (1000, 64, 27),    # 35 frames, 18 trailing samples dropped
        (256, 256, 128),   # exactly one frame
        (300, 256, 256),   # one frame plus 44 dropped samples
        (517, 512, 1),     # hop 1: 6 frames
    ])
    def test_matches_gather_oracle_bit_for_bit(self, channels, n_samples, window, hop):
        # The fancy-index frame gather the strided view replaced.
        samples = _rng(channels).normal(size=(channels, n_samples))
        n_frames = (n_samples - window) // hop + 1
        starts = np.arange(n_frames) * hop
        frames = samples[:, starts[:, None] + np.arange(window)]
        oracle = np.fft.rfft(frames * periodic_hann(window), axis=2).transpose(1, 2, 0)
        spec = stft(Waveform(samples=samples, sample_rate=8000), window, hop)
        assert spec.bins.shape == oracle.shape == (n_frames, window // 2 + 1, channels)
        np.testing.assert_array_equal(spec.bins, oracle)

    def test_rejects_non_power_of_two(self):
        wave = Waveform(samples=np.zeros((1, 1000)), sample_rate=8000)
        with pytest.raises(ValueError, match="power of two"):
            stft(wave, 200, 100)

    def test_rejects_short_input(self):
        wave = Waveform(samples=np.zeros((1, 100)), sample_rate=8000)
        with pytest.raises(ValueError, match="too short"):
            stft(wave, 256, 128)

    def test_rejects_bad_hop(self):
        wave = Waveform(samples=np.zeros((1, 1000)), sample_rate=8000)
        with pytest.raises(ValueError):
            stft(wave, 256, 0)
        with pytest.raises(ValueError):
            stft(wave, 256, 512)


class TestIstft:
    def test_round_trip_interior(self):
        rng = _rng(7)
        x = rng.normal(size=16000)
        wave = Waveform(samples=x[None, :], sample_rate=16000)
        for win, hop in ((512, 128), (256, 128), (512, 256)):
            out = istft(stft(wave, win, hop)).samples[0]
            n = min(len(out), len(x))
            err = np.max(np.abs(out[win : n - win] - x[win : n - win]))
            assert err < 1e-10, (win, hop, err)

    def test_multichannel_rejected(self):
        wave = Waveform(samples=np.zeros((2, 1000)), sample_rate=8000)
        spec = stft(wave, 256, 128)
        with pytest.raises(ValueError, match="single-channel"):
            istft(spec)


class TestMelFbank:
    def test_filterbank_shape_and_support(self):
        fb = mel_filterbank(10, 129, 256, 8000)
        assert fb.shape == (10, 129)
        assert np.all(fb >= 0.0)
        # Triangles rise then fall; every filter has positive mass.
        assert np.all(fb.sum(axis=1) > 0.0)

    def test_filterbank_cached_read_only(self):
        first = mel_filterbank(10, 129, 256, 8000)
        again = mel_filterbank(10, 129, 256, 8000)
        np.testing.assert_array_equal(first, again)
        assert not first.flags.writeable and not again.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            again *= 2.0
        np.testing.assert_array_equal(mel_filterbank(10, 129, 256, 8000), first)

    def test_filter_peaks_increase(self):
        fb = mel_filterbank(8, 257, 512, 16000)
        peaks = fb.argmax(axis=1)
        assert np.all(np.diff(peaks) > 0)

    def test_log_fbank_matches_manual(self):
        rng = _rng(1)
        wave = Waveform(samples=rng.normal(size=1024), sample_rate=8000)
        spec = stft(wave, 256, 128)
        feat = log_fbank(spec, n_mels=6)
        power = np.abs(spec.bins[:, :, 0]) ** 2
        fb = mel_filterbank(6, 129, 256, 8000)
        oracle = np.log(power @ fb.T + 1e-10)
        np.testing.assert_allclose(feat.values, oracle, atol=1e-12)

    def test_log_floor_on_silence(self):
        wave = Waveform(samples=np.zeros((1, 1024)) + 1e-300, sample_rate=8000)
        feat = log_fbank(stft(wave, 256, 128), n_mels=4)
        np.testing.assert_allclose(feat.values, np.log(1e-10), atol=1e-9)

    def test_multichannel_rejected(self):
        wave = Waveform(samples=np.zeros((2, 1024)), sample_rate=8000)
        with pytest.raises(ValueError, match="single-channel"):
            log_fbank(stft(wave, 256, 128))


class TestCmvn:
    def test_zero_mean_unit_variance(self):
        rng = _rng(2)
        feat = FeatureMatrix(values=rng.normal(3.0, 2.5, size=(50, 8)))
        out = cmvn(feat)
        np.testing.assert_allclose(out.values.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.values.var(axis=0), 1.0, atol=1e-10)

    def test_constant_column_uses_floor(self):
        values = np.ones((10, 3))
        values[:, 1] = np.arange(10)
        out = cmvn(FeatureMatrix(values=values))
        # Constant dims map to exactly zero (0 / sqrt(floor)).
        np.testing.assert_allclose(out.values[:, 0], 0.0, atol=0)
        assert np.isfinite(out.values).all()
        assert CMVN_VAR_FLOOR == 1e-8

    def test_single_frame_rejected(self):
        with pytest.raises(ValueError, match="insufficient frames"):
            cmvn(FeatureMatrix(values=np.ones((1, 4))))


class TestDeltas:
    def test_delta_matches_stencil_oracle(self):
        rng = _rng(4)
        x = rng.normal(size=(12, 3))
        d = delta_features(x)
        # Independent oracle: explicit loop over the +-2 regression window
        # with replicated edges.
        pad = np.concatenate([x[:1], x[:1], x, x[-1:], x[-1:]], axis=0)
        for t in range(12):
            oracle = (
                1.0 * (pad[t + 3] - pad[t + 1]) + 2.0 * (pad[t + 4] - pad[t])
            ) / (2.0 * (1 + 4))
            np.testing.assert_allclose(d[t], oracle, atol=1e-14)

    def test_adjoint_is_exact_transpose(self):
        # <A x, y> == <x, A^T y> for the linear delta map.
        rng = _rng(5)
        x = rng.normal(size=(9, 4))
        y = rng.normal(size=(9, 4))
        lhs = np.sum(delta_features(x) * y)
        rhs = np.sum(x * delta_features_adjoint(y))
        assert abs(lhs - rhs) < 1e-12

    def test_add_deltas_dims(self):
        feat = FeatureMatrix(values=_rng(0).normal(size=(8, 5)))
        out = add_deltas(feat)
        assert out.values.shape == (8, 15)
        np.testing.assert_array_equal(out.values[:, :5], feat.values)

    def test_add_deltas_needs_five_frames(self):
        with pytest.raises(ValueError, match="insufficient frames"):
            add_deltas(FeatureMatrix(values=np.ones((4, 2))))


class TestFbankChain:
    def test_forward_equals_public_chain(self):
        rng = _rng(40)
        bins = rng.normal(size=(11, 9)) + 1j * rng.normal(size=(11, 9))
        spec = Spectrogram(bins=bins, sample_rate=16000, window_size=16, hop=8)
        filters = mel_filterbank(4, 9, 16, 16000)
        feats, _ = fbank_chain_vjp(bins, filters, 2)
        public = subsample(add_deltas(cmvn(log_fbank(spec, n_mels=4))), 2)
        np.testing.assert_array_equal(feats, public.values)

    def test_vjp_matches_finite_differences(self):
        rng = _rng(41)
        bins = rng.normal(size=(10, 9)) + 1j * rng.normal(size=(10, 9))
        filters = mel_filterbank(4, 9, 16, 16000)
        g_feats = rng.normal(size=(5, 12))  # L = sum(g_feats * feats)

        def loss_fn():
            return float(np.sum(fbank_chain_vjp(bins, filters, 2)[0] * g_feats))

        _, vjp = fbank_chain_vjp(bins, filters, 2)
        assert max_fd_error(loss_fn, bins, vjp(g_feats)) < 1e-4


class TestSubsample:
    def test_keeps_every_kth_frame(self):
        feat = FeatureMatrix(values=np.arange(20.0).reshape(10, 2))
        out = subsample(feat, 3)
        np.testing.assert_array_equal(out.values, feat.values[::3])
        assert out.frames == 4  # ceil(10/3)

    def test_factor_one_is_identity(self):
        feat = FeatureMatrix(values=_rng(0).normal(size=(7, 3)))
        np.testing.assert_array_equal(subsample(feat, 1).values, feat.values)

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            subsample(FeatureMatrix(values=np.ones((4, 2))), 0)


class TestSpecAugment:
    def test_masks_zero_bands(self):
        feat = FeatureMatrix(values=np.ones((20, 10)))
        policy = AugPolicy(n_freq_masks=1, freq_width=3, n_time_masks=1, time_width=4)
        out = spec_augment(feat, policy, _rng(0))
        zero_cols = np.where(np.all(out.values == 0.0, axis=0))[0]
        zero_rows = np.where(np.all(out.values == 0.0, axis=1))[0]
        assert len(zero_cols) == 3 and np.all(np.diff(zero_cols) == 1)
        assert len(zero_rows) == 4 and np.all(np.diff(zero_rows) == 1)

    def test_empty_policy_is_identity(self):
        feat = FeatureMatrix(values=_rng(1).normal(size=(6, 4)))
        out = spec_augment(feat, AugPolicy(), _rng(0))
        np.testing.assert_array_equal(out.values, feat.values)

    def test_deterministic_given_rng(self):
        feat = FeatureMatrix(values=np.ones((30, 12)))
        policy = AugPolicy(n_freq_masks=2, freq_width=2, n_time_masks=2, time_width=3)
        a = spec_augment(feat, policy, _rng(9)).values
        b = spec_augment(feat, policy, _rng(9)).values
        np.testing.assert_array_equal(a, b)

    def test_oversized_mask_rejected(self):
        feat = FeatureMatrix(values=np.ones((5, 4)))
        with pytest.raises(ValueError):
            spec_augment(feat, AugPolicy(n_freq_masks=1, freq_width=4), _rng(0))
