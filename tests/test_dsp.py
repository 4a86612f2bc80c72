"""dsp tests: STFT/iSTFT, the mel filterbank, deltas, and the feature chain
(`fbank_chain_vjp`: log mel, CMVN, deltas, subsampling) against a reference
written from its formulas."""

import ctypes
import os
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from beamlab import dsp
from beamlab.beamform import apply_beamformer, mvdr_weights, oracle_masks
from beamlab.dsp import (
    CMVN_VAR_FLOOR,
    ISTFT_ENVELOPE_FLOOR,
    STFT_BLOCK_SAMPLES,
    Spectrogram,
    Waveform,
    _in_two,
    delta_features,
    delta_features_adjoint,
    fbank_chain_vjp,
    istft,
    mel_filterbank,
    periodic_hann,
    stft,
)
from beamlab.pipeline import max_fd_error
from adjoint_checks import dot_product_sides


def _rng(seed=0):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _random_bins(seed, n_frames, n_bins=9):
    rng = _rng(seed)
    return rng.normal(size=(n_frames, n_bins)) + 1j * rng.normal(size=(n_frames, n_bins))


def _reference_features(bins, filters, factor):
    """The feature chain from its formulas: log(|X|^2 mel^T + 1e-10); per-dim
    mean and population variance, floored at 1e-8; the +-2 regression delta
    with replicated edges as a loop, applied twice; every factor-th frame."""
    logmel = np.log(np.abs(bins) ** 2 @ filters.T + 1e-10)
    mean = logmel.mean(axis=0)
    var = ((logmel - mean) ** 2).mean(axis=0)
    normed = (logmel - mean) / np.sqrt(np.maximum(var, 1e-8))

    def delta(x):
        last = x.shape[0] - 1
        out = np.zeros_like(x)
        for t in range(last + 1):
            for k in (1, 2):
                out[t] += k * (x[min(t + k, last)] - x[max(t - k, 0)])
        return out / (2.0 * (1 ** 2 + 2 ** 2))

    d1 = delta(normed)
    return np.concatenate([normed, d1, delta(d1)], axis=1)[::factor]


class TestContainers:
    def test_waveform_rejects_empty(self):
        with pytest.raises(ValueError):
            Waveform(samples=np.zeros((1, 0)), sample_rate=8000)

    def test_waveform_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Waveform(samples=np.array([[0.0, np.nan]]), sample_rate=8000)

    def test_waveform_rejects_1d_and_zero_channels(self):
        # Before: 1-D samples became one channel, and a [0, n] array was
        # accepted, on which write_wav raised ZeroDivisionError.
        for shape in ((16,), (0, 16)):
            with pytest.raises(ValueError, match=r"\[channels >= 1, n_samples\]"):
                Waveform(samples=np.zeros(shape), sample_rate=8000)

    def test_spectrogram_rejects_zero_channels(self):
        with pytest.raises(ValueError, match="channels >= 1"):
            Spectrogram(bins=np.zeros((3, 9, 0), complex), sample_rate=8000,
                        window_size=16, hop=8)

    def test_double_and_single_precision_kept_without_a_copy(self):
        # enhance's float32 samples and complex64 bins stay single precision, and
        # float64 or complex128 arrays are used as they are, never copied.
        for samples in (np.ones((2, 8)), np.ones((2, 8), np.float32)):
            wave = Waveform(samples=samples, sample_rate=8000)
            assert wave.samples.dtype == samples.dtype and np.shares_memory(wave.samples, samples)
        for bins in (np.ones((3, 9, 2), np.complex128), np.ones((3, 9, 2), np.complex64)):
            spec = Spectrogram(bins=bins, sample_rate=8000, window_size=16, hop=8)
            assert spec.bins.dtype == bins.dtype and np.shares_memory(spec.bins, bins)
        # Every other input becomes double precision, as before.
        for samples in ([[1, 2]], np.ones((1, 2), np.int16), np.ones((1, 2), np.float16)):
            assert Waveform(samples=samples, sample_rate=8000).samples.dtype == np.float64
        for bins in (np.ones((1, 9)), np.ones((1, 9), np.float32)):
            spec = Spectrogram(bins=bins, sample_rate=8000, window_size=16, hop=8)
            assert spec.bins.dtype == np.complex128

    def test_spectrogram_bin_count_checked(self):
        with pytest.raises(ValueError):
            Spectrogram(bins=np.zeros((3, 10), complex), sample_rate=8000,
                        window_size=16, hop=8)


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

    @pytest.mark.parametrize("channels", [1, 2, 4, 8])
    @pytest.mark.parametrize("hop", [512, 128, 96])
    # One call holds 128 / channels frames of 512: each count on either side of it.
    @pytest.mark.parametrize("n_frames", [1, 16, 17, 32, 33, 64, 65, 128, 129, 300])
    def test_blocks_match_whole_array_formula(self, channels, hop, n_frames):
        assert STFT_BLOCK_SAMPLES // 512 == 128
        n_samples = (n_frames - 1) * hop + 512 + hop // 2  # trailing samples dropped
        rng = _rng(n_frames)
        # Row-major channels, and the interleaved [samples, C].T view read_wav returns.
        for samples in (rng.normal(size=(channels, n_samples)),
                        rng.normal(size=(n_samples, channels)).T):
            # The whole-array formula stft used before its block loop.
            frames = np.lib.stride_tricks.sliding_window_view(samples, 512, axis=1)[:, ::hop]
            oracle = np.fft.rfft(frames * periodic_hann(512), axis=2).transpose(1, 2, 0)
            spec = stft(Waveform(samples=samples, sample_rate=16000), 512, hop)
            assert spec.bins.shape == (n_frames, 257, channels)
            assert np.array_equal(spec.bins, oracle)
            # The memory order too: [T, F, C] with channels innermost for
            # either sample order.
            assert spec.bins.flags.c_contiguous

    def test_rfft_calls_per_block(self, monkeypatch):
        # A toy utterance is one call; a longer one is two halves of frames, each
        # in blocks of half the size (8 frames of 8 x 512): 17 frames are 9 + 8,
        # 559 are 280 + 279. The counts hold on one CPU or two.
        calls, rfft = [], np.fft.rfft

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counted)
        for (channels, window, n_frames), expected in (((4, 256, 60), 1), ((8, 512, 16), 1),
                                                       ((8, 512, 17), 3), ((8, 512, 559), 70)):
            calls.clear()
            n_samples = (n_frames - 1) * 128 + window
            stft(Waveform(samples=np.ones((channels, n_samples)), sample_rate=16000), window, 128)
            assert len(calls) == expected, (channels, window, n_frames)
            assert sum(shape[1] for shape in calls) == n_frames

    def test_peak_is_output_plus_one_block(self):
        # 8 channels, 16 kHz, 4.5 s, interleaved as read_wav gives them: a
        # [C, T, window] copy of the frames would add 17.5 MiB. The blocks add
        # one block of windowed samples, numpy's ufunc buffers for the window
        # product, Spectrogram's finiteness check (one bool per bin) and
        # 16 KiB for the window and Python objects.
        wave = Waveform(samples=_rng(4).normal(size=(72000, 8)).T, sample_rate=16000)
        stft(wave, 512, 128)  # the FFT plan cache stays out of the measurement
        tracemalloc.start()
        try:
            spec = stft(wave, 512, 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = STFT_BLOCK_SAMPLES * 8
        extras = 2 * np.getbufsize() * 8 + spec.bins.size + 16 * 1024
        assert peak <= spec.bins.nbytes + block + extras, (peak - spec.bins.nbytes) / 1024

    @pytest.mark.parametrize("n_samples", [4000, 72000])  # one block; two halves
    def test_float32_gives_complex64_close_to_float64(self, n_samples):
        samples = _rng(6).normal(size=(8, n_samples))
        double = stft(Waveform(samples=samples, sample_rate=16000), 512, 128).bins
        single = stft(Waveform(samples=samples.astype(np.float32), sample_rate=16000),
                      512, 128).bins
        assert single.dtype == np.complex64 and single.flags.c_contiguous
        assert np.abs(single - double).max() <= 1e-5 * np.abs(double).max()

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


class TestInTwo:
    """dsp._in_two, which runs stft's and masked_psd's halves on two CPUs."""

    def test_results_come_back_in_order(self):
        assert _in_two(lambda: "first", lambda: "second") == ("first", "second")

    @pytest.mark.parametrize("raiser", ["first", "second"])
    def test_exception_reraised_after_the_join(self, raiser):
        # The side that does not raise sleeps, so a raise before the join would
        # come before its side effect and leave its thread running.
        done, threads = [], threading.active_count()

        def side(name):
            def call():
                if name == raiser:
                    raise KeyError(name)
                time.sleep(0.05)
                done.append(name)
            return call

        with pytest.raises(KeyError, match=raiser):
            _in_two(side("first"), side("second"))
        assert threading.active_count() == threads
        # In order on one CPU: a raising first never lets second start.
        if raiser == "second" or len(os.sched_getaffinity(0)) > 1:
            assert done == [{"first": "second", "second": "first"}[raiser]]

    def test_first_exception_wins(self):
        def fail(exc):
            def call():
                raise exc
            return call

        with pytest.raises(KeyError):
            _in_two(fail(KeyError("first")), fail(ValueError("second")))

    def test_one_cpu_runs_both_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert dsp._other_cpus() == set()
        assert _in_two(threading.get_ident, threading.get_ident) == (threading.get_ident(),) * 2

    def test_worker_runs_off_the_callers_cpu(self):
        # The kernel may not balance load, so the thread must not share our CPU.
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs two usable CPUs")
        getcpu = ctypes.CDLL(None).sched_getcpu
        (theirs, their_cpus, their_id), (mine, my_id) = _in_two(
            lambda: (getcpu(), os.sched_getaffinity(0), threading.get_ident()),
            lambda: (getcpu(), threading.get_ident()))
        assert their_id != my_id
        assert theirs != mine and theirs in their_cpus and mine not in their_cpus
        assert their_cpus == os.sched_getaffinity(0) - {mine}

    def test_stft_split_equals_one_cpu(self, monkeypatch):
        # 8 x 512 frames: 559 frames are 35 blocks, so the input is split; in
        # float64 and in enhance's float32.
        samples = _rng(5).normal(size=(8, 72000))
        waves = [Waveform(samples=samples.astype(dtype), sample_rate=16000)
                 for dtype in (np.float64, np.float32)]
        split = [stft(wave, 512, 128).bins for wave in waves]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        for wave, bins in zip(waves, split):
            assert np.array_equal(bins, stft(wave, 512, 128).bins)


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

    def test_complex64_bins_give_float32_samples(self):
        x = _rng(8).normal(size=(1, 16000))
        double = istft(stft(Waveform(samples=x, sample_rate=16000), 512, 128)).samples
        single = istft(stft(Waveform(samples=x.astype(np.float32), sample_rate=16000),
                            512, 128)).samples
        assert single.dtype == np.float32
        assert np.abs(single - double).max() <= 1e-5 * np.abs(double).max()

    @pytest.mark.parametrize("seed", range(3))
    def test_beamformed_edges_stay_below_interior_peak(self, seed):
        # A beamformed spectrogram is not the STFT of any signal, so near the ends,
        # where the window envelope falls to w(1)^2 = 1.4e-9, dividing by it made
        # full-scale clicks: before the envelope floor the first and last hop
        # samples of these scenes were 370 to 770 times the interior peak.
        rng = _rng(seed)
        n, hop = 16000, 128
        source = rng.normal(size=n) * np.repeat(rng.uniform(size=n // 400), 400)
        clean = 0.1 * np.stack([np.roll(source, d) for d in rng.integers(0, 8, size=4)])
        noisy = stft(Waveform(samples=clean + 0.05 * rng.normal(size=clean.shape),
                              sample_rate=16000), 512, hop)
        speech = stft(Waveform(samples=clean[:1], sample_rate=16000), 512, hop).bins[:, :, 0]
        mask = oracle_masks(speech, noisy.bins[:, :, 0] - speech)
        h, _, _ = mvdr_weights(noisy.bins, mask, None)
        out = istft(replace(noisy, bins=apply_beamformer(h, noisy.bins))).samples[0]
        interior = np.abs(out[hop:-hop]).max()
        assert max(np.abs(out[:hop]).max(), np.abs(out[-hop:]).max()) < 1.25 * interior

    def test_multichannel_rejected(self):
        wave = Waveform(samples=np.zeros((2, 1000)), sample_rate=8000)
        spec = stft(wave, 256, 128)
        with pytest.raises(ValueError, match="single-channel"):
            istft(spec)

    @pytest.mark.parametrize("n_frames", [3, 64, 129, 300])
    def test_overlap_add_matches_frame_loop(self, n_frames):
        # Every hop: equal to the window (no overlap), dividing it, and not (96).
        rng = _rng(n_frames)
        window = periodic_hann(512)
        for hop in (512, 256, 128, 96, 1):
            bins = rng.normal(size=(n_frames, 257)) + 1j * rng.normal(size=(n_frames, 257))
            spec = Spectrogram(bins=bins, sample_rate=16000, window_size=512, hop=hop)
            # The per-frame loop istft used before the vectorized overlap-add.
            frames = np.fft.irfft(bins, n=512, axis=1)
            out_len = (n_frames - 1) * hop + 512
            oracle, envelope = np.zeros(out_len), np.zeros(out_len)
            for t in range(n_frames):
                oracle[t * hop : t * hop + 512] += frames[t] * window
                envelope[t * hop : t * hop + 512] += window * window
            covered = envelope >= ISTFT_ENVELOPE_FLOOR * envelope.max()
            oracle[covered] /= envelope[covered]
            oracle[~covered] = 0.0
            assert np.array_equal(istft(spec).samples[0], oracle), hop


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

    @pytest.mark.parametrize("n_mels, window, sample_rate", [(4, 16, 16000), (40, 512, 16000),
                                                             (10, 256, 8000)])
    def test_mel_matmul_dot_product(self, n_mels, window, sample_rate):
        # fbank_chain_vjp's mel stage, energies = power @ filters.T, and the
        # matmul its vjp applies, g_power = g_energies @ filters.
        filters = mel_filterbank(n_mels, window // 2 + 1, window, sample_rate)
        rng = _rng(n_mels)
        v = rng.normal(size=(20, window // 2 + 1))
        u = rng.normal(size=(20, n_mels))
        lhs, rhs = dot_product_sides(lambda p: p @ filters.T, lambda g: g @ filters, v, u)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_log_fbank_matches_manual(self):
        # The chain's first M columns at factor 1 are the normalized log mel
        # energies of the power spectrum.
        rng = _rng(1)
        wave = Waveform(samples=rng.normal(size=(1, 1024)), sample_rate=8000)
        bins = stft(wave, 256, 128).bins[:, :, 0]
        fb = mel_filterbank(6, 129, 256, 8000)
        feats, _ = fbank_chain_vjp(bins, fb, 1)
        logmel = np.log(np.abs(bins) ** 2 @ fb.T + 1e-10)
        oracle = (logmel - logmel.mean(axis=0)) / logmel.std(axis=0)
        np.testing.assert_allclose(feats[:, :6], oracle, atol=1e-12)

    def test_log_floor_on_silence(self):
        # Silence underflows every mel energy to 0: the log floor keeps the
        # features and the adjoint finite, and CMVN maps each constant column
        # to about 0.
        wave = Waveform(samples=np.zeros((1, 1024)) + 1e-300, sample_rate=8000)
        bins = stft(wave, 256, 128).bins[:, :, 0]
        feats, vjp = fbank_chain_vjp(bins, mel_filterbank(4, 129, 256, 8000), 1)
        np.testing.assert_allclose(feats, 0.0, atol=1e-9)
        assert np.isfinite(vjp(np.ones_like(feats))).all()


class TestCmvn:
    def test_zero_mean_unit_variance(self):
        bins = _random_bins(2, 50, n_bins=33) * 2.5
        feats, _ = fbank_chain_vjp(bins, mel_filterbank(8, 33, 64, 8000), 1)
        np.testing.assert_allclose(feats[:, :8].mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(feats[:, :8].var(axis=0), 1.0, atol=1e-10)

    def test_constant_column_uses_floor(self):
        # Mel filter 0's bins at 1e-200 amplitude: its energy underflows to 0,
        # so its log is the constant log(1e-10), which CMVN maps to about 0
        # (0 / sqrt(floor)) while the other columns still vary.
        filters = mel_filterbank(4, 9, 16, 16000)
        bins = _random_bins(3, 12)
        bins[:, filters[0] > 0] = 1e-200
        feats, vjp = fbank_chain_vjp(bins, filters, 1)
        assert np.isfinite(feats).all() and np.isfinite(vjp(np.ones_like(feats))).all()
        np.testing.assert_allclose(feats[:, [0, 4, 8]], 0.0, atol=1e-9)
        np.testing.assert_allclose(feats[:, 1:4].var(axis=0), 1.0, atol=1e-10)
        assert CMVN_VAR_FLOOR == 1e-8

    def test_single_frame_rejected(self):
        filters = mel_filterbank(4, 9, 16, 16000)
        with pytest.raises(ValueError, match="insufficient frames"):
            fbank_chain_vjp(_random_bins(4, 1), filters, 1)


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
        lhs, rhs = dot_product_sides(delta_features, delta_features_adjoint, x, y)
        assert abs(lhs - rhs) < 1e-12

    def test_add_deltas_dims(self):
        # Features, deltas, delta-deltas: 3 x n_mels columns.
        feats, _ = fbank_chain_vjp(_random_bins(0, 8), mel_filterbank(5, 9, 16, 16000), 1)
        assert feats.shape == (8, 15)
        np.testing.assert_array_equal(feats[:, 5:10], delta_features(feats[:, :5]))
        np.testing.assert_array_equal(feats[:, 10:], delta_features(feats[:, 5:10]))

    def test_add_deltas_needs_five_frames(self):
        filters = mel_filterbank(4, 9, 16, 16000)
        with pytest.raises(ValueError, match="insufficient frames"):
            fbank_chain_vjp(_random_bins(5, 4), filters, 1)
        fbank_chain_vjp(_random_bins(5, 5), filters, 1)


class TestFbankChain:
    @pytest.mark.parametrize("factor", [1, 2, 3])
    @pytest.mark.parametrize("n_frames", [5, 11, 24])
    def test_forward_matches_formula_reference(self, factor, n_frames):
        bins = _random_bins(40 + n_frames, n_frames)
        filters = mel_filterbank(4, 9, 16, 16000)
        feats, _ = fbank_chain_vjp(bins, filters, factor)
        assert feats.shape == (-(-n_frames // factor), 12)
        np.testing.assert_allclose(feats, _reference_features(bins, filters, factor),
                                   rtol=0, atol=1e-12)

    def test_vjp_matches_finite_differences(self):
        rng = _rng(41)
        bins = rng.normal(size=(10, 9)) + 1j * rng.normal(size=(10, 9))
        filters = mel_filterbank(4, 9, 16, 16000)
        g_feats = rng.normal(size=(5, 12))  # L = sum(g_feats * feats)

        def loss_fn():
            return float(np.sum(fbank_chain_vjp(bins, filters, 2)[0] * g_feats))

        _, vjp = fbank_chain_vjp(bins, filters, 2)
        assert max_fd_error(loss_fn, bins, vjp(g_feats), 1e-5, "bins") < 1e-4


class TestSubsample:
    def test_keeps_every_kth_frame(self):
        bins, filters = _random_bins(6, 10), mel_filterbank(4, 9, 16, 16000)
        every, _ = fbank_chain_vjp(bins, filters, 1)
        out, _ = fbank_chain_vjp(bins, filters, 3)
        np.testing.assert_array_equal(out, every[::3])
        assert out.shape[0] == 4  # ceil(10/3)

    def test_factor_one_is_identity(self):
        # Factor 1 keeps every frame.
        bins, filters = _random_bins(7, 7), mel_filterbank(4, 9, 16, 16000)
        feats, _ = fbank_chain_vjp(bins, filters, 1)
        assert feats.shape[0] == 7
        np.testing.assert_allclose(feats, _reference_features(bins, filters, 1),
                                   rtol=0, atol=1e-12)

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError, match="subsample factor must be >= 1"):
            fbank_chain_vjp(_random_bins(8, 6), mel_filterbank(4, 9, 16, 16000), 0)
