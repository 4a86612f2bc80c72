"""beamform tests: masks, PSD estimation, MVDR, reference selection, apply."""

import os

import numpy as np
import pytest

from beamlab import beamform
from beamlab.beamform import (
    apply_beamformer,
    apply_beamformer_vjp,
    load_noise_psd,
    masked_psd,
    masked_psd_pair_vjp,
    mvdr_weights,
    normalized_psd_ratio_vjp,
    oracle_masks,
    select_reference,
)
from beamlab.dsp import STFT_BLOCK_SAMPLES, Spectrogram
from beamlab.pipeline import max_fd_error
from adjoint_checks import dot_product_sides


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
    return np.einsum("tf,tfi,tfj->fij", mask, bins, bins.conj())


def _einsum_psd_vjp(bins, g_phi):
    return np.einsum("tfi,fij,tfj->tf", bins.conj(), g_phi, bins).real


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
        ms = oracle_masks(clean.bins[:, :, 0], noise.bins[:, :, 0])
        mn = 1.0 - ms  # the noise mask mvdr_weights weighs the noise PSD with
        np.testing.assert_allclose(ms + mn, 1.0, atol=1e-12)
        assert np.all(ms >= 0) and np.all(ms <= 1)

    def test_oracle_masks_irm_formula(self):
        rng = _rng(1)
        clean, noise = _random_spec(rng), _random_spec(rng)
        ms = oracle_masks(clean.bins[:, :, 0], noise.bins[:, :, 0])
        s = np.abs(clean.bins[:, :, 0]) ** 2
        n = np.abs(noise.bins[:, :, 0]) ** 2
        np.testing.assert_allclose(ms, s / (s + n + 1e-10), atol=1e-12)


class TestPsd:
    def test_masked_psd_matches_loop_oracle(self):
        rng = _rng(2)
        spec = _random_spec(rng, frames=11, window=8, channels=2)
        mask = rng.uniform(size=(11, 5))
        phi = masked_psd(spec.bins, mask)
        for f in range(5):
            oracle = np.zeros((2, 2), complex)
            for t in range(11):
                x = spec.bins[t, f][:, None]
                oracle += mask[t, f] * (x @ x.conj().T)
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

    @pytest.mark.parametrize("n_bins", [33, 257])
    @pytest.mark.parametrize("channels", [4, 8])
    def test_pair_above_size_rule_equals_serial_sums(self, monkeypatch, n_bins, channels):
        # Bins of STFT_BLOCK_SAMPLES entries or more are summed in two halves of
        # frequencies on two threads, in blocks of half the size: each bin's
        # matmul is the serial one, so the sums are equal, not just close, in
        # enhance's complex64 as in complex128.
        frames = -(-STFT_BLOCK_SAMPLES // (n_bins * channels))
        rng = _rng(n_bins + channels)
        bins = _random_bins(rng, frames, n_bins, channels, "tfc")
        mask = rng.uniform(size=(frames, n_bins))
        in_two = beamform._in_two
        for dtype, real in ((np.complex128, np.float64), (np.complex64, np.float32)):
            bins, mask, split = bins.astype(dtype), mask.astype(real), []
            with monkeypatch.context() as patch:
                patch.setattr(beamform, "_in_two",
                              lambda *calls: split.append(1) or in_two(*calls))
                phi_ss, phi_nn, _ = masked_psd_pair_vjp(bins, mask)
            assert split == [1, 1]
            for phi, m in ((phi_ss, mask), (phi_nn, 1.0 - mask)):
                serial = np.stack([bins[:, f].T @ (bins[:, f].conj() * m[:, f, None])
                                   for f in range(n_bins)])
                assert phi.dtype == dtype and np.array_equal(phi, serial)
            with monkeypatch.context() as patch:
                patch.setattr(os, "sched_getaffinity", lambda pid: {0})
                one_cpu = masked_psd_pair_vjp(bins, mask)
            assert np.array_equal(one_cpu[0], phi_ss) and np.array_equal(one_cpu[1], phi_nn)

    @pytest.mark.parametrize("frames, n_bins, channels", [(51, 129, 4), (559, 257, 8)])
    def test_complex64_sums_match_complex128(self, frames, n_bins, channels):
        # enhance's single-precision sums, below and above the size rule.
        rng = _rng(frames)
        bins = _random_bins(rng, frames, n_bins, channels, "tfc")
        mask = rng.uniform(size=(frames, n_bins))
        double = masked_psd(bins, mask)
        single = masked_psd(bins.astype(np.complex64), mask.astype(np.float32))
        assert single.dtype == np.complex64
        assert np.abs(single - double).max() <= 1e-5 * np.abs(double).max()

    def test_size_rule_keeps_toy_shapes_on_one_thread(self, monkeypatch):
        # The toy corpus's largest spectrogram, 60 frames x 129 bins x 4 channels,
        # is summed without _in_two (a call of None would raise).
        monkeypatch.setattr(beamform, "_in_two", None)
        rng = _rng(9)
        masked_psd_pair_vjp(_random_bins(rng, 60, 129, 4, "tfc"), rng.uniform(size=(60, 129)))

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
        # Columns whose speech (1, 5) or noise (3, 7) mask is zero or nearly
        # so: the all-0 and all-1 columns give a zero PSD, the 5e-12 ones a
        # nonzero one.
        for f, value in {1: 0.0, 3: 1.0, 5: 5e-12, 7: 1.0 - 5e-12}.items():
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
        # Both sums are linear in the mask, so one step fits every column.
        assert max_fd_error(loss_fn, mask, g_mask, 1e-5, "mask") < 1e-4

    @pytest.mark.parametrize("layout", ["tfc", "ctf"])
    @pytest.mark.parametrize("n_bins", [257, 33])
    def test_masked_psd_pair_vjp_matches_einsum_oracle(self, layout, n_bins):
        # Several PSD_BLOCK_BINS blocks, the last one partial.
        rng = _rng(42)
        bins = _random_bins(rng, 12, n_bins, 4, layout)
        mask = rng.uniform(size=(12, n_bins))
        mask[:, 31], mask[:, 32] = 0.0, 1.0  # a zero speech and noise sum
        g_ss = rng.normal(size=(n_bins, 4, 4)) + 1j * rng.normal(size=(n_bins, 4, 4))
        g_nn = rng.normal(size=(n_bins, 4, 4)) + 1j * rng.normal(size=(n_bins, 4, 4))
        phi_ss, phi_nn, vjp = masked_psd_pair_vjp(bins, mask)
        _assert_rel_close(phi_ss, _einsum_psd(bins, mask))
        _assert_rel_close(phi_nn, _einsum_psd(bins, 1.0 - mask))
        oracle_ss = _einsum_psd_vjp(bins, g_ss)
        oracle_nn = _einsum_psd_vjp(bins, g_nn)
        # One quadratic form on g_ss - g_nn in place of two: the tolerance is
        # relative to the terms, which may cancel.
        scale = max(np.abs(oracle_ss).max(), np.abs(oracle_nn).max())
        np.testing.assert_allclose(vjp(g_ss, g_nn), oracle_ss - oracle_nn, rtol=1e-12,
                                   atol=1e-12 * scale)

    @pytest.mark.parametrize("channels", [1, 2, 4, 8])
    @pytest.mark.parametrize("n_bins", [31, 32, 33])
    def test_masked_psd_pair_vjp_dot_product(self, n_bins, channels):
        # m -> (Phi(m), Phi(1 - m)) is affine, with linear part J v = (Phi(v), -Phi(v)),
        # Phi = masked_psd: F on both sides of PSD_BLOCK_BINS.
        rng = _rng(70 + n_bins + channels)
        bins = _random_bins(rng, 10, n_bins, channels, "tfc")
        mask, v = rng.uniform(size=(2, 10, n_bins))
        u = rng.normal(size=(2, n_bins, channels, channels)) + 1j * rng.normal(
            size=(2, n_bins, channels, channels))
        _, _, vjp = masked_psd_pair_vjp(bins, mask)

        def forward(w):
            phi = masked_psd(bins, w)
            return np.stack([phi, -phi])

        lhs, rhs = dot_product_sides(forward, lambda g: vjp(*g), v, u)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_normalized_psd_ratio_vjp_matches_finite_differences(self):
        rng = _rng(41)
        phi_ss = _random_psd(rng, 4, 3)
        phi_nn = _random_psd(rng, 4, 3)  # A A^H + I: well conditioned
        g_w = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))

        def loss_fn():  # L = Re <g_W, W>
            return float(np.sum(g_w.conj() * normalized_psd_ratio_vjp(phi_ss, phi_nn)[0]).real)

        weights, vjp = normalized_psd_ratio_vjp(phi_ss, phi_nn)
        g_phi_ss, g_phi_nn = vjp(g_w)
        assert max_fd_error(loss_fn, phi_ss, g_phi_ss, 1e-5, "phi_ss") < 1e-4
        assert max_fd_error(loss_fn, phi_nn, g_phi_nn, 1e-5, "phi_nn") < 1e-4
        # W is unchanged by positive per-bin scales of either PSD, the loading
        # included, so (Euler, degree 0) Re <g_Phi, Phi> vanishes per bin: what
        # lets masked_psd skip the division by the mask sums.
        s_ss, s_nn = (rng.uniform(0.01, 100.0, size=(4, 1, 1)) for _ in range(2))
        _assert_rel_close(normalized_psd_ratio_vjp(s_ss * phi_ss, s_nn * phi_nn)[0], weights)
        for g_phi, phi in ((g_phi_ss, phi_ss), (g_phi_nn, phi_nn)):
            inner = np.einsum("fij,fij->f", g_phi.conj(), phi).real
            norms = np.linalg.norm(g_phi, axis=(1, 2)) * np.linalg.norm(phi, axis=(1, 2))
            assert np.all(np.abs(inner) <= 1e-12 * norms)


class TestMvdr:
    def test_trace_normalization(self):
        # tr of the normalized ratio matrix is 1 to near machine precision.
        rng = _rng(6)
        for c in (2, 4, 6):
            phi_ss = _random_psd(rng, 5, c)
            phi_nn = _random_psd(rng, 5, c)
            ratio, _ = normalized_psd_ratio_vjp(phi_ss, phi_nn)
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
        phi_ss = masked_psd(bins, np.ones((frames, f)))
        phi_nn = np.tile(np.eye(c, dtype=complex) * 0.3, (f, 1, 1))
        weights, _ = normalized_psd_ratio_vjp(phi_ss, phi_nn)
        for ref in (0, 2):
            out = apply_beamformer(weights[:, :, ref], bins)
            err = np.max(np.abs(out - bins[:, :, ref]))
            assert err < 1e-8, err

    def test_rank1_noiseless_recovers_reference(self):
        # Point source with no noise: for any constant mask level the MVDR
        # chain (PSD pair -> loaded ratio -> apply) reproduces the reference
        # channel (loading cancels in the trace normalization).
        rng = _rng(4)
        frames, f, c = 12, 9, 3
        steer = rng.normal(size=(f, c)) + 1j * rng.normal(size=(f, c))
        src = rng.normal(size=(frames, f)) + 1j * rng.normal(size=(frames, f))
        bins = src[:, :, None] * steer[None, :, :]
        for level in (0.2, 0.5, 0.9):
            h, ref, _ = mvdr_weights(bins, np.full((frames, f), level), None)
            xhat, _ = apply_beamformer_vjp(h, bins)
            err = np.max(np.abs(xhat - bins[:, :, ref]))
            assert err < 1e-8, (level, err)

    def test_single_channel_weight_is_unity(self):
        # x/x through the LAPACK solve (reciprocal then multiply) can sit
        # one ulp off exact 1.
        rng = _rng(8)
        bins = _random_spec(rng, frames=10, window=10, channels=1).bins
        h, ref, _ = mvdr_weights(bins, rng.uniform(size=(10, 6)), 0)
        assert ref == 0
        np.testing.assert_allclose(h, np.ones((6, 1), complex), rtol=0, atol=1e-12)

    def test_ref_out_of_range(self):
        rng = _rng(9)
        bins = _random_spec(rng, frames=6, window=4, channels=2).bins
        with pytest.raises(ValueError):
            mvdr_weights(bins, rng.uniform(size=(6, 3)), 2)

    def test_zero_ratio_trace_gives_zero_weights(self):
        # An all-zero speech mask gives Phi_SS = 0, so tr(G) is exactly zero.
        bins = _random_spec(_rng(10), frames=8, window=2, channels=3).bins
        h, _, _ = mvdr_weights(bins, np.zeros((8, 2)), 0)
        np.testing.assert_array_equal(h, np.zeros((2, 3)))

    def test_weights_match_formula_oracle(self):
        # Dual route: per-frequency explicit inverse and trace division.
        rng = _rng(11)
        bins = _random_spec(rng, frames=20, window=6, channels=3).bins
        mask = rng.uniform(size=(20, 4))
        phi_ss, phi_nn = masked_psd(bins, mask), masked_psd(bins, 1.0 - mask)
        h, _, _ = mvdr_weights(bins, mask, 1)
        for f in range(4):
            loading = 1e-6 * (np.trace(phi_nn[f]).real / 3) * np.eye(3)
            g = np.linalg.inv(phi_nn[f] + loading) @ phi_ss[f]
            oracle = (g / np.trace(g))[:, 1]
            np.testing.assert_allclose(h[f], oracle, atol=1e-10)

    @pytest.mark.parametrize("ref", [None, 1], ids=["auto", "pinned"])
    @pytest.mark.parametrize("channels", [2, 4])
    @pytest.mark.parametrize("n_bins", [beamform.PSD_BLOCK_BINS - 1, beamform.PSD_BLOCK_BINS + 3])
    def test_mvdr_weights_vjp_matches_finite_differences(self, monkeypatch, n_bins, channels,
                                                         ref):
        # The composed chain mask -> PSD pair -> loaded ratio -> column ref,
        # against central differences of L = Re <g_h, h> in every mask entry;
        # 35 bins span two PSD_BLOCK_BINS blocks. Without loading (delta = 0);
        # the test below adds it.
        _check_mvdr_vjp(monkeypatch, n_bins, channels, ref, 0.0)

    @pytest.mark.parametrize("ref", [None, 1], ids=["auto", "pinned"])
    @pytest.mark.parametrize("channels", [2, 4])
    @pytest.mark.parametrize("n_bins", [beamform.PSD_BLOCK_BINS - 1, beamform.PSD_BLOCK_BINS + 3])
    @pytest.mark.parametrize("delta", [beamform.DIAGONAL_LOADING, 1e-2])
    def test_mvdr_weights_vjp_with_loading_matches_finite_differences(
            self, monkeypatch, delta, n_bins, channels, ref):
        # The loading (delta/C) tr(Phi_NN) depends on Phi_NN, so its adjoint term
        # counts: without it these draws are off by up to 7e-4 at the default delta.
        _check_mvdr_vjp(monkeypatch, n_bins, channels, ref, delta)


def _check_mvdr_vjp(monkeypatch, n_bins, channels, ref, delta):
    monkeypatch.setattr(beamform, "DIAGONAL_LOADING", delta)
    rng = _rng(60 + channels)
    bins = _random_bins(rng, 6, n_bins, channels, "tfc")
    mask = rng.uniform(0.05, 0.95, size=(6, n_bins))
    g_h = rng.normal(size=(n_bins, channels)) + 1j * rng.normal(size=(n_bins, channels))
    _, ref0, vjp = mvdr_weights(bins, mask, ref)
    speech_psd = masked_psd(bins, mask) / mask.sum(axis=0)[:, None, None]
    assert ref0 == (select_reference(speech_psd) if ref is None else ref)

    def loss_fn():
        h, ref_now, _ = mvdr_weights(bins, mask, ref)
        assert ref_now == ref0  # the argmax holds across every difference
        return float(np.sum(g_h.conj() * h).real)

    assert max_fd_error(loss_fn, mask, vjp(g_h), 1e-5, "mask") < 1e-4


class TestSinglePrecision:
    """enhance's complex64 bins: the sums stay complex64, the MVDR solve runs in
    complex128, and the beamformer output follows the bins."""

    def test_mvdr_weights_solve_in_double_precision(self):
        rng = _rng(12)
        bins = _random_bins(rng, 80, 33, 4, "tfc")
        bins[:, :, 2] *= 3.0  # a clear reference channel
        mask = rng.uniform(size=(80, 33))
        h, ref, _ = mvdr_weights(bins, mask, None)
        h_single, ref_single, _ = mvdr_weights(bins.astype(np.complex64),
                                               mask.astype(np.float32), None)
        assert h_single.dtype == np.complex128 and ref_single == ref == 2
        assert np.abs(h_single - h).max() <= 1e-4 * np.abs(h).max()

    def test_apply_beamformer_follows_the_bins(self):
        rng = _rng(13)
        bins = _random_bins(rng, 40, 33, 4, "tfc")
        h = rng.normal(size=(33, 4)) + 1j * rng.normal(size=(33, 4))
        single = apply_beamformer(h, bins.astype(np.complex64))
        assert single.dtype == np.complex64
        double = apply_beamformer(h, bins)
        assert np.abs(single - double).max() <= 1e-5 * np.abs(double).max()


class TestApplyAndReference:
    def test_apply_beamformer_conjugates(self):
        # x_hat = h^H x, not h^T x.
        bins = np.zeros((2, 2, 2), complex)
        bins[0, 0, 0] = 2.0
        out = apply_beamformer(np.array([[1j, 0.0], [1.0, 0.0]]), bins)
        assert out[0, 0] == np.conj(1j) * 2.0

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
        lhs, rhs = dot_product_sides(lambda w: apply_beamformer_vjp(w, bins)[0], vjp, v, u)
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
        with pytest.raises(ValueError):
            apply_beamformer(np.ones((spec.freq_bins, 2), complex), spec.bins)
