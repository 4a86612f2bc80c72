"""pipeline tests: joint forward vs a straight-line oracle, adjoints vs
finite differences, degenerate scenes, checkpoints."""

import numpy as np
import pytest
from scipy.special import expit

from beamlab import pipeline
from beamlab.backend import LabelSequence
from beamlab.dsp import LOG_FLOOR, Spectrogram, mel_filterbank
from beamlab.pipeline import (
    GradBundle,
    MaskNetParams,
    TrainState,
    backward_backend,
    backward_joint,
    finite_diff_check,
    forward_backend,
    forward_joint,
    init_train_state,
    init_mask_params,
    load_checkpoint,
    mask_net_forward,
    save_checkpoint,
    zeros_bundle,
)
from test_backend import brute_force_ctc


def _rng(seed=0):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _tiny_instance(seed, frames=14, window=16, channels=2, n_mels=4, vocab=2,
                   am_hidden=6, mask_hidden=5, context=1):
    rng = _rng(seed)
    f = window // 2 + 1
    bins = rng.normal(size=(frames, f, channels)) + 1j * rng.normal(
        size=(frames, f, channels))
    utt = Spectrogram(bins=bins, sample_rate=16000, window_size=window, hop=window // 2)
    labels = LabelSequence(ids=rng.integers(1, vocab + 1, size=2), vocab_size=vocab)
    state = init_train_state(rng, n_mels=n_mels, vocab_size=vocab,
                             am_hidden=am_hidden, mask_hidden=mask_hidden,
                             context=context, seed=seed)
    return state, utt, labels


# ---------------------------------------------------------------------------
# Straight-line oracle for the whole joint forward
# ---------------------------------------------------------------------------


def _oracle_joint_loss(state, utt, labels, subsample_factor):
    """Re-implements the forward chain with loops/inv instead of the
    vectorized einsum/solve routes; CTC by brute-force path enumeration."""
    bins = utt.bins
    frames, f, c = bins.shape
    mp, ap = state.mask_params, state.am_params

    # Mask net on channel-0 log magnitudes with +-1 bin context.
    logmag = 0.5 * np.log(np.abs(bins[:, :, 0]) ** 2 + 1e-10)
    mask = np.zeros((frames, f))
    for t in range(frames):
        for k in range(f):
            ctx = np.array([
                logmag[t, max(k - 1, 0)], logmag[t, k], logmag[t, min(k + 1, f - 1)]
            ])
            hidden = np.tanh(ctx @ mp.w1 + mp.b1)
            mask[t, k] = expit((hidden @ mp.w2 + mp.b2).item())

    # Masked PSDs, loading, inverse-ratio, trace normalization.
    def psd(m):
        out = np.zeros((f, c, c), complex)
        for k in range(f):
            acc = np.zeros((c, c), complex)
            for t in range(frames):
                x = bins[t, k][:, None]
                acc += m[t, k] * (x @ x.conj().T)
            out[k] = acc / max(m[:, k].sum(), 1e-10)
        return out

    phi_ss, phi_nn = psd(mask), psd(1.0 - mask)
    h = np.zeros((f, c), complex)
    diag_power = np.zeros(c)
    for k in range(f):
        diag_power += np.diag(phi_ss[k]).real
    ref = int(np.argmax(diag_power / f))
    for k in range(f):
        loaded = phi_nn[k] + 1e-6 * (np.trace(phi_nn[k]).real / c) * np.eye(c)
        ratio = np.linalg.inv(loaded) @ phi_ss[k]
        tr = np.trace(ratio)
        w = ratio / tr if tr != 0 else np.zeros_like(ratio)
        h[k] = w[:, ref]

    xhat = np.zeros((frames, f), complex)
    for t in range(frames):
        for k in range(f):
            xhat[t, k] = np.vdot(h[k], bins[t, k])  # vdot conjugates the filter

    # Features: log-fbank, cmvn, two delta passes, subsample.
    mel = mel_filterbank(ap.feat_dim // 3, f, utt.window_size, utt.sample_rate)
    logf = np.log(np.abs(xhat) ** 2 @ mel.T + 1e-10)
    mean, var = logf.mean(axis=0), logf.var(axis=0)
    normed = (logf - mean) / np.sqrt(np.maximum(var, 1e-8))

    def deltas(x):
        pad = np.concatenate([x[:1], x[:1], x, x[-1:], x[-1:]], axis=0)
        return np.array([
            ((pad[t + 3] - pad[t + 1]) + 2 * (pad[t + 4] - pad[t])) / 10.0
            for t in range(x.shape[0])
        ])

    d1 = deltas(normed)
    feats = np.concatenate([normed, d1, deltas(d1)], axis=1)[::subsample_factor]

    # AM with replicated-edge context windows.
    t_sub = feats.shape[0]
    ctx_rows = []
    for t in range(t_sub):
        row = [feats[int(np.clip(t + o, 0, t_sub - 1))]
               for o in range(-ap.context, ap.context + 1)]
        ctx_rows.append(np.concatenate(row))
    ctx = np.asarray(ctx_rows)
    logits = np.tanh(ctx @ ap.w1 + ap.b1) @ ap.w2 + ap.b2
    lp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return brute_force_ctc(lp, list(labels.ids))


class TestForwardJoint:
    def test_matches_straight_line_oracle(self):
        for seed in (0, 1, 2):
            state, utt, labels = _tiny_instance(seed)
            loss, cache = forward_joint(state, utt, labels, subsample_factor=3)
            oracle = _oracle_joint_loss(state, utt, labels, subsample_factor=3)
            assert abs(loss - oracle) < 1e-10, seed
            assert cache["kind"] == "joint" and np.isfinite(loss)

    def test_single_channel_equals_backend_path(self):
        # C = 1: the weight is 1 + 0j up to one ulp of the LAPACK solve, so
        # the joint path reduces to the plain single-channel backend path.
        state, utt, labels = _tiny_instance(3, channels=1)
        loss_joint, cache = forward_joint(state, utt, labels, subsample_factor=3)
        loss_backend, _ = forward_backend(state.am_params, utt, labels,
                                          subsample_factor=3)
        assert abs(loss_joint - loss_backend) < 1e-10 * max(1.0, abs(loss_backend))
        np.testing.assert_allclose(cache["h"], np.ones_like(cache["h"]),
                                   rtol=0, atol=1e-12)

    def test_rank1_noiseless_recovers_reference(self):
        # Point source with no noise: for any clamped mask level the MVDR
        # output reproduces the reference channel (loading cancels in the
        # trace normalization).
        rng = _rng(4)
        frames, f, c = 12, 9, 3
        steer = rng.normal(size=(f, c)) + 1j * rng.normal(size=(f, c))
        src = rng.normal(size=(frames, f)) + 1j * rng.normal(size=(frames, f))
        bins = src[:, :, None] * steer[None, :, :]
        utt = Spectrogram(bins=bins, sample_rate=16000, window_size=16, hop=8)
        state, _, labels = _tiny_instance(4, channels=3)
        for level in (0.2, 0.5, 0.9):
            _, cache = forward_joint(state, utt, labels, subsample_factor=3,
                                     mask_override=level)
            xhat = np.einsum("fc,tfc->tf", cache["h"].conj(), bins)
            err = np.max(np.abs(xhat - bins[:, :, cache["ref"]]))
            assert err < 1e-8, (level, err)

    def test_mask_override_bounds(self):
        state, utt, labels = _tiny_instance(5)
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError, match="mask_override"):
                forward_joint(state, utt, labels, mask_override=bad)

    def test_ref_channel_pinning(self):
        state, utt, labels = _tiny_instance(6)
        loss0, c0 = forward_joint(state, utt, labels, ref_channel=0)
        loss1, c1 = forward_joint(state, utt, labels, ref_channel=1)
        assert c0["ref"] == 0 and c1["ref"] == 1
        assert loss0 != loss1
        with pytest.raises(ValueError, match="ref channel"):
            forward_joint(state, utt, labels, ref_channel=5)

    def test_backend_path_rejects_multichannel(self):
        state, utt, labels = _tiny_instance(7)
        with pytest.raises(ValueError, match="single-channel"):
            forward_backend(state.am_params, utt, labels)

    def test_negative_subsample_rejected(self):
        # [::-2] would silently feed time-reversed frames to the AM.
        state, utt, labels = _tiny_instance(7)
        with pytest.raises(ValueError, match="subsample factor must be >= 1"):
            forward_joint(state, utt, labels, subsample_factor=-2)
        state, mono, labels = _tiny_instance(7, channels=1)
        with pytest.raises(ValueError, match="subsample factor must be >= 1"):
            forward_backend(state.am_params, mono, labels, subsample_factor=-2)

    def test_decode_without_labels_skips_ctc(self, monkeypatch):
        state, utt, labels = _tiny_instance(8)
        _, cache = forward_joint(state, utt, labels, subsample_factor=3)

        def no_ctc(*args, **kwargs):
            raise AssertionError("CTC ran without labels")

        monkeypatch.setattr(pipeline, "ctc_loss", no_ctc)
        loss, decode = forward_joint(state, utt, None, subsample_factor=3)
        assert loss is None
        np.testing.assert_array_equal(decode["am"]["log_probs"], cache["am"]["log_probs"])


class TestMaskNet:
    @pytest.mark.parametrize("n_bins", [1, 2, 9, 129])
    def test_context_planes_match_clipped_gather(self, n_bins):
        # The [T*F, 3] clipped-index gather the three shifted planes replaced.
        rng = _rng(20 + n_bins)
        bins = rng.normal(size=(7, n_bins, 2)) + 1j * rng.normal(size=(7, n_bins, 2))
        _, cache = mask_net_forward(init_mask_params(rng), bins)
        x = bins[:, :, 0]
        logmag = 0.5 * np.log(x.real ** 2 + x.imag ** 2 + LOG_FLOOR)
        idx = np.clip(np.arange(n_bins)[:, None] + np.array([-1, 0, 1]), 0, n_bins - 1)
        np.testing.assert_array_equal(cache["ctx"], logmag[:, idx].reshape(-1, 3))

    def test_mask_matches_gather_formulation(self):
        # The parent formulation end to end: |x|^2 via abs, gather, row-major MLP.
        rng = _rng(30)
        bins = rng.normal(size=(9, 17, 3)) + 1j * rng.normal(size=(9, 17, 3))
        params = init_mask_params(rng, hidden_dim=8)
        params.b1, params.b2 = rng.normal(size=8), rng.normal(size=1)
        mask, _ = mask_net_forward(params, bins)
        logmag = 0.5 * np.log(np.abs(bins[:, :, 0]) ** 2 + LOG_FLOOR)
        idx = np.clip(np.arange(17)[:, None] + np.array([-1, 0, 1]), 0, 16)
        hidden = np.tanh(logmag[:, idx].reshape(-1, 3) @ params.w1 + params.b1)
        oracle = expit(hidden @ params.w2 + params.b2).reshape(9, 17)
        np.testing.assert_allclose(mask, oracle, rtol=1e-12, atol=0)


class TestBackwardJoint:
    def test_finite_difference_seeds(self):
        for seed in (0, 1, 2):
            state, utt, labels = _tiny_instance(seed, frames=12, context=1,
                                                am_hidden=5, mask_hidden=4)
            err = finite_diff_check(state, utt, labels, subsample_factor=2)
            assert err < 1e-4, (seed, err)

    def test_breakdown_covers_all_arrays(self):
        state, utt, labels = _tiny_instance(8, frames=12, am_hidden=4, mask_hidden=3)
        breakdown = {}
        finite_diff_check(state, utt, labels, subsample_factor=2,
                          breakdown=breakdown)
        assert sorted(breakdown) == [
            "am.b1", "am.b2", "am.w1", "am.w2",
            "mask.b1", "mask.b2", "mask.w1", "mask.w2",
        ]
        assert all(v < 1e-4 for v in breakdown.values())

    def test_corrupt_adjoint_fails_check(self):
        state, utt, labels = _tiny_instance(9, frames=12, am_hidden=4, mask_hidden=3)
        err = finite_diff_check(state, utt, labels, subsample_factor=2,
                                corrupt_adjoint=True)
        assert err >= 1e-4

    def test_invalid_epsilon(self):
        state, utt, labels = _tiny_instance(10)
        for eps in (0.0, -1e-5, np.inf, np.nan):
            with pytest.raises(ValueError, match="invalid epsilon"):
                finite_diff_check(state, utt, labels, epsilon=eps)

    def test_clamped_mask_detaches_mask_net(self):
        state, utt, labels = _tiny_instance(11)
        _, cache = forward_joint(state, utt, labels, mask_override=0.5)
        bundle = backward_joint(cache)
        for name, arr in bundle.mask.items():
            assert np.all(arr == 0.0), name
        assert any(np.any(arr != 0.0) for arr in bundle.am.values())

    def test_clamped_mask_gradients_still_verify(self):
        # The AM gradients must stay exact when the mask branch is detached.
        state, utt, labels = _tiny_instance(12, frames=12, am_hidden=4, mask_hidden=3)
        loss0, cache = forward_joint(state, utt, labels, subsample_factor=2,
                                     mask_override=0.4)
        bundle = backward_joint(cache)
        ref = cache["ref"]

        def loss_fn():
            loss, _ = forward_joint(state, utt, labels, subsample_factor=2,
                                    ref_channel=ref, mask_override=0.4)
            return loss

        arr = state.am_params.w2
        for index in ((0, 0), (1, 1), (3, 2)):
            numeric = pipeline.central_difference(loss_fn, arr, index, 1e-5)
            denom = max(abs(numeric), abs(bundle.am["w2"][index]), 1e-5)
            assert abs(bundle.am["w2"][index] - numeric) / denom < 1e-4

    def test_backward_kind_checked(self):
        state, utt, labels = _tiny_instance(13, channels=1)
        _, cache = forward_backend(state.am_params, utt, labels)
        with pytest.raises(ValueError, match="forward_joint"):
            backward_joint(cache)
        _, jcache = forward_joint(state, utt, labels)
        with pytest.raises(ValueError, match="forward_backend"):
            backward_backend(jcache)

    def test_grad_bundle_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite gradient"):
            GradBundle(mask={"w1": np.array([np.nan])}, am={})


class TestBundles:
    def test_zeros_and_add(self):
        state, _, _ = _tiny_instance(14)
        acc = zeros_bundle(state)
        one = zeros_bundle(state)
        one.am["b2"][0] = 2.0
        one.mask["b2"][0] = -1.0
        pipeline.bundle_add(acc, one)
        pipeline.bundle_add(acc, one)
        assert acc.am["b2"][0] == 4.0
        assert acc.mask["b2"][0] == -2.0
        # A back-end-only bundle carries no mask group; the mask sum is kept.
        pipeline.bundle_add(acc, GradBundle(mask={}, am=one.am))
        assert acc.am["b2"][0] == 6.0
        assert acc.mask["b2"][0] == -2.0


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        state, _, _ = _tiny_instance(15)
        state.step = 41
        state.seed = 9
        state.moments = {"m_w1": np.full(3, 0.25)}
        path = tmp_path / "ck.json"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(
                getattr(back.mask_params, name), getattr(state.mask_params, name))
            np.testing.assert_array_equal(
                getattr(back.am_params, name), getattr(state.am_params, name))
        assert back.step == 41 and back.seed == 9
        assert back.am_params.context == state.am_params.context
        np.testing.assert_array_equal(back.moments["m_w1"], state.moments["m_w1"])

    def test_wrong_version_rejected(self, tmp_path):
        state, _, _ = _tiny_instance(16)
        path = tmp_path / "ck.json"
        save_checkpoint(state, path)
        import json

        payload = json.loads(path.read_text())
        payload["checkpoint_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            load_checkpoint(path)

    def test_missing_field_rejected(self, tmp_path):
        state, _, _ = _tiny_instance(17)
        path = tmp_path / "ck.json"
        save_checkpoint(state, path)
        import json

        payload = json.loads(path.read_text())
        del payload["am_params"]["w2"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="corrupted checkpoint"):
            load_checkpoint(path)
