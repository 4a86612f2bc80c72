"""pipeline tests: joint forward vs a straight-line oracle, adjoints vs
finite differences, degenerate scenes, checkpoints."""

import numpy as np
import pytest
from scipy.special import expit

from beamlab import pipeline
from beamlab.backend import LabelSequence, Mlp2Params, mlp2_init
from beamlab.beamform import mvdr_weights
from beamlab.dsp import LOG_FLOOR, Spectrogram, mel_filterbank
from beamlab.pipeline import (
    TrainState,
    finite_diff_check,
    forward_backend,
    forward_joint,
    init_train_state,
    load_checkpoint,
    mask_net_forward,
    save_checkpoint,
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
            assert np.isfinite(loss)

    def test_single_channel_equals_backend_path(self):
        # C = 1: the weight is 1 + 0j up to one ulp of the LAPACK solve, so
        # the joint path reduces to the plain single-channel backend path.
        state, utt, labels = _tiny_instance(3, channels=1)
        loss_joint, cache = forward_joint(state, utt, labels, subsample_factor=3)
        loss_backend, _ = forward_backend(state.am_params, utt, labels,
                                          subsample_factor=3)
        assert abs(loss_joint - loss_backend) < 1e-10 * max(1.0, abs(loss_backend))
        mask, _ = mask_net_forward(state.mask_params, utt.bins)
        h, _, _ = mvdr_weights(utt.bins, mask, None)
        np.testing.assert_allclose(h, np.ones_like(h), rtol=0, atol=1e-12)

    def test_ref_channel_pinning(self):
        state, utt, labels = _tiny_instance(6)
        loss0, c0 = forward_joint(state, utt, labels, 3, ref_channel=0)
        loss1, c1 = forward_joint(state, utt, labels, 3, ref_channel=1)
        assert c0["ref"] == 0 and c1["ref"] == 1
        assert loss0 != loss1
        with pytest.raises(ValueError, match="ref channel"):
            forward_joint(state, utt, labels, 3, ref_channel=5)

    def test_backend_path_rejects_multichannel(self):
        state, utt, labels = _tiny_instance(7)
        with pytest.raises(ValueError, match="single-channel"):
            forward_backend(state.am_params, utt, labels, 3)

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
        _, cache = mask_net_forward(Mlp2Params(**mlp2_init(rng, 3, 8, 1)), bins)
        x = bins[:, :, 0]
        logmag = 0.5 * np.log(x.real ** 2 + x.imag ** 2 + LOG_FLOOR)
        idx = np.clip(np.arange(n_bins)[:, None] + np.array([-1, 0, 1]), 0, n_bins - 1)
        np.testing.assert_array_equal(cache["ctx"], logmag[:, idx].reshape(-1, 3))

    def test_mask_matches_gather_formulation(self):
        # The parent formulation end to end: |x|^2 via abs, gather, row-major MLP.
        rng = _rng(30)
        bins = rng.normal(size=(9, 17, 3)) + 1j * rng.normal(size=(9, 17, 3))
        params = Mlp2Params(**mlp2_init(rng, 3, 8, 1))
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
            err = max(finite_diff_check(state, utt, labels, subsample_factor=2, epsilon=1e-5,
                                        corrupt_adjoint=False).values())
            assert err < 1e-4, (seed, err)

    def test_breakdown_covers_all_arrays(self):
        state, utt, labels = _tiny_instance(8, frames=12, am_hidden=4, mask_hidden=3)
        breakdown = finite_diff_check(state, utt, labels, subsample_factor=2, epsilon=1e-5,
                                      corrupt_adjoint=False)
        assert sorted(breakdown) == [
            "am.b1", "am.b2", "am.w1", "am.w2",
            "mask.b1", "mask.b2", "mask.w1", "mask.w2",
        ]
        assert all(v < 1e-4 for v in breakdown.values())

    def test_corrupt_adjoint_fails_check(self):
        state, utt, labels = _tiny_instance(9, frames=12, am_hidden=4, mask_hidden=3)
        err = max(finite_diff_check(state, utt, labels, subsample_factor=2, epsilon=1e-5,
                                    corrupt_adjoint=True).values())
        assert err >= 1e-4

    def test_non_finite_analytic_gradient_is_rejected(self, monkeypatch):
        # A NaN gradient gives a NaN relative error, which no tolerance test can catch.
        backward = pipeline.backward_joint

        def nan_backward(cache):
            grads = backward(cache)
            grads["am.b2"][0] = np.nan
            return grads

        monkeypatch.setattr(pipeline, "backward_joint", nan_backward)
        state, utt, labels = _tiny_instance(11, frames=12, am_hidden=4, mask_hidden=3)
        with pytest.raises(ValueError, match="non-finite analytic gradient for am.b2"):
            finite_diff_check(state, utt, labels, subsample_factor=2, epsilon=1e-5,
                              corrupt_adjoint=False)

    def test_non_finite_perturbed_loss_is_rejected(self, monkeypatch):
        # Before: the NaN central difference gave a NaN relative error, which
        # max() dropped, and the entry counted as checked.
        forward, calls = pipeline.forward_joint, []

        def nan_on_fourth_call(*args, **kwargs):
            loss, cache = forward(*args, **kwargs)
            calls.append(loss)
            return (np.nan if len(calls) == 4 else loss), cache

        monkeypatch.setattr(pipeline, "forward_joint", nan_on_fourth_call)
        state, utt, labels = _tiny_instance(11, frames=12, am_hidden=4, mask_hidden=3)
        w1 = state.mask_params.w1.copy()
        # Call 1 is the evaluation point, calls 2-3 perturb mask.w1[0, 0], 4-5 mask.w1[0, 1].
        with pytest.raises(ValueError, match=r"non-finite perturbed loss for mask.w1 at "
                                             r"index \(0, 1\)"):
            finite_diff_check(state, utt, labels, subsample_factor=2, epsilon=1e-5,
                              corrupt_adjoint=False)
        assert len(calls) == 5
        np.testing.assert_array_equal(state.mask_params.w1, w1)  # the entry is restored

    def test_invalid_epsilon(self):
        state, utt, labels = _tiny_instance(10)
        for eps in (0.0, -1e-5, np.inf, np.nan):
            with pytest.raises(ValueError, match="invalid epsilon"):
                finite_diff_check(state, utt, labels, 3, epsilon=eps, corrupt_adjoint=False)


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        state, _, _ = _tiny_instance(15)
        state.step = 41
        state.seed = 9
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

    def test_older_checkpoint_with_moments_key_loads(self, tmp_path):
        # Earlier writers put an always-empty "moments" object after "seed".
        state, _, _ = _tiny_instance(18)
        path = tmp_path / "ck.json"
        save_checkpoint(state, path)
        import json

        payload = json.loads(path.read_text())
        assert "moments" not in payload
        older = {key: payload[key] for key in ("checkpoint_version", "step", "seed")}
        older["moments"] = {}
        older.update(mask_params=payload["mask_params"], am_params=payload["am_params"])
        path.write_text(json.dumps(older))
        back = load_checkpoint(path)
        assert (back.step, back.seed) == (state.step, state.seed)
        for group in ("mask_params", "am_params"):
            for name in ("w1", "b1", "w2", "b2"):
                np.testing.assert_array_equal(getattr(getattr(back, group), name),
                                              getattr(getattr(state, group), name))

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
