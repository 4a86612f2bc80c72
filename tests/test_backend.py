"""backend tests: AM, exact CTC vs brute force, decoding, scoring, vocab."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from beamlab import backend
from beamlab.backend import (
    AmParams,
    LabelSequence,
    LogProbLattice,
    am_backward,
    am_forward,
    am_forward_cached,
    collapse_path,
    context_window,
    context_window_adjoint,
    ctc_loss,
    edit_distance,
    greedy_decode,
    ids_to_tokens,
    init_am_params,
    load_vocab,
    min_frames,
    mlp2_backward,
    mlp2_forward,
    mlp2_init,
    tokens_to_ids,
)
from beamlab.pipeline import REL_ERROR_FLOOR, central_difference


def _rng(seed=0):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _random_lattice(rng, frames, n_labels):
    logits = rng.normal(size=(frames, n_labels + 1))
    lp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return lp


# ---------------------------------------------------------------------------
# Independent oracle: brute-force CTC by path enumeration
# ---------------------------------------------------------------------------


def _collapse_oracle(path):
    out, prev = [], None
    for p in path:
        if p != prev:
            out.append(p)
        prev = p
    return [p for p in out if p != 0]


def brute_force_ctc(lp: np.ndarray, labels) -> float:
    """-log sum over all frame paths collapsing to `labels` (exponential)."""
    frames, n_symbols = lp.shape
    want = list(labels)
    total = -np.inf
    for path in itertools.product(range(n_symbols), repeat=frames):
        if _collapse_oracle(path) == want:
            total = np.logaddexp(total, sum(lp[t, k] for t, k in enumerate(path)))
    return -total


class TestContainers:
    def test_label_ids_validated(self):
        with pytest.raises(ValueError):
            LabelSequence(ids=np.array([0]), vocab_size=3)
        with pytest.raises(ValueError):
            LabelSequence(ids=np.array([4]), vocab_size=3)
        seq = LabelSequence(ids=np.array([1, 3]), vocab_size=3)
        assert len(seq) == 2

    def test_lattice_rows_must_normalize(self):
        bad = np.log(np.full((3, 4), 0.3))
        with pytest.raises(ValueError, match="log-sum-exp"):
            LogProbLattice(values=bad)
        good = _random_lattice(_rng(0), 3, 3)
        LogProbLattice(values=good)

    def test_am_params_validated(self):
        rng = _rng(1)
        with pytest.raises(ValueError):
            AmParams(w1=rng.normal(size=(13, 8)), b1=np.zeros(8),
                     w2=rng.normal(size=(8, 4)), b2=np.zeros(4))  # 13 % 7 != 0


def max_fd_error(loss_fn, array: np.ndarray, analytic: np.ndarray, epsilon=1e-5) -> float:
    """Worst relative error of `analytic` against central differences of
    loss_fn over every entry of `array` (perturbed in place). Complex arrays
    are perturbed on Re and Im through their float64 view, which matches
    the Wirtinger gradient g = dL/dRe + i dL/dIm entry for entry."""
    if np.iscomplexobj(array):
        array, analytic = array.view(np.float64), analytic.view(np.float64)
    worst = 0.0
    for index in np.ndindex(array.shape):
        numeric = central_difference(loss_fn, array, index, epsilon)
        err = abs(analytic[index] - numeric) / max(abs(analytic[index]), abs(numeric),
                                                   REL_ERROR_FLOOR)
        worst = max(worst, err)
    return worst


class TestMlp2:
    def test_backward_matches_finite_differences(self):
        rng = _rng(40)
        params = SimpleNamespace(**mlp2_init(rng, in_dim=4, hidden_dim=5, out_dim=3))
        x = rng.normal(size=(6, 4))
        g_out = rng.normal(size=(6, 3))  # L = sum(g_out * out)

        def loss_fn():
            return float(np.sum(mlp2_forward(params, x)[0] * g_out))

        _, hidden = mlp2_forward(params, x)
        grads, g_x = mlp2_backward(params, x, hidden, g_out)
        for name in backend.PARAM_NAMES:
            assert max_fd_error(loss_fn, getattr(params, name), grads[name]) < 1e-4, name
        assert max_fd_error(loss_fn, x, g_x) < 1e-4


class TestAmForward:
    def test_shapes_and_row_normalization(self):
        rng = _rng(2)
        params = init_am_params(rng, feat_dim=5, hidden_dim=8, vocab_size=3)
        feats = rng.normal(size=(11, 5))
        lattice = am_forward(feats, params)
        assert lattice.values.shape == (11, 4)
        sums = np.log(np.exp(lattice.values).sum(axis=1))
        np.testing.assert_allclose(sums, 0.0, atol=1e-9)

    def test_context_window_replicates_edges(self):
        x = np.arange(5.0)[:, None]
        win = context_window(x, 1)
        np.testing.assert_array_equal(win[0], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(win[-1], [3.0, 4.0, 4.0])
        np.testing.assert_array_equal(win[2], [1.0, 2.0, 3.0])

    def test_context_adjoint_is_transpose(self):
        rng = _rng(3)
        x = rng.normal(size=(7, 2))
        y = rng.normal(size=(7, 2 * 5))
        lhs = np.sum(context_window(x, 2) * y)
        rhs = np.sum(x * context_window_adjoint(y, 7, 2))
        assert abs(lhs - rhs) < 1e-12

    def test_matches_straight_line_oracle(self):
        rng = _rng(4)
        params = init_am_params(rng, feat_dim=3, hidden_dim=6, vocab_size=2, context=1)
        feats = rng.normal(size=(6, 3))
        lattice = am_forward(feats, params)
        ctx = context_window(feats, 1)
        hidden = np.tanh(ctx @ params.w1 + params.b1)
        logits = hidden @ params.w2 + params.b2
        oracle = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(lattice.values, oracle, atol=1e-12)

    def test_feature_dim_mismatch(self):
        rng = _rng(5)
        params = init_am_params(rng, feat_dim=4, hidden_dim=6, vocab_size=2)
        with pytest.raises(ValueError, match="feature dimension"):
            am_forward(rng.normal(size=(5, 3)), params)

    def test_am_backward_finite_difference(self):
        rng = _rng(6)
        params = init_am_params(rng, feat_dim=3, hidden_dim=5, vocab_size=2, context=1)
        feats = rng.normal(size=(5, 3))
        g_out = rng.normal(size=(5, 3))  # arbitrary upstream gradient

        def loss_of():
            lattice, _ = am_forward_cached(feats, params)
            return float(np.sum(lattice * g_out))

        lattice, cache = am_forward_cached(feats, params)
        grads, g_feats = am_backward(params, cache, g_out)
        eps = 1e-6
        for name in ("w1", "b1", "w2", "b2"):
            arr = getattr(params, name)
            idx = (0,) if arr.ndim == 1 else (0, 0)
            orig = arr[idx]
            arr[idx] = orig + eps
            up = loss_of()
            arr[idx] = orig - eps
            dn = loss_of()
            arr[idx] = orig
            fd = (up - dn) / (2 * eps)
            assert abs(grads[name][idx] - fd) < 1e-6, name
        orig = feats[0, 0]
        feats[0, 0] = orig + eps
        up = loss_of()
        feats[0, 0] = orig - eps
        dn = loss_of()
        feats[0, 0] = orig
        assert abs(g_feats[0, 0] - (up - dn) / (2 * eps)) < 1e-6


class TestCtc:
    def test_frozen_brute_force_value(self):
        # Frozen from the brute-force path-enumeration oracle: seed 42,
        # T=5, 3 labels + blank, label sequence [1, 2].
        rng = np.random.default_rng(np.random.SeedSequence(42))
        logits = rng.normal(size=(5, 4))
        lp = logits - np.log(np.sum(np.exp(logits), axis=1, keepdims=True))
        loss, _ = ctc_loss(lp, np.array([1, 2]))
        assert abs(loss - 4.605480713744321) < 1e-12

    def test_matches_brute_force_small_grid(self):
        # Spot grid here (the exhaustive sweep lives in the acceptance suite).
        rng = _rng(7)
        for frames in (2, 3, 4):
            for labels in ([1], [1, 2], [2, 2]):
                if min_frames(np.array(labels)) > frames:
                    continue
                lp = _random_lattice(rng, frames, 2)
                loss, _ = ctc_loss(lp, np.array(labels))
                oracle = brute_force_ctc(lp, labels)
                assert abs(loss - oracle) < 1e-10, (frames, labels)

    def test_gradient_matches_finite_difference(self):
        # d(-log P)/d lp[t,k] treating rows as free variables.
        rng = _rng(8)
        lp = _random_lattice(rng, 5, 3)
        labels = np.array([1, 3])
        loss, grad = ctc_loss(lp, labels)
        eps = 1e-5
        for t in range(5):
            for k in range(4):
                orig = lp[t, k]
                lp[t, k] = orig + eps
                up, _ = ctc_loss(lp, labels)
                lp[t, k] = orig - eps
                dn, _ = ctc_loss(lp, labels)
                lp[t, k] = orig
                fd = (up - dn) / (2 * eps)
                assert abs(grad[t, k] - fd) < 1e-4, (t, k)

    def test_impossible_alignment_raises(self):
        lp = _random_lattice(_rng(9), 2, 3)
        with pytest.raises(ValueError, match="no valid alignment"):
            ctc_loss(lp, np.array([1, 2, 3]))

    def test_repeated_labels_need_separating_blank(self):
        assert min_frames(np.array([1, 1])) == 3
        assert min_frames(np.array([1, 2])) == 2
        lp = _random_lattice(_rng(10), 2, 2)
        with pytest.raises(ValueError, match="no valid alignment"):
            ctc_loss(lp, np.array([1, 1]))

    def test_empty_labels_probability_of_all_blanks(self):
        lp = _random_lattice(_rng(11), 3, 2)
        loss, _ = ctc_loss(lp, np.array([], dtype=np.int64))
        oracle = -np.sum(lp[:, 0])
        assert abs(loss - oracle) < 1e-12

    def test_gradient_is_prob_minus_expected(self):
        # Gradient rows sum to (posterior mass) bookkeeping check: each row of
        # d(-logP)/dlp sums to ... softmax-free identity: sum_k grad[t,k]
        # equals -1 for every t (one symbol consumed per frame).
        rng = _rng(12)
        lp = _random_lattice(rng, 6, 3)
        _, grad = ctc_loss(lp, np.array([2, 1]))
        np.testing.assert_allclose(grad.sum(axis=1), -1.0, atol=1e-9)


class TestDecode:
    def test_collapse_path(self):
        np.testing.assert_array_equal(
            collapse_path(np.array([0, 1, 1, 0, 2, 2, 0, 0, 1])), [1, 2, 1]
        )
        np.testing.assert_array_equal(collapse_path(np.array([0, 0])), [])

    def test_greedy_decode_argmax_then_collapse(self):
        lp = np.log(np.array([
            [0.1, 0.8, 0.05, 0.05],
            [0.1, 0.8, 0.05, 0.05],
            [0.8, 0.1, 0.05, 0.05],
            [0.05, 0.05, 0.1, 0.8],
        ]))
        seq = greedy_decode(lp)
        np.testing.assert_array_equal(seq.ids, [1, 3])


class TestEditDistance:
    def test_frozen_examples(self):
        # Frozen from a memoized-recursion oracle with the documented
        # substitution-preferring tie-break.
        assert edit_distance([1, 2, 2, 3], [1, 3, 2]) == (1, 1, 0)
        assert edit_distance([1, 2, 3, 4, 5], [1, 3, 3, 5]) == (1, 1, 0)

    def test_identity_and_empty(self):
        assert edit_distance([1, 2, 3], [1, 2, 3]) == (0, 0, 0)
        assert edit_distance([], [1, 2]) == (0, 0, 2)
        assert edit_distance([1, 2], []) == (0, 2, 0)

    def test_tie_prefers_substitution(self):
        # (1,2) vs (2,1): two subs, or del+match+ins; both cost 2 total.
        assert edit_distance([1, 2], [2, 1]) == (2, 0, 0)

    def test_total_is_levenshtein(self):
        # Cross-check totals against a classic single-cost DP.
        rng = _rng(13)
        for _ in range(50):
            hyp = rng.integers(1, 4, size=rng.integers(0, 7)).tolist()
            ref = rng.integers(1, 4, size=rng.integers(0, 7)).tolist()
            sub, ins, dele = edit_distance(hyp, ref)
            d = np.zeros((len(hyp) + 1, len(ref) + 1), dtype=int)
            d[:, 0] = np.arange(len(hyp) + 1)
            d[0, :] = np.arange(len(ref) + 1)
            for i in range(1, len(hyp) + 1):
                for j in range(1, len(ref) + 1):
                    cost = 0 if hyp[i - 1] == ref[j - 1] else 1
                    d[i, j] = min(d[i - 1, j - 1] + cost, d[i - 1, j] + 1, d[i, j - 1] + 1)
            assert sub + ins + dele == d[-1, -1], (hyp, ref)

    def test_accepts_label_sequences(self):
        hyp = LabelSequence(ids=np.array([1, 2]), vocab_size=3)
        ref = LabelSequence(ids=np.array([1, 3]), vocab_size=3)
        assert edit_distance(hyp, ref) == (1, 0, 0)


class TestVocab:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\nb\nc\n")
        tokens = load_vocab(path)
        assert tokens == ["a", "b", "c"]
        ids = tokens_to_ids("c a b", tokens)
        np.testing.assert_array_equal(ids, [3, 1, 2])
        assert ids_to_tokens(ids, tokens) == "c a b"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\n\nb\n  \nc\n")
        assert load_vocab(path) == ["a", "b", "c"]

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\nb\na\n")
        with pytest.raises(ValueError, match="duplicate token"):
            load_vocab(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="empty"):
            load_vocab(path)

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError, match="not in vocabulary"):
            tokens_to_ids("ax", ["a", "b"])
