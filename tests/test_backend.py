"""backend tests: AM, exact CTC vs brute force, decoding, scoring, vocab."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import log_softmax, logsumexp

from beamlab import backend
from beamlab.backend import (
    AmParams,
    LabelSequence,
    Mlp2Params,
    am_forward_cached,
    collapse_path,
    context_window,
    context_window_adjoint,
    ctc_loss,
    edit_distance,
    greedy_decode,
    init_am_params,
    load_vocab,
    min_frames,
    mlp2_backward,
    mlp2_forward,
    mlp2_init,
)
from beamlab.backend import _extend_labels, _log_softmax
from beamlab.pipeline import max_fd_error
from adjoint_checks import dot_product_sides


def _rng(seed=0):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _random_lattice(rng, frames, n_labels):
    logits = rng.normal(size=(frames, n_labels + 1))
    lp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return lp


def _seq(ids, lp):
    """ids as the LabelSequence ctc_loss takes, over the lattice's vocabulary."""
    return LabelSequence(ids=ids, vocab_size=lp.shape[1] - 1)


# ---------------------------------------------------------------------------
# Reference oracle: the concatenate-and-loop CTC recursion that the padded
# buffers replaced, with the same floating-point operations in the same
# order, so ctc_loss must match it bit for bit.
# ---------------------------------------------------------------------------


def loop_ctc(log_probs: np.ndarray, ids: np.ndarray):
    n_frames, n_symbols = log_probs.shape
    neg_inf = -np.inf
    ext = _extend_labels(ids)
    n_states = ext.size
    lp = log_probs[:, ext]
    can_skip = np.zeros(n_states, dtype=bool)
    if n_states > 2:
        can_skip[2:] = (ext[2:] != 0) & (ext[2:] != ext[:-2])

    alpha = np.full((n_frames, n_states), neg_inf)
    alpha[0, 0] = lp[0, 0]
    if n_states > 1:
        alpha[0, 1] = lp[0, 1]
    for t in range(1, n_frames):
        prev = alpha[t - 1]
        acc = np.logaddexp(prev, np.concatenate(([neg_inf], prev[:-1])))
        if n_states > 2:
            skip = np.concatenate(([neg_inf, neg_inf], prev[:-2]))
            acc = np.where(can_skip, np.logaddexp(acc, skip), acc)
        alpha[t] = acc + lp[t]

    tail = alpha[n_frames - 1, n_states - 1]
    if n_states > 1:
        tail = np.logaddexp(tail, alpha[n_frames - 1, n_states - 2])
    loss = -float(tail)

    beta = np.full((n_frames, n_states), neg_inf)
    beta[n_frames - 1, n_states - 1] = lp[n_frames - 1, n_states - 1]
    if n_states > 1:
        beta[n_frames - 1, n_states - 2] = lp[n_frames - 1, n_states - 2]
    for t in range(n_frames - 2, -1, -1):
        nxt = beta[t + 1]
        acc = np.logaddexp(nxt, np.concatenate((nxt[1:], [neg_inf])))
        if n_states > 2:
            skip = np.concatenate((nxt[2:], [neg_inf, neg_inf]))
            allowed = np.zeros(n_states, dtype=bool)
            allowed[: n_states - 2] = can_skip[2:]
            acc = np.where(allowed, np.logaddexp(acc, skip), acc)
        beta[t] = acc + lp[t]

    gamma = alpha + beta
    grad_log = np.full((n_frames, n_symbols), neg_inf)
    for s in range(n_states):
        k = ext[s]
        grad_log[:, k] = np.logaddexp(grad_log[:, k], gamma[:, s])
    return loss, -np.exp(grad_log - log_probs + loss)


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

    @pytest.mark.parametrize("ids", [[1.7, 2.2], [1.0, 2.0], [True], ["1", "2"], [True, 2],
                                     [2, np.True_]])
    def test_label_ids_that_are_not_integers_rejected(self, ids):
        # Before: cast to int64, so [1.7, 2.2] was silently [1, 2], and numpy read
        # [True, 2] as the integers [1, 2].
        with pytest.raises(ValueError, match="label ids must be integers"):
            LabelSequence(ids=ids, vocab_size=6)
        assert LabelSequence(ids=np.array([1, 2], dtype=np.uint8), vocab_size=6).ids.dtype == np.int64
        assert len(LabelSequence(ids=[], vocab_size=6)) == 0

    def test_am_params_validated(self):
        rng = _rng(1)
        with pytest.raises(ValueError):
            AmParams(w1=rng.normal(size=(13, 8)), b1=np.zeros(8),
                     w2=rng.normal(size=(8, 4)), b2=np.zeros(4), context=3)  # 13 % 7 != 0

    def test_mlp2_params_cast_and_validated(self):
        # One type for both nets: float64, finite, w1 [in, H] b1 [H] w2 [H, out] b2 [out].
        good = {"w1": np.ones((3, 2), dtype=np.float32), "b1": [0, 0],
                "w2": np.ones((2, 1)), "b2": np.zeros(1)}
        params = Mlp2Params(**good)
        assert all(getattr(params, n).dtype == np.float64 for n in good)
        bad_shapes = ({"b1": np.zeros(3)}, {"w2": np.ones((3, 1))}, {"b2": np.zeros(2)},
                      {"w1": np.ones(3)}, {"b2": np.zeros((1, 1))})
        for bad in bad_shapes:
            with pytest.raises(ValueError, match="do not chain"):
                Mlp2Params(**{**good, **bad})
        with pytest.raises(ValueError, match="parameter w2 must be finite"):
            Mlp2Params(**{**good, "w2": np.array([[1.0], [np.nan]])})
        # AmParams is one, with a context window: w1 rows (2*1+1)*2.
        am = AmParams(w1=np.ones((6, 2)), b1=np.zeros(2), w2=np.ones((2, 4)), b2=np.zeros(4),
                      context=1)
        assert isinstance(am, Mlp2Params) and am.feat_dim == 2
        with pytest.raises(ValueError, match="do not chain"):
            AmParams(w1=np.ones((6, 2)), b1=np.zeros(3), w2=np.ones((2, 4)), b2=np.zeros(4),
                     context=1)


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
            assert max_fd_error(loss_fn, getattr(params, name), grads[name], 1e-5, name) < 1e-4
        assert max_fd_error(loss_fn, x, g_x, 1e-5, "x") < 1e-4

    def test_hidden_major_matches_row_major_oracle(self):
        # The row-major [rows, H] formulation the hidden-major layout replaced.
        rng = _rng(41)
        params = SimpleNamespace(**mlp2_init(rng, in_dim=7, hidden_dim=8, out_dim=3))
        params.b1, params.b2 = rng.normal(size=8), rng.normal(size=3)
        x, g_out = rng.normal(size=(50, 7)), rng.normal(size=(50, 3))
        out, hidden = mlp2_forward(params, x)
        row_hidden = np.tanh(x @ params.w1 + params.b1)
        assert hidden.shape == (8, 50)
        np.testing.assert_allclose(hidden, row_hidden.T, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(out, row_hidden @ params.w2 + params.b2, rtol=1e-13,
                                   atol=1e-14)
        grads, g_x = mlp2_backward(params, x, hidden, g_out)
        g_pre = (g_out @ params.w2.T) * (1.0 - row_hidden ** 2)
        oracle = (x.T @ g_pre, g_pre.sum(axis=0), row_hidden.T @ g_out, g_out.sum(axis=0))
        for name, expected in zip(backend.PARAM_NAMES, oracle):
            np.testing.assert_allclose(grads[name], expected, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(g_x, g_pre @ params.w1.T, rtol=1e-12, atol=1e-13)


class TestLogSoftmax:
    def test_rows_normalize(self):
        rng = _rng(43)
        for n_symbols in (2, 4, 7, 49):
            out = _log_softmax(rng.normal(size=(40, n_symbols)))
            assert np.abs(logsumexp(out, axis=1)).max() <= 1e-15

    def test_matches_scipy_on_large_logits(self):
        # Logits of size 1e3: exp would overflow without the max shift.
        rng = _rng(44)
        for n_symbols in (2, 4, 7, 49):
            logits = 1e3 * rng.normal(size=(40, n_symbols))
            out = _log_softmax(logits)
            assert np.all(np.isfinite(out))
            np.testing.assert_allclose(out, log_softmax(logits, axis=1), rtol=0, atol=1e-14)
            assert np.abs(np.log(np.exp(out).sum(axis=1))).max() <= 1e-15

    def test_matches_logsumexp_form(self):
        # The form it replaced, logits - logsumexp(logits), at unit scale.
        rng = _rng(45)
        logits = rng.normal(size=(60, 7))
        np.testing.assert_allclose(_log_softmax(logits),
                                   logits - logsumexp(logits, axis=1, keepdims=True),
                                   rtol=0, atol=1e-14)


class TestAmForward:
    def test_shapes_and_row_normalization(self):
        rng = _rng(2)
        params = init_am_params(rng, feat_dim=5, hidden_dim=8, vocab_size=3, context=3)
        feats = rng.normal(size=(11, 5))
        log_probs, _ = am_forward_cached(feats, params)
        assert log_probs.shape == (11, 4)
        sums = np.log(np.exp(log_probs).sum(axis=1))
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
        lhs, rhs = dot_product_sides(lambda v: context_window(v, 2),
                                     lambda u: context_window_adjoint(u, 7, 2), x, y)
        assert abs(lhs - rhs) < 1e-12

    def test_matches_straight_line_oracle(self):
        rng = _rng(4)
        params = init_am_params(rng, feat_dim=3, hidden_dim=6, vocab_size=2, context=1)
        feats = rng.normal(size=(6, 3))
        log_probs, _ = am_forward_cached(feats, params)
        ctx = context_window(feats, 1)
        hidden = np.tanh(ctx @ params.w1 + params.b1)
        logits = hidden @ params.w2 + params.b2
        oracle = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(log_probs, oracle, atol=1e-12)

    def test_feature_dim_mismatch(self):
        rng = _rng(5)
        params = init_am_params(rng, feat_dim=4, hidden_dim=6, vocab_size=2, context=3)
        with pytest.raises(ValueError, match="feature dimension"):
            am_forward_cached(rng.normal(size=(5, 3)), params)

    def test_am_backward_finite_difference(self):
        rng = _rng(6)
        params = init_am_params(rng, feat_dim=3, hidden_dim=5, vocab_size=2, context=1)
        feats = rng.normal(size=(5, 3))
        g_out = rng.normal(size=(5, 3))  # arbitrary upstream gradient

        def loss_of():
            lattice, _ = am_forward_cached(feats, params)
            return float(np.sum(lattice * g_out))

        grads, g_feats = am_forward_cached(feats, params)[1](g_out)
        for name in ("w1", "b1", "w2", "b2"):
            assert max_fd_error(loss_of, getattr(params, name), grads[name], 1e-6, name) < 1e-6
        assert max_fd_error(loss_of, feats, g_feats, 1e-6, "feats") < 1e-6


class TestCtc:
    def test_frozen_brute_force_value(self):
        # Frozen from the brute-force path-enumeration oracle: seed 42,
        # T=5, 3 labels + blank, label sequence [1, 2].
        rng = np.random.default_rng(np.random.SeedSequence(42))
        logits = rng.normal(size=(5, 4))
        lp = logits - np.log(np.sum(np.exp(logits), axis=1, keepdims=True))
        loss, _ = ctc_loss(lp, _seq([1, 2], lp))
        assert abs(loss - 4.605480713744321) < 1e-12

    def test_matches_brute_force_small_grid(self):
        # Spot grid here (the exhaustive sweep lives in the acceptance suite).
        rng = _rng(7)
        for frames in (2, 3, 4):
            for labels in ([1], [1, 2], [2, 2]):
                if min_frames(np.array(labels)) > frames:
                    continue
                lp = _random_lattice(rng, frames, 2)
                loss, _ = ctc_loss(lp, _seq(labels, lp))
                oracle = brute_force_ctc(lp, labels)
                assert abs(loss - oracle) < 1e-10, (frames, labels)

    def test_gradient_matches_finite_difference(self):
        # d(-log P)/d lp[t,k] treating rows as free variables.
        rng = _rng(8)
        lp = _random_lattice(rng, 5, 3)
        labels = _seq([1, 3], lp)
        grad = ctc_loss(lp, labels)[1]()
        assert max_fd_error(lambda: ctc_loss(lp, labels)[0], lp, grad, 1e-5, "lp") < 1e-4

    def test_impossible_alignment_raises(self):
        lp = _random_lattice(_rng(9), 2, 3)
        with pytest.raises(ValueError, match="no valid alignment"):
            ctc_loss(lp, _seq([1, 2, 3], lp))

    def test_repeated_labels_need_separating_blank(self):
        assert min_frames(np.array([1, 1])) == 3
        assert min_frames(np.array([1, 2])) == 2
        lp = _random_lattice(_rng(10), 2, 2)
        with pytest.raises(ValueError, match="no valid alignment"):
            ctc_loss(lp, _seq([1, 1], lp))

    def test_empty_labels_probability_of_all_blanks(self):
        lp = _random_lattice(_rng(11), 3, 2)
        loss, _ = ctc_loss(lp, _seq([], lp))
        oracle = -np.sum(lp[:, 0])
        assert abs(loss - oracle) < 1e-12

    def test_matches_loop_recursion_bit_for_bit(self):
        # Loss and gradient over a seeded grid: T <= 40, |l| <= 7, V in {2, 4, 7},
        # with repeated labels (no skip allowed) drawn often at V = 2.
        rng = _rng(46)
        cases = 0
        for n_labels in (2, 4, 7):
            for label_len in range(8):
                for rep in range(6):
                    ids = rng.integers(1, n_labels + 1, size=label_len)
                    shortest = max(min_frames(ids), 1)  # rep 0: the tightest lattice
                    frames = shortest if rep == 0 else int(rng.integers(shortest, 41))
                    lp = _random_lattice(rng, frames, n_labels)
                    loss, vjp = ctc_loss(lp, _seq(ids, lp))
                    oracle_loss, oracle_grad = loop_ctc(lp, ids)
                    assert loss == oracle_loss, (n_labels, ids, frames)
                    np.testing.assert_array_equal(vjp(), oracle_grad)
                    cases += 1
        assert cases == 3 * 8 * 6

    def test_gradient_is_prob_minus_expected(self):
        # Gradient rows sum to (posterior mass) bookkeeping check: each row of
        # d(-logP)/dlp sums to ... softmax-free identity: sum_k grad[t,k]
        # equals -1 for every t (one symbol consumed per frame).
        rng = _rng(12)
        lp = _random_lattice(rng, 6, 3)
        grad = ctc_loss(lp, _seq([2, 1], lp))[1]()
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


class TestVocab:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\nb\nc\n")
        assert load_vocab(path) == ["a", "b", "c"]

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
