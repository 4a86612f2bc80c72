"""Acoustic back-end: context-window feed-forward AM, CTC loss, decoding.

The acoustic model is a deliberately small 2-layer net over +-3-frame
context windows (affine -> tanh -> affine -> log-softmax). CTC is the plain
node-potential objective; the forward-backward recursions run entirely in
log space with blank id 0 and no rescaling. Both return their output and
its vjp (`am_forward_cached`, `ctc_loss`); CTC's beta pass runs in its vjp.

The AM and the pipeline's mask net are both 2-layer tanh nets with one
parameter type, Mlp2Params, and one forward/backward (mlp2_forward,
mlp2_backward); AmParams adds only the AM's context window.
"""

from dataclasses import dataclass

import numpy as np

BLANK_ID = 0
DEFAULT_CONTEXT = 3
NEG_INF = -np.inf
# Array names of every 2-layer net (AM and mask net); also gradient dict keys.
PARAM_NAMES = ("w1", "b1", "w2", "b2")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass
class LabelSequence:
    """Token ids over a vocabulary of size `vocab_size`, blank (0) excluded."""

    ids: np.ndarray
    vocab_size: int

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.ids.ndim != 1:
            raise ValueError("label ids must be a 1-D sequence")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        if self.ids.size and (self.ids.min() < 1 or self.ids.max() > self.vocab_size):
            raise ValueError("label ids must lie in [1, vocab_size]; 0 is the blank")

    def __len__(self) -> int:
        return int(self.ids.size)


@dataclass
class Mlp2Params:
    """Weights of a 2-layer tanh net (mlp2_forward), float64 and finite: w1 [in, H],
    b1 [H], w2 [H, out], b2 [out]. The mask net's parameters are one as they are."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name in PARAM_NAMES:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, arr)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"parameter {name} must be finite")
        if (self.w1.ndim != 2 or self.b1.shape != self.w1.shape[1:] or self.b2.ndim != 1
                or self.w2.shape != self.b1.shape + self.b2.shape):
            raise ValueError("layer shapes do not chain as w1 [in, H], b1 [H], w2 [H, out], "
                             f"b2 [out]: {[getattr(self, n).shape for n in PARAM_NAMES]}")


@dataclass
class AmParams(Mlp2Params):
    """The AM's net over context windows: w1 [(2*context+1)*feat_dim, H], w2 [H, vocab_size+1]."""

    context: int

    def __post_init__(self):
        super().__post_init__()
        if self.context < 0:
            raise ValueError("context must be >= 0")
        if self.w1.shape[0] % (2 * self.context + 1) != 0:
            raise ValueError("w1 input dim must be a multiple of the window length")

    @property
    def feat_dim(self) -> int:
        return self.w1.shape[0] // (2 * self.context + 1)


def init_am_params(
    rng: np.random.Generator,
    feat_dim: int,
    hidden_dim: int,
    vocab_size: int,
    context: int,
) -> AmParams:
    in_dim = (2 * context + 1) * feat_dim
    return AmParams(**mlp2_init(rng, in_dim, hidden_dim, vocab_size + 1), context=context)


# ---------------------------------------------------------------------------
# Context windows
# ---------------------------------------------------------------------------


def _context_indices(n_frames: int, context: int) -> np.ndarray:
    stencil = np.arange(-context, context + 1)
    return np.clip(np.arange(n_frames)[:, None] + stencil[None, :], 0, n_frames - 1)


def context_window(features: np.ndarray, context: int) -> np.ndarray:
    """Stack +-context frames per row (edges replicated), [T, (2c+1)*D]."""
    features = np.asarray(features, dtype=np.float64)
    idx = _context_indices(features.shape[0], context)
    return features[idx].reshape(features.shape[0], -1)


def context_window_adjoint(grad: np.ndarray, n_frames: int, context: int) -> np.ndarray:
    """Exact transpose of context_window: scatter-add back onto frames."""
    width = 2 * context + 1
    feat_dim = grad.shape[1] // width
    idx = _context_indices(n_frames, context)
    out = np.zeros((n_frames, feat_dim))
    np.add.at(out, idx.ravel(), grad.reshape(-1, feat_dim))
    return out


# ---------------------------------------------------------------------------
# 2-layer tanh MLP shared by the acoustic model and the mask net
# ---------------------------------------------------------------------------


def mlp2_init(rng: np.random.Generator, in_dim: int, hidden_dim: int, out_dim: int) -> dict:
    """Gaussian weights scaled by 1/sqrt(fan_in); biases zero."""
    return {
        "w1": rng.normal(0.0, 1.0 / np.sqrt(in_dim), size=(in_dim, hidden_dim)),
        "b1": np.zeros(hidden_dim),
        "w2": rng.normal(0.0, 1.0 / np.sqrt(hidden_dim), size=(hidden_dim, out_dim)),
        "b2": np.zeros(out_dim),
    }


def mlp2_forward(params, x: np.ndarray):
    """affine -> tanh -> affine on rows of x [rows, in]: (outputs [rows, out], hidden [H, rows]).
    Hidden-major, so the bias add, tanh derivative and bias sums run along contiguous rows."""
    hidden = params.w1.T @ x.T
    hidden += params.b1[:, None]
    np.tanh(hidden, out=hidden)
    return hidden.T @ params.w2 + params.b2, hidden


def mlp2_backward(params, x: np.ndarray, hidden: np.ndarray, g_out: np.ndarray):
    """Reverse pass of mlp2_forward: (grads keyed by PARAM_NAMES, g_x)."""
    g_pre = hidden * hidden  # [H, rows]; in place: tanh' = 1 - hidden^2, times g_hidden
    np.subtract(1.0, g_pre, out=g_pre)
    g_pre *= np.dot(params.w2, g_out.T)
    grads = (x.T @ g_pre.T, g_pre.sum(axis=1), hidden @ g_out, g_out.sum(axis=0))
    return dict(zip(PARAM_NAMES, grads)), g_pre.T @ params.w1.T


# ---------------------------------------------------------------------------
# Acoustic model forward / backward
# ---------------------------------------------------------------------------


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def am_forward_cached(features: np.ndarray, params: AmParams):
    """Raw AM forward: (log_probs, vjp), vjp(g_log_probs) -> (param grads keyed by
    PARAM_NAMES, g_features), am_backward on this forward's arrays."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be [frames, dims]")
    if features.shape[1] * (2 * params.context + 1) != params.w1.shape[0]:
        raise ValueError("feature dimension does not match AM parameters")
    ctx = context_window(features, params.context)
    logits, hidden = mlp2_forward(params, ctx)
    log_probs = _log_softmax(logits)
    return log_probs, lambda g: am_backward(params, ctx, hidden, log_probs, g)


def am_backward(params: AmParams, ctx: np.ndarray, hidden: np.ndarray,
                log_probs: np.ndarray, g_log_probs: np.ndarray):
    """Reverse pass through the AM from its forward's context windows, hidden
    layer and log_probs: (param grads keyed by PARAM_NAMES, g_features)."""
    softmax = np.exp(log_probs)
    g_logits = g_log_probs - softmax * g_log_probs.sum(axis=1, keepdims=True)
    grads, g_ctx = mlp2_backward(params, ctx, hidden, g_logits)
    return grads, context_window_adjoint(g_ctx, len(ctx), params.context)


# ---------------------------------------------------------------------------
# CTC loss (log-space forward-backward)
# ---------------------------------------------------------------------------


def _extend_labels(ids: np.ndarray) -> np.ndarray:
    """Interleave blanks: l -> [0, l1, 0, l2, ..., 0]."""
    ext = np.zeros(2 * ids.size + 1, dtype=np.int64)
    ext[1::2] = ids
    return ext


def min_frames(ids: np.ndarray) -> int:
    """Shortest feasible path length: |l| plus one blank per adjacent repeat."""
    ids = np.asarray(ids)
    repeats = int(np.sum(ids[1:] == ids[:-1])) if ids.size > 1 else 0
    return int(ids.size) + repeats


def ctc_loss(log_probs, labels: LabelSequence):
    """Exact CTC negative log-likelihood and its vjp: (loss, vjp() -> dL/d log_probs).

    alpha and beta run in buffers padded with two -inf states, so each frame
    is 3 calls on slices: logaddexp(stay, step), logaddexp with the skip where
    allowed, add the emissions. alpha gives the loss; beta and the per-symbol
    reduction run only when vjp is called. The gradient treats every lattice
    entry as a free variable (no softmax coupling): the plain adjoint of the sum.
    """
    log_probs = np.asarray(log_probs, dtype=np.float64)
    ids = labels.ids
    n_frames, n_symbols = log_probs.shape
    if ids.size and (ids.min() < 1 or ids.max() >= n_symbols):
        raise ValueError("label ids must lie in [1, n_symbols - 1]")
    if n_frames < min_frames(ids):
        raise ValueError("no valid alignment: label too long for the lattice")

    ext = _extend_labels(ids)
    n_states = ext.size
    lp = log_probs[:, ext]  # [T, S] emission scores per extended state
    # States allowed to skip from s-2: non-blank and different from l'_{s-2};
    # can_skip[s + 2] also says whether beta's state s may skip from s+2.
    can_skip = np.zeros(n_states + 2, dtype=bool)
    can_skip[2:n_states] = (ext[2:] != BLANK_ID) & (ext[2:] != ext[:-2])

    alpha = np.full((n_frames, n_states + 2), NEG_INF)  # state s at column s + 2
    alpha[0, 2:4] = lp[0, :2]
    for t in range(1, n_frames):
        prev, row = alpha[t - 1], alpha[t, 2:]
        np.logaddexp(prev[2:], prev[1:-1], out=row)
        np.logaddexp(row, prev[:-2], out=row, where=can_skip[:n_states])
        row += lp[t]
    loss = -float(np.logaddexp(alpha[-1, -2], alpha[-1, -1]))  # last blank or label

    def vjp() -> np.ndarray:
        beta = np.full((n_frames, n_states + 2), NEG_INF)  # state s at column s
        beta[-1, max(n_states - 2, 0):n_states] = lp[-1, max(n_states - 2, 0):]
        for t in range(n_frames - 2, -1, -1):
            nxt, row = beta[t + 1], beta[t, :n_states]
            np.logaddexp(nxt[:-2], nxt[1:-1], out=row)
            np.logaddexp(row, nxt[2:], out=row, where=can_skip[2:])
            row += lp[t]

        # alpha*beta counts the emission at (t, s) twice. Collapse states to
        # symbols with one logaddexp.reduceat over the states sorted by symbol
        # (stable, so each symbol sums its states in state order); then
        # dL/d log_probs[t,k] = -exp(lse - lp - log p).
        gamma = alpha[:, 2:] + beta[:, :n_states]  # [T, S]
        order = np.argsort(ext, kind="stable")
        starts = np.flatnonzero(np.diff(ext[order], prepend=-1))
        grad_log = np.full((n_frames, n_symbols), NEG_INF)
        grad_log[:, ext[order[starts]]] = np.logaddexp.reduceat(gamma[:, order], starts, axis=1)
        return -np.exp(grad_log - log_probs + loss)

    return loss, vjp


# ---------------------------------------------------------------------------
# Decoding and scoring
# ---------------------------------------------------------------------------


def collapse_path(path: np.ndarray) -> np.ndarray:
    """The B mapping: drop consecutive repeats, then blanks."""
    path = np.asarray(path, dtype=np.int64)
    if path.size == 0:
        return path
    keep = np.concatenate(([True], path[1:] != path[:-1]))
    dedup = path[keep]
    return dedup[dedup != BLANK_ID]


def greedy_decode(log_probs: np.ndarray) -> LabelSequence:
    """Per-frame argmax of log_probs [T, vocab_size + 1] followed by the B mapping."""
    path = np.argmax(log_probs, axis=1)
    return LabelSequence(ids=collapse_path(path), vocab_size=log_probs.shape[1] - 1)


def edit_distance(hyp, ref) -> tuple[int, int, int]:
    """Levenshtein (sub, ins, del) counts of the id sequence hyp against ref, unit costs.

    Ties in total cost break deterministically: substitution is preferred
    over an insertion+deletion pair, and deletion over insertion.
    """
    h, r = list(hyp), list(ref)
    # dp[i][j] = (total, sub, ins, del) aligning h[:i] with r[:j].
    dp = [[None] * (len(r) + 1) for _ in range(len(h) + 1)]
    dp[0][0] = (0, 0, 0, 0)
    for i in range(1, len(h) + 1):
        t, s, n, d = dp[i - 1][0]
        dp[i][0] = (t + 1, s, n + 1, d)
    for j in range(1, len(r) + 1):
        t, s, n, d = dp[0][j - 1]
        dp[0][j] = (t + 1, s, n, d + 1)
    for i in range(1, len(h) + 1):
        for j in range(1, len(r) + 1):
            t, s, n, d = dp[i - 1][j - 1]
            hit = h[i - 1] == r[j - 1]
            cand = [(t + (0 if hit else 1), s + (0 if hit else 1), n, d)]
            t, s, n, d = dp[i][j - 1]
            cand.append((t + 1, s, n, d + 1))
            t, s, n, d = dp[i - 1][j]
            cand.append((t + 1, s, n + 1, d))
            dp[i][j] = min(cand, key=lambda c: c[0])
    _, sub, ins, dele = dp[len(h)][len(r)]
    return sub, ins, dele


# ---------------------------------------------------------------------------
# Vocabulary files
# ---------------------------------------------------------------------------


def load_vocab(path) -> list[str]:
    """One token per line; the token on line i (1-based) gets id i.

    Id 0 is the reserved blank and never appears in the file.
    """
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            token = line.strip()
            if not token:
                continue
            if token in tokens:
                raise ValueError(f"duplicate token '{token}' in vocabulary")
            tokens.append(token)
    if not tokens:
        raise ValueError("vocabulary file is empty")
    return tokens
