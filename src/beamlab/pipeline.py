"""The differentiable joint path: mask net -> MVDR -> fbank -> AM -> CTC.

Forward and backward are written by hand. Real stages use ordinary
reverse-mode rules; the complex stages (masked PSD sums, linear in the
mask, the loaded-inverse ratio, trace normalization, the beamformer sum) use
Wirtinger-calculus adjoints under the convention

    g_Z = dL/d(Re Z) + i * dL/d(Im Z),    dL = Re <g_Z, dZ>,

with <A, B> = sum conj(A) * B. The two identities doing the heavy lifting
are d(A^-1) = -A^-1 dA A^-1 and the conjugate pairing of a real loss.

Every stage returns its output and its vjp (vector-Jacobian product), written
beside its forward: the mask net (`mask_net_forward`, sigmoid included), the
MVDR chain (`beamform.mvdr_weights`, over `beamform.masked_psd_pair_vjp` and
`beamform.normalized_psd_ratio_vjp`), `beamform.apply_beamformer_vjp`,
`dsp.fbank_chain_vjp`, `backend.am_forward_cached` and `backend.ctc_loss`.
`backward_joint` composes the vjps `forward_joint` keeps. `max_fd_error` is
the one central-difference check, of `finite_diff_check` (`gradcheck`) and of
every adjoint test. An "am.*" entry cannot change the mask net, the MVDR chain
or the features, so `finite_diff_check` perturbs it on the cached front end:
the AM and CTC on the unperturbed features, bit for bit `forward_joint`'s loss.

Both nets have one parameter type, `backend.Mlp2Params` (the AM's `AmParams`
adds its context window). Gradients are plain dicts keyed like `param_arrays`:
"mask.w1" ... "mask.b2" for the mask net, "am.w1" ... "am.b2" for the AM.
`backward_joint` returns all eight keys, `backward_backend` the four "am.*" keys.

Numerical conventions shared with the rest of the package:
  * reference channel is selected once per utterance, from the speech sum
    per unit mask, and treated as a constant (the argmax is not differentiated);
  * the diagonal loading added to Phi_NN, a multiple of its trace, has
    its exact adjoint (see `beamform.normalized_psd_ratio_vjp`).
"""

import json
from dataclasses import dataclass

import numpy as np

from . import backend as _backend
from .backend import PARAM_NAMES, AmParams, LabelSequence, Mlp2Params, am_forward_cached, \
    ctc_loss, mlp2_backward, mlp2_forward
from .beamform import apply_beamformer_vjp, mvdr_weights
from .dsp import LOG_FLOOR, Spectrogram, fbank_chain_vjp, mel_filterbank

CHECKPOINT_VERSION = 1
# Denominator floor for finite-difference relative errors: differences below
# this scale are dominated by roundoff in the central difference itself.
REL_ERROR_FLOOR = 1e-5


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    """Everything trainable plus bookkeeping; serializable to a checkpoint."""

    mask_params: Mlp2Params  # 3 log magnitudes in, 1 logit out: see mask_net_forward
    am_params: AmParams
    seed: int
    step: int = 0


def init_train_state(
    rng: np.random.Generator,
    n_mels: int,
    vocab_size: int,
    am_hidden: int,
    mask_hidden: int,
    context: int = _backend.DEFAULT_CONTEXT,
    seed: int = 0,
) -> TrainState:
    """Fresh parameters; AM consumes fbank+delta+delta-delta (3*n_mels dims)."""
    mask_params = Mlp2Params(**_backend.mlp2_init(rng, 3, mask_hidden, 1))
    am_params = _backend.init_am_params(rng, 3 * n_mels, am_hidden, vocab_size, context)
    return TrainState(mask_params=mask_params, am_params=am_params, seed=seed)


def param_arrays(state: TrainState) -> dict:
    """The live trainable arrays, keyed "mask.w1" ... "am.b2" like their gradients."""
    return {f"{group}.{name}": getattr(params, name)
            for group, params in (("mask", state.mask_params), ("am", state.am_params))
            for name in PARAM_NAMES}


# ---------------------------------------------------------------------------
# Back-end tail (shared by both paths) and the back-end-only path
# ---------------------------------------------------------------------------


def _backend_tail(am_params: AmParams, spec: Spectrogram, xhat: np.ndarray,
                  labels: LabelSequence | None, subsample_factor: int):
    """mel -> feature chain -> AM -> CTC on single-channel bins [T, F]: (loss, cache with
    "feats", "log_probs", "feat_vjp", "am_vjp" and "ctc_vjp"); labels None skips CTC (both None)."""
    mel = mel_filterbank(_n_mels_for(am_params), spec.freq_bins, spec.window_size,
                         spec.sample_rate)
    feats, feat_vjp = fbank_chain_vjp(xhat, mel, subsample_factor)
    log_probs, am_vjp = am_forward_cached(feats, am_params)
    loss, ctc_vjp = (None, None) if labels is None else ctc_loss(log_probs, labels)
    return loss, dict(feats=feats, log_probs=log_probs, feat_vjp=feat_vjp, am_vjp=am_vjp,
                      ctc_vjp=ctc_vjp)


def forward_backend(
    am_params: AmParams,
    spec: Spectrogram,
    labels: LabelSequence,
    subsample_factor: int,
):
    """Single-channel loss: fbank -> cmvn -> deltas -> subsample -> AM -> CTC."""
    if spec.channels != 1:
        raise ValueError("backend path requires a single-channel spectrogram")
    return _backend_tail(am_params, spec, spec.bins[:, :, 0], labels, subsample_factor)


def backward_backend(cache: dict) -> dict:
    """The "am.*" gradients for a forward_backend cache: CTC's vjp, then the AM's."""
    return {f"am.{name}": grad for name, grad in cache["am_vjp"](cache["ctc_vjp"]())[0].items()}


def _n_mels_for(am_params: AmParams) -> int:
    if am_params.feat_dim % 3 != 0:
        raise ValueError("AM feature dim must be 3 * n_mels (fbank + deltas)")
    return am_params.feat_dim // 3


# ---------------------------------------------------------------------------
# Joint path forward
# ---------------------------------------------------------------------------


def mask_net_forward(mask_params: Mlp2Params, bins: np.ndarray):
    """Speech mask in (0,1) from channel-0 log magnitudes, [T, F]: a sigmoid over
    the mask net's one logit. The context is the edge-padded log magnitude at
    f-1, f, f+1: three [T, F] planes, so w1 [3, H] is a 3-tap filter over frequency.
    Returns (mask, vjp); vjp(g_mask) -> the parameter gradients keyed by PARAM_NAMES."""
    n_frames, n_bins = bins.shape[:2]
    x = bins[:, :, 0]
    planes = np.empty((3, n_frames, n_bins))
    planes[1] = 0.5 * np.log(x.real ** 2 + x.imag ** 2 + LOG_FLOOR)  # smooth-floored
    planes[0, :, 1:], planes[0, :, 0] = planes[1, :, :-1], planes[1, :, 0]
    planes[2, :, :-1], planes[2, :, -1] = planes[1, :, 1:], planes[1, :, -1]
    ctx = planes.reshape(3, -1).T
    logits, hidden = mlp2_forward(mask_params, ctx)
    mask = (1.0 / (1.0 + np.exp(-logits))).reshape(n_frames, n_bins)  # a third of expit's time

    def vjp(g_mask: np.ndarray) -> dict:
        g_logit = (g_mask * mask * (1.0 - mask)).reshape(-1, 1)  # sigmoid' = m (1 - m)
        return mlp2_backward(mask_params, ctx, hidden, g_logit)[0]

    return mask, vjp


def forward_joint(
    state: TrainState,
    utt: Spectrogram,
    labels: LabelSequence | None,
    subsample_factor: int,
    ref_channel: int | None = None,
):
    """Joint loss L = -log p(l | Feature(x_hat)) and the backward cache; labels None: decode only.

    ref_channel pins the reference microphone (otherwise select_reference
    chooses it from the speech PSD). The cache holds "ref", "feats", "log_probs" and
    each stage's vjp: "mask_vjp", "mvdr_vjp", "beam_vjp", "feat_vjp", "am_vjp", "ctc_vjp".
    """
    bins = utt.bins
    mask, mask_vjp = mask_net_forward(state.mask_params, bins)
    h, ref, mvdr_vjp = mvdr_weights(bins, mask, ref_channel)
    xhat, beam_vjp = apply_beamformer_vjp(h, bins)
    loss, tail = _backend_tail(state.am_params, utt, xhat, labels, subsample_factor)
    return loss, {"ref": ref, "mask_vjp": mask_vjp, "mvdr_vjp": mvdr_vjp,
                  "beam_vjp": beam_vjp, **tail}


# ---------------------------------------------------------------------------
# Joint path backward
# ---------------------------------------------------------------------------


def backward_joint(cache: dict) -> dict:
    """Exact reverse-mode gradients of a forward_joint cache for every trainable
    array, keyed like param_arrays: "mask.w1" ... "mask.b2", "am.w1" ... "am.b2".
    CTC's vjp, then the AM's, then the front end's back to the mask net's."""
    am_grads, grad = cache["am_vjp"](cache["ctc_vjp"]())
    for stage in ("feat_vjp", "beam_vjp", "mvdr_vjp", "mask_vjp"):
        grad = cache[stage](grad)  # the mask net's vjp returns its parameter gradients
    return {**{f"mask.{name}": g for name, g in grad.items()},
            **{f"am.{name}": g for name, g in am_grads.items()}}


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------


def max_fd_error(loss_fn, array: np.ndarray, analytic: np.ndarray, epsilon: float,
                 name: str) -> float:
    """Worst relative error of `analytic` against central differences of loss_fn
    over every entry of `array`, each perturbed in place and restored even if
    loss_fn raises. Complex arrays are perturbed on Re and Im through their float64
    view, which matches the Wirtinger gradient g = dL/dRe + i dL/dIm entry for entry.
    A non-finite analytic entry or perturbed loss is a ValueError naming `name`."""
    if np.iscomplexobj(array):
        array, analytic = array.view(np.float64), analytic.view(np.float64)
    if not np.isfinite(analytic).all():
        raise ValueError(f"non-finite analytic gradient for {name}")
    worst = 0.0
    for index in np.ndindex(array.shape):
        original = array[index]
        try:
            array[index] = original + epsilon
            plus = loss_fn()
            array[index] = original - epsilon
            minus = loss_fn()
        finally:
            array[index] = original
        numeric = (plus - minus) / (2.0 * epsilon)
        if not np.isfinite(numeric):
            raise ValueError(f"non-finite perturbed loss for {name} at index {index}")
        worst = max(worst, abs(analytic[index] - numeric)
                    / max(abs(analytic[index]), abs(numeric), REL_ERROR_FLOOR))
    return worst


def finite_diff_check(
    state: TrainState,
    utt: Spectrogram,
    labels: LabelSequence,
    subsample_factor: int,
    epsilon: float,
    corrupt_adjoint: bool,
) -> dict:
    """Worst relative error (`max_fd_error`) of backward_joint per trainable
    array, keyed "mask.w1" ... "am.b2"; its max is the check's error.

    The reference channel is pinned to the unperturbed selection so the
    argmax cannot flip between the two sides of a difference; "am.*" entries
    are perturbed on the cached front end. corrupt_adjoint shifts one analytic
    gradient entry first — a negative control that must fail.
    """
    if epsilon <= 0.0 or not np.isfinite(epsilon):
        raise ValueError("invalid epsilon: must be a positive finite step")
    loss0, cache = forward_joint(state, utt, labels, subsample_factor)
    if not np.isfinite(loss0):
        raise ValueError("non-finite loss at the evaluation point")
    grads = backward_joint(cache)
    if corrupt_adjoint:
        grads["am.b2"][0] += 1.0
    ref, feats = cache["ref"], cache["feats"]

    def joint_loss():
        return forward_joint(state, utt, labels, subsample_factor, ref_channel=ref)[0]

    def am_loss():
        return ctc_loss(am_forward_cached(feats, state.am_params)[0], labels)[0]

    return {key: max_fd_error(am_loss if key.startswith("am.") else joint_loss, array,
                              grads[key], epsilon, key)
            for key, array in param_arrays(state).items()}


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(state: TrainState, path) -> None:
    """JSON container; float64 survives the round trip exactly."""
    payload = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "step": state.step,
        "seed": state.seed,
        "mask_params": {n: getattr(state.mask_params, n).tolist() for n in PARAM_NAMES},
        "am_params": {
            **{n: getattr(state.am_params, n).tolist() for n in PARAM_NAMES},
            "context": state.am_params.context,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> TrainState:
    """A save_checkpoint file; a "moments" key (always empty, from older writers) is ignored.
    A payload of any other shape is a ValueError that names the file (and the bad group)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupted checkpoint {path}: {exc.msg}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"corrupted checkpoint {path}: not a JSON object")
    version = payload.get("checkpoint_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version in {path}: {version}")
    group = None  # the group being read, named in the error
    try:
        step, seed = int(payload["step"]), int(payload["seed"])
        mask, am = payload["mask_params"], payload["am_params"]
        group = "mask_params"
        mask_params = Mlp2Params(**{n: mask[n] for n in PARAM_NAMES})
        if mask_params.w1.shape[0] != 3 or mask_params.w2.shape[1] != 1:
            raise ValueError("the mask net maps 3 log magnitudes to 1 logit, "
                             f"not w1 {mask_params.w1.shape} and w2 {mask_params.w2.shape}")
        group = "am_params"
        am_params = AmParams(**{n: am[n] for n in PARAM_NAMES},
                             context=int(am["context"]))
    except (KeyError, TypeError, ValueError) as exc:
        problem = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        where = f"{group}: " if group else ""
        raise ValueError(f"corrupted checkpoint {path}: {where}{problem}") from None
    return TrainState(mask_params=mask_params, am_params=am_params, step=step, seed=seed)
