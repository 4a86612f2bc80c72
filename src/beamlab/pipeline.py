"""The differentiable joint path: mask net -> MVDR -> fbank -> AM -> CTC.

Forward and backward are written by hand. Real stages use ordinary
reverse-mode rules; the complex stages (masked PSDs, the loaded-inverse
ratio, trace normalization, the beamformer sum) use Wirtinger-calculus
adjoints under the convention

    g_Z = dL/d(Re Z) + i * dL/d(Im Z),    dL = Re <g_Z, dZ>,

with <A, B> = sum conj(A) * B. The two identities doing the heavy lifting
are d(A^-1) = -A^-1 dA A^-1 and the conjugate pairing of a real loss.

Each differentiable operation's adjoint lives beside its forward
(`beamform.masked_psd_pair_vjp`, `beamform.normalized_psd_ratio_vjp`,
`beamform.apply_beamformer_vjp`, `dsp.fbank_chain_vjp`, `backend.mlp2_backward`,
`backend.am_backward`); this module wires them into the joint graph.

Numerical conventions shared with the rest of the package:
  * reference channel is selected once per utterance and treated as a
    constant (the argmax is not differentiated);
  * the diagonal-loading term added to Phi_NN is treated as constant in
    the adjoint (see `beamform.normalized_psd_ratio_vjp`);
  * SpecAugment never appears on this path.
"""

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import backend as _backend
from .backend import PARAM_NAMES, AmParams, LabelSequence, am_backward, \
    am_forward_cached, ctc_loss, mlp2_backward, mlp2_forward
from .beamform import apply_beamformer_vjp, masked_psd_pair_vjp, normalized_psd_ratio_vjp, \
    select_reference
from .dsp import LOG_FLOOR, Spectrogram, fbank_chain_vjp, mel_filterbank

DEFAULT_SUBSAMPLE = 3
CHECKPOINT_VERSION = 1
# Denominator floor for finite-difference relative errors: differences below
# this scale are dominated by roundoff in the central difference itself.
REL_ERROR_FLOOR = 1e-5


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass
class MaskNetParams:
    """2-layer net from per-(t,f) log-magnitude context to a mask logit.

    Its first layer is a 3-tap filter over frequency: w1 [3, H] weighs the
    (f-1, f, f+1) log magnitudes of the first channel (edges replicated);
    output is one sigmoid speech-mask logit.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        _backend.coerce_finite_params(self, "mask-net")
        if self.w1.shape[0] != 3:
            raise ValueError("mask net consumes 3 log-magnitude context values")
        if self.w1.shape[1] != self.b1.shape[0]:
            raise ValueError("b1 must match w1 output dim")
        if self.w2.shape != (self.w1.shape[1], 1) or self.b2.shape != (1,):
            raise ValueError("second layer must map hidden -> 1 logit")


@dataclass
class TrainState:
    """Everything trainable plus bookkeeping; serializable to a checkpoint."""

    mask_params: MaskNetParams
    am_params: AmParams
    moments: dict = field(default_factory=dict)  # reserved; plain SGD keeps none
    step: int = 0
    seed: int = 0


@dataclass
class GradBundle:
    """Gradients mirroring TrainState's trainable arrays."""

    mask: dict
    am: dict

    def __post_init__(self):
        for group in (self.mask, self.am):
            for name, arr in group.items():
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"non-finite gradient for {name}")


def init_mask_params(rng: np.random.Generator, hidden_dim: int = 8) -> MaskNetParams:
    return MaskNetParams(**_backend.mlp2_init(rng, 3, hidden_dim, 1))


def init_train_state(
    rng: np.random.Generator,
    n_mels: int,
    vocab_size: int,
    am_hidden: int = 32,
    mask_hidden: int = 8,
    context: int = _backend.DEFAULT_CONTEXT,
    seed: int = 0,
) -> TrainState:
    """Fresh parameters; AM consumes fbank+delta+delta-delta (3*n_mels dims)."""
    mask_params = init_mask_params(rng, mask_hidden)
    am_params = _backend.init_am_params(rng, 3 * n_mels, am_hidden, vocab_size, context)
    return TrainState(mask_params=mask_params, am_params=am_params, seed=seed)


def zeros_bundle(state: TrainState) -> GradBundle:
    return GradBundle(
        mask={n: np.zeros_like(getattr(state.mask_params, n)) for n in PARAM_NAMES},
        am={n: np.zeros_like(getattr(state.am_params, n)) for n in PARAM_NAMES},
    )


def bundle_add(acc: GradBundle, other: GradBundle) -> None:
    """In-place acc += other (deterministic ordered sum); names absent from other add 0."""
    for name, grad in other.mask.items():
        acc.mask[name] += grad
    for name, grad in other.am.items():
        acc.am[name] += grad


# ---------------------------------------------------------------------------
# Back-end tail (shared by both paths) and the back-end-only path
# ---------------------------------------------------------------------------


def _backend_tail(am_params: AmParams, spec: Spectrogram, xhat: np.ndarray,
                  labels: LabelSequence | None, subsample_factor: int) -> dict:
    """mel -> feature chain -> AM -> CTC on single-channel bins [T, F]; labels None skips CTC."""
    mel = mel_filterbank(_n_mels_for(am_params), spec.freq_bins, spec.window_size,
                         spec.sample_rate)
    feats, feat_vjp = fbank_chain_vjp(xhat, mel, subsample_factor)
    log_probs, am_cache = am_forward_cached(feats, am_params)
    loss, g_lattice = (None, None) if labels is None else ctc_loss(log_probs, labels)
    return {"feat_vjp": feat_vjp, "am": am_cache, "g_lattice": g_lattice, "loss": loss}


def forward_backend(
    am_params: AmParams,
    spec: Spectrogram,
    labels: LabelSequence,
    subsample_factor: int = DEFAULT_SUBSAMPLE,
):
    """Single-channel loss: fbank -> cmvn -> deltas -> subsample -> AM -> CTC."""
    if spec.channels != 1:
        raise ValueError("backend path requires a single-channel spectrogram")
    tail = _backend_tail(am_params, spec, spec.bins[:, :, 0], labels, subsample_factor)
    return tail["loss"], {"kind": "backend", "am_params": am_params, **tail}


def backward_backend(cache: dict) -> dict:
    """AM parameter gradients for a forward_backend cache."""
    if cache.get("kind") != "backend":
        raise ValueError("cache was not produced by forward_backend")
    am_grads, _ = am_backward(cache["am_params"], cache["am"], cache["g_lattice"])
    return am_grads


def _n_mels_for(am_params: AmParams) -> int:
    if am_params.feat_dim % 3 != 0:
        raise ValueError("AM feature dim must be 3 * n_mels (fbank + deltas)")
    return am_params.feat_dim // 3


# ---------------------------------------------------------------------------
# Joint path forward
# ---------------------------------------------------------------------------


def mask_net_forward(mask_params: MaskNetParams, bins: np.ndarray):
    """Speech mask in (0,1) from channel-0 log magnitudes, [T, F].
    The context is the edge-padded log magnitude at f-1, f, f+1: three [T, F]
    planes, so the first layer is a 3-tap filter over frequency."""
    n_frames, n_bins = bins.shape[:2]
    x = bins[:, :, 0]
    planes = np.empty((3, n_frames, n_bins))
    planes[1] = 0.5 * np.log(x.real ** 2 + x.imag ** 2 + LOG_FLOOR)  # smooth-floored
    planes[0, :, 1:], planes[0, :, 0] = planes[1, :, :-1], planes[1, :, 0]
    planes[2, :, :-1], planes[2, :, -1] = planes[1, :, 1:], planes[1, :, -1]
    ctx = planes.reshape(3, -1).T
    logits, hidden = mlp2_forward(mask_params, ctx)
    mask = expit(logits).reshape(n_frames, n_bins)
    cache = {"ctx": ctx, "hidden": hidden, "mask": mask}
    return mask, cache


def forward_joint(
    state: TrainState,
    utt: Spectrogram,
    labels: LabelSequence | None,
    subsample_factor: int = DEFAULT_SUBSAMPLE,
    ref_channel: int | None = None,
    mask_override: float | None = None,
):
    """Joint loss L = -log p(l | Feature(x_hat)) and the backward cache; labels None: decode only.

    ref_channel pins the reference microphone (otherwise select_reference
    chooses it from the speech PSD); mask_override clamps the speech mask to
    a constant, detaching the mask net (a test mode).
    """
    bins = utt.bins
    if bins.shape[2] < 1:
        raise ValueError("need at least one channel")
    if mask_override is not None:
        if not 0.0 < mask_override < 1.0:
            raise ValueError("mask_override must lie strictly in (0, 1)")
        mask = np.full(bins.shape[:2], float(mask_override))
        mask_cache = None
    else:
        mask, mask_cache = mask_net_forward(state.mask_params, bins)

    phi_ss, phi_nn, psd_vjp = masked_psd_pair_vjp(bins, mask)
    weights, ratio_vjp = normalized_psd_ratio_vjp(phi_ss, phi_nn)
    ref = int(ref_channel) if ref_channel is not None else select_reference(phi_ss)
    if not 0 <= ref < bins.shape[2]:
        raise ValueError("ref channel out of range")
    h = weights[:, :, ref]
    xhat, beam_vjp = apply_beamformer_vjp(h, bins)
    tail = _backend_tail(state.am_params, utt, xhat, labels, subsample_factor)
    cache = {
        "kind": "joint",
        "state": state,
        "bins": bins,
        "mask_cache": mask_cache,
        "psd_vjp": psd_vjp,
        "ratio_vjp": ratio_vjp,
        "ref": ref,
        "h": h,
        "beam_vjp": beam_vjp,
        **tail,
    }
    return tail["loss"], cache


# ---------------------------------------------------------------------------
# Joint path backward
# ---------------------------------------------------------------------------


def backward_joint(cache: dict) -> GradBundle:
    """Exact reverse-mode gradients for every trainable array."""
    if cache.get("kind") != "joint":
        raise ValueError("cache was not produced by forward_joint")
    state = cache["state"]
    bins = cache["bins"]

    # Back-end and feature stages (real-valued until |z|^2).
    am_grads, g_feats = am_backward(state.am_params, cache["am"], cache["g_lattice"])
    g_xhat = cache["feat_vjp"](g_feats)

    # h = W[:, :, ref], so g_h lands in the ref column of g_W.
    g_weights = np.zeros((bins.shape[1], bins.shape[2], bins.shape[2]), dtype=np.complex128)
    g_weights[:, :, cache["ref"]] = cache["beam_vjp"](g_xhat)
    g_phi_ss, g_phi_nn = cache["ratio_vjp"](g_weights)

    # The mask feeds both PSDs; the noise mask is 1 - speech mask.
    g_mask = cache["psd_vjp"](g_phi_ss, g_phi_nn)

    if cache["mask_cache"] is None:  # clamped masks: net detached
        mask_grads = zeros_bundle(state).mask
    else:  # sigmoid, then the mask net's 2-layer MLP
        mc = cache["mask_cache"]
        g_logit = (g_mask * mc["mask"] * (1.0 - mc["mask"])).reshape(-1, 1)
        mask_grads, _ = mlp2_backward(state.mask_params, mc["ctx"], mc["hidden"], g_logit,
                                      input_grad=False)
    return GradBundle(mask=mask_grads, am=am_grads)


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------


def central_difference(loss_fn, array: np.ndarray, index, epsilon: float) -> float:
    """Central difference of loss_fn w.r.t. array[index], restoring the entry."""
    original = array[index]
    array[index] = original + epsilon
    plus = loss_fn()
    array[index] = original - epsilon
    minus = loss_fn()
    array[index] = original
    return (plus - minus) / (2.0 * epsilon)


def _relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), REL_ERROR_FLOOR)


def finite_diff_check(
    state: TrainState,
    utt: Spectrogram,
    labels: LabelSequence,
    epsilon: float = 1e-5,
    subsample_factor: int = DEFAULT_SUBSAMPLE,
    breakdown: dict | None = None,
    corrupt_adjoint: bool = False,
) -> float:
    """Worst relative error of backward_joint vs central differences.

    Every entry of every trainable array is perturbed; the reference channel
    is pinned to the unperturbed selection so the argmax cannot flip between
    the two sides of a difference. Pass a dict as `breakdown` to receive the
    worst error per parameter array. corrupt_adjoint deliberately shifts one
    analytic gradient entry first — a negative control that must fail.
    """
    if epsilon <= 0.0 or not np.isfinite(epsilon):
        raise ValueError("invalid epsilon: must be a positive finite step")
    loss0, cache = forward_joint(state, utt, labels, subsample_factor)
    if not np.isfinite(loss0):
        raise ValueError("non-finite loss at the evaluation point")
    bundle = backward_joint(cache)
    if corrupt_adjoint:
        bundle.am["b2"][0] += 1.0
    ref = cache["ref"]

    def loss_fn():
        loss, _ = forward_joint(state, utt, labels, subsample_factor, ref_channel=ref)
        return loss

    worst = 0.0
    groups = [
        ("mask", state.mask_params, bundle.mask),
        ("am", state.am_params, bundle.am),
    ]
    for group_name, params, grads in groups:
        for name in PARAM_NAMES:
            array = getattr(params, name)
            analytic = grads[name]
            group_worst = 0.0
            for index in np.ndindex(array.shape):
                numeric = central_difference(loss_fn, array, index, epsilon)
                group_worst = max(group_worst, _relative_error(analytic[index], numeric))
            if breakdown is not None:
                breakdown[f"{group_name}.{name}"] = group_worst
            worst = max(worst, group_worst)
    return worst


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(state: TrainState, path) -> None:
    """JSON container; float64 survives the round trip exactly."""
    payload = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "step": state.step,
        "seed": state.seed,
        "moments": {k: np.asarray(v).tolist() for k, v in state.moments.items()},
        "mask_params": {n: getattr(state.mask_params, n).tolist() for n in PARAM_NAMES},
        "am_params": {
            **{n: getattr(state.am_params, n).tolist() for n in PARAM_NAMES},
            "context": state.am_params.context,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> TrainState:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("checkpoint_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version: {version}")
    try:
        mp = payload["mask_params"]
        ap = payload["am_params"]
        mask_params = MaskNetParams(**{n: np.asarray(mp[n]) for n in PARAM_NAMES})
        am_params = AmParams(**{n: np.asarray(ap[n]) for n in PARAM_NAMES},
                             context=int(ap["context"]))
        return TrainState(
            mask_params=mask_params,
            am_params=am_params,
            moments={k: np.asarray(v) for k, v in payload["moments"].items()},
            step=int(payload["step"]),
            seed=int(payload["seed"]),
        )
    except KeyError as exc:
        raise ValueError(f"corrupted checkpoint: missing field {exc}") from None
