"""Training schemes over single-channel data (PT / DS / SIMU), the epoch
cost model, and the toy-corpus harness that trains and compares them.

Modes:
  PT       pretrain the AM on single-channel data, then joint optimization
           (JO) on the multi-channel set;
  DS       one epoch interleaves MULTI batches (joint path) with SINGLE
           batches (back-end only) by the ratio rule N = #single/#multi;
  SIMU     single-channel data is rendered to multi-channel via roomsim and
           pooled with the real multi-channel set; JO over the pool;
  JO_ONLY  joint optimization on the multi-channel set alone.

Reproducibility contract: one SeedSequence per run, spawned into independent
streams (init, plan, pretrain, simulate, augment). A mode that does not use
a stream never draws from it, so with an empty single-channel set every mode
reduces to JO_ONLY bit-exactly under the same seed.
"""

import time
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .backend import LabelSequence, edit_distance, greedy_decode
from .dsp import Waveform, check_subsample_factor, stft
from .pipeline import (
    GradBundle,
    TrainState,
    backward_backend,
    backward_joint,
    bundle_add,
    forward_backend,
    forward_joint,
    init_train_state,
    zeros_bundle,
)
from .roomsim import MicArray, RoomSpec, array_preset, image_source_rir, \
    mix_at_snr, simulate_multichannel

MODES = ("PT", "DS", "SIMU", "JO_ONLY")
MULTI = "MULTI"
SINGLE = "SINGLE"

TOY_SAMPLE_RATE = 8000
TOY_TONE_LOW_HZ = 500.0
TOY_TONE_HIGH_HZ = 3500.0
TOY_BURST_SECONDS = 0.096
TOY_GAP_SECONDS = 0.032
TOY_AMPLITUDE = 0.25
TOY_MIN_LABEL = 3
TOY_MAX_LABEL = 6


class NumericalError(RuntimeError):
    """Training diverged or produced a non-finite quantity."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass
class Utt:
    """An in-memory training utterance (audio + reference labels)."""

    utt_id: str
    wave: Waveform
    labels: LabelSequence
    origin: str  # real | simulated | single


@dataclass
class ScheduleConfig:
    """One training run, fully specified."""

    mode: str
    epochs: int
    multi_batch_size: int
    learning_rate: float = 0.05
    seed: int = 0
    pretrain_epochs: int = 0
    room: RoomSpec | None = None  # SIMU only
    array: MicArray | None = None  # SIMU only
    snr_db: float = 10.0
    max_order: int = 2
    # Feature / model hyper-parameters (toy-scale defaults).
    window_size: int = 256
    hop: int = 128
    n_mels: int = 10
    am_hidden: int = 48
    mask_hidden: int = 8
    context: int = 3
    subsample: int = 3
    vocab_size: int = 6
    # Single-channel augmentation; only PT pretraining applies it.
    speed_perturb: bool = False
    wav_augment: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got '{self.mode}'")
        if self.epochs < 1 or self.multi_batch_size < 1:
            raise ValueError("epochs and multi_batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.pretrain_epochs < 0:
            raise ValueError("pretrain_epochs must be >= 0")
        if self.mode == "SIMU" and (self.room is None or self.array is None):
            raise ValueError("SIMU mode requires room and array settings")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        check_subsample_factor(self.subsample)


@dataclass
class Batch:
    kind: str  # MULTI | SINGLE
    utt_ids: list


@dataclass
class BatchPlan:
    """Ordered batches for one epoch; every utterance appears exactly once."""

    batches: list


@dataclass
class Report:
    """Self-contained record of one training run."""

    mode: str
    seed: int
    config: dict
    epoch_losses: list = field(default_factory=list)  # mean joint loss per epoch
    single_losses: list = field(default_factory=list)  # mean back-end-only loss
    pretrain_losses: list = field(default_factory=list)
    toy_error: float = float("nan")
    wall_clock_per_epoch: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    cost_model: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Cost model (Table-1 mechanism)
# ---------------------------------------------------------------------------


def epoch_cost_model(t1: float, t2: float, n: float, mode: str) -> float:
    """Per-epoch cost: PT/JO_ONLY -> T1, DS -> T1 + T2, SIMU -> (1+N)*T1.

    T1 is one epoch over the multi-channel set (joint path), T2 one epoch
    over the single-channel set (back-end only), N the single/multi
    utterance ratio.
    """
    if t1 <= 0 or t2 <= 0:
        raise ValueError("epoch times must be positive")
    if n < 0:
        raise ValueError("utterance ratio N must be >= 0")
    if mode in ("PT", "JO_ONLY"):
        return t1
    if mode == "DS":
        return t1 + t2
    if mode == "SIMU":
        return (1.0 + n) * t1
    raise ValueError(f"mode must be one of {MODES}, got '{mode}'")


# ---------------------------------------------------------------------------
# Epoch planning
# ---------------------------------------------------------------------------


def plan_epoch(multi_ids, single_ids, cfg: ScheduleConfig, rng: np.random.Generator) -> BatchPlan:
    """Shuffled interleave of MULTI and SINGLE batches covering both sets.

    SINGLE batch size is round(N * multi_batch_size), N = #single/#multi,
    so both sets are swept with (near-)equal batch counts per epoch.
    """
    multi_ids = list(multi_ids)
    single_ids = list(single_ids)
    if not multi_ids:
        raise ValueError("multi-channel set must not be empty")
    n_ratio = len(single_ids) / len(multi_ids)
    multi_order = [multi_ids[i] for i in rng.permutation(len(multi_ids))]
    single_order = [single_ids[i] for i in rng.permutation(len(single_ids))]

    mb = cfg.multi_batch_size
    multi_batches = [
        Batch(MULTI, multi_order[i : i + mb]) for i in range(0, len(multi_order), mb)
    ]
    single_batches = []
    if single_order:
        sb = max(1, round(n_ratio * mb))
        single_batches = [
            Batch(SINGLE, single_order[i : i + sb]) for i in range(0, len(single_order), sb)
        ]
    tags = np.array([MULTI] * len(multi_batches) + [SINGLE] * len(single_batches))
    order = rng.permutation(len(tags))
    queues = {MULTI: iter(multi_batches), SINGLE: iter(single_batches)}
    batches = [next(queues[tags[i]]) for i in order]
    return BatchPlan(batches=batches)


# ---------------------------------------------------------------------------
# Parameter updates
# ---------------------------------------------------------------------------


def apply_sgd(state: TrainState, bundle: GradBundle, lr: float, batch_size: int) -> None:
    """theta <- theta - lr * (summed gradients) / batch_size."""
    scale = lr / batch_size
    for name, grad in bundle.mask.items():
        param = getattr(state.mask_params, name)
        param -= scale * grad
    for name, grad in bundle.am.items():
        param = getattr(state.am_params, name)
        param -= scale * grad
    state.step += 1


def _check_finite_loss(loss: float, where: str) -> None:
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss ({loss}) at {where}")


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------


def _run_batch(state, batch, specs, labels, cfg) -> float:
    """One SGD step: MULTI batches take the joint path, SINGLE batches the
    back end alone (the mask net gets no gradient)."""
    joint = batch.kind == MULTI
    total = zeros_bundle(state)
    loss_sum = 0.0
    for utt_id in batch.utt_ids:
        spec, utt_labels = specs[utt_id], labels[utt_id]
        if joint:
            loss, cache = forward_joint(state, spec, utt_labels, subsample_factor=cfg.subsample)
        else:
            loss, cache = forward_backend(state.am_params, spec, utt_labels,
                                          subsample_factor=cfg.subsample)
        _check_finite_loss(loss, f"utterance '{utt_id}' ({'joint' if joint else 'single'} path)")
        bundle_add(total, backward_joint(cache) if joint
                   else GradBundle(mask={}, am=backward_backend(cache)))
        loss_sum += loss
    apply_sgd(state, total, cfg.learning_rate, len(batch.utt_ids))
    return loss_sum / len(batch.utt_ids)


# ---------------------------------------------------------------------------
# Single-channel augmentation helpers (off by default)
# ---------------------------------------------------------------------------


def speed_perturb(wave: Waveform, factor: float) -> Waveform:
    """Resample by a rational speed factor from {0.9, 1.0, 1.1}."""
    from fractions import Fraction

    from scipy.signal import resample_poly

    if factor == 1.0:
        return wave
    frac = Fraction(factor).limit_denominator(10)
    out = resample_poly(wave.samples, frac.denominator, frac.numerator, axis=1)
    return Waveform(samples=out, sample_rate=wave.sample_rate)


def wav_augment(wave: Waveform, rng: np.random.Generator,
                gain_range=(0.5, 1.5), drop_fraction: float = 0.05) -> Waveform:
    """Random gain plus one zeroed time span (a reduced WavAugment)."""
    gain = rng.uniform(*gain_range)
    out = wave.samples * gain
    drop = int(drop_fraction * wave.n_samples)
    if drop > 0:
        start = int(rng.integers(0, wave.n_samples - drop + 1))
        out = out.copy()
        out[:, start : start + drop] = 0.0
    return Waveform(samples=out, sample_rate=wave.sample_rate)


def _maybe_augment(wave: Waveform, cfg: ScheduleConfig, rng: np.random.Generator) -> Waveform:
    if cfg.speed_perturb:
        factor = [0.9, 1.0, 1.1][int(rng.integers(0, 3))]
        wave = speed_perturb(wave, factor)
    if cfg.wav_augment:
        wave = wav_augment(wave, rng)
    return wave


# ---------------------------------------------------------------------------
# Training schemes
# ---------------------------------------------------------------------------


def _spawn_streams(seed: int):
    init_ss, plan_ss, pretrain_ss, simu_ss, aug_ss = np.random.SeedSequence(seed).spawn(5)
    return {
        "init": np.random.default_rng(init_ss),
        "plan": np.random.default_rng(plan_ss),
        "pretrain": np.random.default_rng(pretrain_ss),
        "simulate": np.random.default_rng(simu_ss),
        "augment": np.random.default_rng(aug_ss),
    }


def _init_state(cfg: ScheduleConfig, rng: np.random.Generator) -> TrainState:
    return init_train_state(
        rng,
        n_mels=cfg.n_mels,
        vocab_size=cfg.vocab_size,
        am_hidden=cfg.am_hidden,
        mask_hidden=cfg.mask_hidden,
        context=cfg.context,
        seed=cfg.seed,
    )


def _pretrain(state, cfg, single_set, rng, aug_rng) -> list:
    """AM-only epochs over the single-channel set; mutates state.am_params."""
    losses = []
    by_id = {u.utt_id: u for u in single_set}
    labels = {u.utt_id: u.labels for u in single_set}
    # Unaugmented waves, so their STFTs, are the same every epoch: one each per run.
    fixed = {} if cfg.speed_perturb or cfg.wav_augment or not cfg.pretrain_epochs else {
        u.utt_id: stft(u.wave, cfg.window_size, cfg.hop) for u in single_set}
    for _ in range(cfg.pretrain_epochs):
        if not single_set:
            losses.append(float("nan"))
            continue
        order = rng.permutation(len(single_set))
        epoch_losses = []
        for i in range(0, len(order), cfg.multi_batch_size):
            ids = [single_set[j].utt_id for j in order[i : i + cfg.multi_batch_size]]
            specs = fixed or {
                uid: stft(_maybe_augment(by_id[uid].wave, cfg, aug_rng),
                          cfg.window_size, cfg.hop)
                for uid in ids
            }
            epoch_losses.append(_run_batch(state, Batch(SINGLE, ids), specs, labels, cfg))
        losses.append(float(np.mean(epoch_losses)))
    return losses


def run_pretrain(cfg: ScheduleConfig, single_set) -> TrainState:
    """Stage one of PT: fresh state, AM trained on clean single-channel data."""
    streams = _spawn_streams(cfg.seed)
    state = _init_state(cfg, streams["init"])
    _pretrain(state, cfg, single_set, streams["pretrain"], streams["augment"])
    return state


def _render_noisy(clean: Waveform, rir, snr_db: float, rng) -> Waveform:
    """Room render of a clean utterance plus spatially white noise at snr_db."""
    rendered = simulate_multichannel(clean, rir)
    noise = Waveform(samples=rng.normal(size=rendered.samples.shape),
                     sample_rate=rendered.sample_rate)
    return mix_at_snr(rendered, noise, snr_db)


def _simulate_single_set(single_set, cfg: ScheduleConfig, rng) -> list:
    """Render single-channel utterances to multi-channel scenes (SIMU)."""
    if not single_set:
        return []
    rir = image_source_rir(cfg.room, cfg.array, cfg.max_order,
                           single_set[0].wave.sample_rate)
    return [
        Utt(utt_id=f"{utt.utt_id}-sim", wave=_render_noisy(utt.wave, rir, cfg.snr_db, rng),
            labels=utt.labels, origin="simulated")
        for utt in single_set
    ]


def run_training(cfg: ScheduleConfig, multi_set, single_set, return_state: bool = False):
    """Execute one scheme end-to-end and emit a Report.

    PT: run_pretrain, then JO on the multi set. DS: interleaved plan, SINGLE
    batches skip the front-end. SIMU: JO over real + simulated multi-channel
    pool. JO_ONLY: JO on the multi set.
    """
    streams = _spawn_streams(cfg.seed)
    state = _init_state(cfg, streams["init"])
    report = Report(mode=cfg.mode, seed=cfg.seed, config=config_to_dict(cfg))

    if cfg.mode == "PT":
        report.pretrain_losses = _pretrain(
            state, cfg, single_set, streams["pretrain"], streams["augment"]
        )

    jo_set = list(multi_set)
    if cfg.mode == "SIMU":
        jo_set = jo_set + _simulate_single_set(single_set, cfg, streams["simulate"])
    ds_single = list(single_set) if cfg.mode == "DS" else []

    pool = jo_set + ds_single
    if len({u.utt_id for u in pool}) != len(pool):
        raise ValueError("utterance ids must be unique across the multi- and single-channel sets")
    # One STFT per utterance per run: the epochs and the final decode share it.
    specs = {u.utt_id: stft(u.wave, cfg.window_size, cfg.hop) for u in pool}
    labels = {u.utt_id: u.labels for u in pool}
    jo_ids = [u.utt_id for u in jo_set]
    single_ids = [u.utt_id for u in ds_single]

    multi_utts = single_utts = 0
    multi_seconds = single_seconds = 0.0
    for epoch in range(cfg.epochs):
        plan = plan_epoch(jo_ids, single_ids, cfg, streams["plan"])
        t_epoch = time.perf_counter()
        joint_losses, single_losses = [], []
        for batch in plan.batches:
            t0 = time.perf_counter()
            loss = _run_batch(state, batch, specs, labels, cfg)
            if batch.kind == MULTI:
                joint_losses.append(loss)
                multi_seconds += time.perf_counter() - t0
                multi_utts += len(batch.utt_ids)
            else:
                single_losses.append(loss)
                single_seconds += time.perf_counter() - t0
                single_utts += len(batch.utt_ids)
        report.epoch_losses.append(float(np.mean(joint_losses)))
        if single_losses:
            report.single_losses.append(float(np.mean(single_losses)))
        report.wall_clock_per_epoch.append(time.perf_counter() - t_epoch)

    report.counters = {
        "epochs": cfg.epochs,
        "frontend_utts_per_epoch": multi_utts // cfg.epochs,
        "single_utts_per_epoch": single_utts // cfg.epochs,
        "multi_set_size": len(multi_set),
        "single_set_size": len(single_set),
    }
    report.cost_model = _cost_prediction(
        cfg, len(multi_set), len(single_set),
        multi_seconds / max(multi_utts, 1), single_seconds / max(single_utts, 1),
    )
    report.toy_error = evaluate_token_error(state, multi_set, cfg, specs)
    if return_state:
        return report, state
    return report


def _cost_prediction(cfg, n_multi, n_single, sec_per_multi, sec_per_single) -> dict:
    """Table-1 style prediction from measured per-utterance costs."""
    n_ratio = n_single / n_multi if n_multi else 0.0
    t1 = sec_per_multi * n_multi
    t2 = sec_per_single * n_single
    prediction = None
    if t1 > 0 and (cfg.mode != "DS" or t2 > 0):
        prediction = epoch_cost_model(t1, max(t2, 1e-12), n_ratio, cfg.mode)
    return {
        "n_ratio": n_ratio,
        "t1_seconds": t1,
        "t2_seconds": t2,
        "predicted_epoch_seconds": prediction,
    }


def evaluate_token_error(state: TrainState, utts, cfg: ScheduleConfig, specs: dict) -> float:
    """Token error rate (S+I+D)/#ref of greedy joint-path decoding.

    specs maps each utterance id to its STFT (run_training's epoch cache);
    decoding runs the joint forward without labels, so no CTC pass.
    """
    if not utts:
        return float("nan")
    total_err = total_ref = 0
    for utt in utts:
        _, cache = forward_joint(state, specs[utt.utt_id], None, subsample_factor=cfg.subsample)
        hyp = greedy_decode(cache["am"]["log_probs"])
        sub, ins, dele = edit_distance(hyp, utt.labels)
        total_err += sub + ins + dele
        total_ref += len(utt.labels)
    return total_err / max(total_ref, 1)


# ---------------------------------------------------------------------------
# Toy corpus
# ---------------------------------------------------------------------------


def toy_room() -> RoomSpec:
    """Small office used for the toy multi-channel renders."""
    return RoomSpec(dims=[5.0, 4.0, 3.0], source_pos=[2.0, 1.5, 1.2], absorption=0.6)


def toy_array() -> MicArray:
    return array_preset("desk-4ch", center=[3.2, 2.6, 1.1])


def toy_scene(room: RoomSpec | None, array: MicArray | None) -> tuple[RoomSpec, MicArray]:
    """room and array, each one that is None replaced by its toy default."""
    return (room if room is not None else toy_room(),
            array if array is not None else toy_array())


def _tone_burst(freq: float, sample_rate: int) -> np.ndarray:
    n = int(TOY_BURST_SECONDS * sample_rate)
    t = np.arange(n) / sample_rate
    envelope = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    return TOY_AMPLITUDE * envelope * np.sin(2.0 * np.pi * freq * t)


def toy_token_freqs(vocab_size: int) -> np.ndarray:
    """One tone per token, log-spaced across the 500-3500 Hz band."""
    return np.geomspace(TOY_TONE_LOW_HZ, TOY_TONE_HIGH_HZ, vocab_size)


def _toy_utterance(ids, vocab_size: int, sample_rate: int) -> np.ndarray:
    freqs = toy_token_freqs(vocab_size)
    gap = np.zeros(int(TOY_GAP_SECONDS * sample_rate))
    pieces = [gap]
    for token in ids:
        pieces.append(_tone_burst(freqs[token - 1], sample_rate))
        pieces.append(gap)
    return np.concatenate(pieces)


def generate_toy_corpus(
    n_multi: int,
    n_single: int,
    vocab_size: int,
    rng: np.random.Generator,
    room: RoomSpec | None = None,
    array: MicArray | None = None,
    snr_db: float = 10.0,
    max_order: int = 2,
    sample_rate: int = TOY_SAMPLE_RATE,
):
    """Deterministic toy corpus: tokens are tone bursts separated by gaps.

    Returns (multi_set, single_set, tokens). Multi-channel utterances are
    image-source renders of fresh clean utterances plus spatially-white
    noise mixed at snr_db; single-channel utterances are clean.
    """
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2")
    if n_multi < 0 or n_single < 0:
        raise ValueError("utterance counts must be >= 0")
    room, array = toy_scene(room, array)
    tokens = [chr(ord("a") + i) if vocab_size <= 26 else f"t{i}" for i in range(vocab_size)]

    def draw(utt_id: str, origin: str, rir) -> Utt:
        # RNG order per utterance: label count, labels, then (rendered) noise.
        ids = rng.integers(1, vocab_size + 1, size=int(rng.integers(TOY_MIN_LABEL,
                                                                    TOY_MAX_LABEL + 1)))
        wave = Waveform(samples=_toy_utterance(ids, vocab_size, sample_rate)[None, :],
                        sample_rate=sample_rate)
        if rir is not None:
            wave = _render_noisy(wave, rir, snr_db, rng)
        labels = LabelSequence(ids=ids, vocab_size=vocab_size,
                               text=" ".join(tokens[t - 1] for t in ids))
        return Utt(utt_id=utt_id, wave=wave, labels=labels, origin=origin)

    rir = image_source_rir(room, array, max_order, sample_rate) if n_multi else None
    multi_set = [draw(f"toy-m{i:04d}", "real", rir) for i in range(n_multi)]
    single_set = [draw(f"toy-s{i:04d}", "single", None) for i in range(n_single)]
    return multi_set, single_set, tokens


# ---------------------------------------------------------------------------
# Scheme comparison harness
# ---------------------------------------------------------------------------


def config_to_dict(cfg: ScheduleConfig) -> dict:
    """JSON-ready config echo (room/array expanded to plain lists)."""
    out = asdict(cfg)
    if cfg.room is not None:
        out["room"] = {
            "dims": cfg.room.dims.tolist(),
            "source_pos": cfg.room.source_pos.tolist(),
            "absorption": cfg.room.absorption.tolist(),
            "sound_speed": cfg.room.sound_speed,
        }
    if cfg.array is not None:
        out["array"] = {"preset": cfg.array.preset,
                        "positions": cfg.array.positions.tolist()}
    return out


def compare_schemes(cfg: ScheduleConfig, multi_set, single_set, seeds) -> dict:
    """Train every mode over the given seeds; report mean toy error each.

    The ordering across schemes is reported, not asserted: at toy scale it
    is seed-sensitive.
    """
    if len(seeds) < 1:
        raise ValueError("need at least one seed")
    per_scheme = {}
    for mode in MODES:
        errors = []
        for seed in seeds:
            changes = {"mode": mode, "seed": int(seed)}
            if mode == "SIMU":
                changes["room"], changes["array"] = toy_scene(cfg.room, cfg.array)
            run_cfg = replace(cfg, **changes)
            report = run_training(run_cfg, multi_set, single_set)
            errors.append(report.toy_error)
        per_scheme[mode] = {
            "errors": errors,
            "mean_error": float(np.mean(errors)),
        }
    ordering = sorted(MODES, key=lambda m: per_scheme[m]["mean_error"])
    return {
        "seeds": [int(s) for s in seeds],
        "per_scheme": per_scheme,
        "ordering_by_mean_error": ordering,
        "note": "ordering is seed-sensitive at toy scale; reported, not asserted",
    }
