"""Training schemes over single-channel data (PT / DS / SIMU), the epoch
cost model of Table 1 (TABLE1, one row per mode), and the toy-corpus
harness that trains and compares them.

Modes:
  PT       pretrain the AM on single-channel data, then joint optimization
           (JO) on the multi-channel set;
  DS       one epoch interleaves MULTI batches (joint path) with SINGLE
           batches (back-end only) by the ratio rule N = #single/#multi;
  SIMU     single-channel data is rendered to multi-channel via roomsim and
           pooled with the real multi-channel set; JO over the pool;
  JO_ONLY  joint optimization on the multi-channel set alone.

Reproducibility contract: one SeedSequence per run, spawned into independent
streams (init, plan, pretrain, simulate). A mode that does not use
a stream never draws from it, so with an empty single-channel set every mode
reduces to JO_ONLY bit-exactly under the same seed. A run builds one run
cache, {utt_id: (STFT, labels)}, before it trains. With two usable CPUs a
forked helper inherits it and computes half of every batch and of the
decode, and Reports stay bit-identical to one process.
"""

import ctypes
import multiprocessing as mp
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .backend import LabelSequence, edit_distance, greedy_decode
from .dsp import Waveform, check_subsample_factor, stft
from .pipeline import (
    TrainState,
    backward_backend,
    backward_joint,
    forward_backend,
    forward_joint,
    init_train_state,
    param_arrays,
)
from .roomsim import MicArray, RoomSpec, array_preset, image_source_rir, \
    mix_at_snr, simulate_multichannel

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


# A SIMU render's utterance id is its single-channel source's id plus this.
SIM_SUFFIX = "-sim"


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


@dataclass
class ScheduleConfig:
    """One training run, fully specified."""

    mode: str
    epochs: int
    multi_batch_size: int
    learning_rate: float = 0.05
    seed: int = 0
    pretrain_epochs: int = 0
    room: RoomSpec | None = None  # SIMU only; None there is toy_room()
    array: MicArray | None = None  # SIMU only; None there is toy_array()
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

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got '{self.mode}'")
        if self.epochs < 1 or self.multi_batch_size < 1:
            raise ValueError("epochs and multi_batch_size must be positive")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if self.mode == "SIMU":
            self.room = toy_room() if self.room is None else self.room
            self.array = toy_array() if self.array is None else self.array
        for name, low in (("pretrain_epochs", 0), ("n_mels", 1), ("am_hidden", 1),
                          ("mask_hidden", 1), ("context", 0), ("vocab_size", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        check_subsample_factor(self.subsample)


@dataclass
class Batch:
    kind: str  # MULTI | SINGLE
    utt_ids: list


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

# Table 1, one row per mode: single-stage training?, augmented front-end data?, and the
# epoch cost as text and as the function of (T1, T2, N) that epoch_cost_model evaluates.
TABLE1 = {
    "PT": ("no", "no", "T1", lambda t1, t2, n: t1),
    "DS": ("yes", "no", "T1+T2", lambda t1, t2, n: t1 + t2),
    "SIMU": ("yes", "yes", "(1+N)*T1", lambda t1, t2, n: (1.0 + n) * t1),
    "JO_ONLY": ("yes", "no", "T1", lambda t1, t2, n: t1),
}
MODES = tuple(TABLE1)


def epoch_cost_model(t1: float, t2: float, n: float, mode: str) -> float:
    """Per-epoch cost of mode: its TABLE1 row's function of (T1, T2, N).

    T1 is one epoch over the multi-channel set (joint path), T2 one epoch
    over the single-channel set (back-end only), N the single/multi
    utterance ratio. T2 is 0 when there is no single-channel set.
    """
    if t1 <= 0 or t2 < 0:
        raise ValueError("epoch times must be T1 > 0 and T2 >= 0")
    if n < 0:
        raise ValueError("utterance ratio N must be >= 0")
    if mode not in TABLE1:
        raise ValueError(f"mode must be one of {MODES}, got '{mode}'")
    return TABLE1[mode][3](t1, t2, n)


# ---------------------------------------------------------------------------
# Epoch planning
# ---------------------------------------------------------------------------


def plan_epoch(multi_ids, single_ids, cfg: ScheduleConfig, rng: np.random.Generator) -> list:
    """Shuffled interleave of MULTI and SINGLE batches; every utterance appears exactly once.

    SINGLE batch size is round(N * multi_batch_size), N = #single/#multi,
    so both sets are swept with (near-)equal batch counts per epoch.
    """
    if not multi_ids:
        raise ValueError("multi-channel set must not be empty")
    n_ratio = len(single_ids) / len(multi_ids)
    mb = cfg.multi_batch_size
    multi_batches = _batches(MULTI, multi_ids, mb, rng)
    single_batches = _batches(SINGLE, single_ids, max(1, round(n_ratio * mb)), rng)
    tags = np.array([MULTI] * len(multi_batches) + [SINGLE] * len(single_batches))
    order = rng.permutation(len(tags))
    queues = {MULTI: iter(multi_batches), SINGLE: iter(single_batches)}
    return [next(queues[tags[i]]) for i in order]


def _batches(kind: str, ids: list, size: int, rng: np.random.Generator) -> list:
    """ids in the order of one rng.permutation, cut into Batches of size (the last may be
    shorter). The one place where batches are shuffled and cut."""
    order = [ids[i] for i in rng.permutation(len(ids))]
    return [Batch(kind, order[i : i + size]) for i in range(0, len(order), size)]


# ---------------------------------------------------------------------------
# Parameter updates
# ---------------------------------------------------------------------------


def apply_sgd(state: TrainState, grads: dict, lr: float, batch_size: int) -> None:
    """theta <- theta - lr * (summed gradients) / batch_size; grads keyed like param_arrays."""
    scale = lr / batch_size
    for key, param in param_arrays(state).items():
        param -= scale * grads[key]
    state.step += 1


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------


def _utt_grads(state, data, cfg, utt_id, joint):
    """Loss and gradient dict of one utterance, joint or back end alone (no "mask.*" keys).
    A non-finite loss or gradient is a NumericalError naming the utterance."""
    spec, utt_labels = data[utt_id]
    if joint:
        loss, cache = forward_joint(state, spec, utt_labels, subsample_factor=cfg.subsample)
    else:
        loss, cache = forward_backend(state.am_params, spec, utt_labels,
                                      subsample_factor=cfg.subsample)
    where = f"at utterance '{utt_id}' ({'joint' if joint else 'single'} path)"
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss ({loss}) {where}")
    grads = backward_joint(cache) if joint else backward_backend(cache)
    for key, grad in grads.items():
        if not np.isfinite(grad).all():
            raise NumericalError(f"non-finite gradient for {key} {where}")
    return loss, grads


def _zero_grads(state):
    return {key: np.zeros_like(array) for key, array in param_arrays(state).items()}


def _add_grads(total, loss_sum, results):
    """total += each result's gradients by key (a back-end-only result adds no "mask.*")."""
    for loss, grads in results:
        for key, grad in grads.items():
            total[key] += grad
        loss_sum += loss
    return total, loss_sum


def _sum_grads(state, data, cfg, utt_ids, joint):
    """The ordered sum from zero of the utterances' gradients and losses."""
    return _add_grads(_zero_grads(state), 0.0,
                      (_utt_grads(state, data, cfg, u, joint) for u in utt_ids))


def _split(helper, state, ids, remote, local, *args):
    """(remote(state, data, cfg, first ceil(n/2) ids, *args) from the helper or None,
    local(the rest)); local gets all ids if n = 1. The helper's come first: its raise wins."""
    share = (len(ids) + 1) // 2 if helper and len(ids) > 1 else 0
    if share:
        helper.send((remote, state, ids[:share], args))
    try:
        mine = local(ids[share:])
    finally:
        theirs = helper.recv() if share else None
        if isinstance(theirs, Exception):
            raise theirs
    return theirs, mine


def _run_batch(state, batch, data, cfg, helper) -> float:
    """One SGD step (MULTI: joint path, SINGLE: back end). This process adds its utterances,
    in order, onto the helper's sum of the first half: one process's float additions."""
    joint = batch.kind == MULTI
    theirs, own = _split(helper, state, batch.utt_ids, _sum_grads, lambda ids: [
        _utt_grads(state, data, cfg, u, joint) for u in ids], joint)
    total, loss_sum = _add_grads(*(theirs or (_zero_grads(state), 0.0)), own)
    apply_sgd(state, total, cfg.learning_rate, len(batch.utt_ids))
    return loss_sum / len(batch.utt_ids)


def _helper_loop(conn, data, cfg, cpus) -> None:
    os.sched_setaffinity(0, cpus)  # without load balancing a fork stays on its parent's CPU
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    while True:  # until terminated
        fn, state, ids, args = conn.recv()
        try:
            out = fn(state, data, cfg, ids, *args)
        except Exception as exc:
            out = exc
        conn.send(out)


@contextmanager
def _helper_process(data, cfg):
    """A pipe to a helper forked off our CPU (see _split) if two CPUs are usable, else None."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if len(cpus) < 2 or "fork" not in mp.get_all_start_methods() or mp.current_process().daemon:
        yield None
        return
    cpus -= {ctypes.CDLL(None).sched_getcpu()}  # not ours: see _helper_loop
    conn, child_conn = mp.Pipe()
    proc = mp.get_context("fork").Process(target=_helper_loop, daemon=True,
                                          args=(child_conn, data, cfg, cpus))
    proc.start()
    child_conn.close()  # so recv() sees the helper's death as EOFError
    try:
        yield conn
    finally:
        proc.terminate()
        proc.join()


# ---------------------------------------------------------------------------
# Training schemes
# ---------------------------------------------------------------------------


def _spawn_streams(seed: int):
    init_ss, plan_ss, pretrain_ss, simu_ss = np.random.SeedSequence(seed).spawn(4)
    return {
        "init": np.random.default_rng(init_ss),
        "plan": np.random.default_rng(plan_ss),
        "pretrain": np.random.default_rng(pretrain_ss),
        "simulate": np.random.default_rng(simu_ss),
    }


def _pretrain(state, cfg, ids, data, rng, helper) -> list:
    """Mean loss of each AM-only epoch over the single ids (NaN without); mutates am_params."""
    return [float(np.mean([_run_batch(state, batch, data, cfg, helper)
                           for batch in _batches(SINGLE, ids, cfg.multi_batch_size, rng)]))
            if ids else float("nan") for _ in range(cfg.pretrain_epochs)]


def _render_noisy(clean: Waveform, rir, snr_db: float, rng) -> Waveform:
    """Room render of a clean utterance plus spatially white noise at snr_db."""
    rendered = simulate_multichannel(clean, rir)
    noise = Waveform(samples=rng.normal(size=rendered.samples.shape),
                     sample_rate=rendered.sample_rate)
    return mix_at_snr(rendered, noise, snr_db)


def _simulate_single_set(single_set, cfg: ScheduleConfig, rng):
    """(utt_id, (STFT, labels)) of each single-channel utterance rendered to a
    multi-channel scene (SIMU), one at a time: no render outlives its STFT.

    Per utterance, in order: render, draw the noise, mix. One RIR per sample rate.
    """
    rirs = {rate: image_source_rir(cfg.room, cfg.array, cfg.max_order, rate)
            for rate in {utt.wave.sample_rate for utt in single_set}}
    for utt in single_set:
        rir = rirs[utt.wave.sample_rate]
        yield (utt.utt_id + SIM_SUFFIX,
               (stft(_render_noisy(utt.wave, rir, cfg.snr_db, rng), cfg.window_size, cfg.hop),
                utt.labels))


def run_training(cfg: ScheduleConfig, multi_set, single_set, return_state: bool = False):
    """Execute one scheme end-to-end and emit a Report.

    PT: AM-only epochs on the single set, then JO on the multi set. DS:
    interleaved plan, SINGLE batches skip the front-end. SIMU: JO over real +
    simulated multi-channel pool. JO_ONLY: JO on the multi set.
    """
    if not multi_set:  # the cost model divides by it; SIMU's renders would train without it
        raise ValueError("multi-channel set must not be empty")
    sim_set = single_set if cfg.mode == "SIMU" else []
    # The single-channel utterances whose STFTs the run reads: DS's, or PT's when it pretrains.
    cached_single = list(single_set) if cfg.mode == "DS" or (
        cfg.mode == "PT" and cfg.pretrain_epochs) else []
    jo_ids = [u.utt_id for u in multi_set] + [u.utt_id + SIM_SUFFIX for u in sim_set]
    single_ids = [u.utt_id for u in cached_single]
    if len(set(jo_ids + single_ids)) != len(jo_ids) + len(single_ids):
        raise ValueError("utterance ids must be unique across the multi- and single-channel sets")

    streams = _spawn_streams(cfg.seed)
    state = init_train_state(streams["init"], n_mels=cfg.n_mels, vocab_size=cfg.vocab_size,
                             am_hidden=cfg.am_hidden, mask_hidden=cfg.mask_hidden,
                             context=cfg.context, seed=cfg.seed)
    report = Report(mode=cfg.mode, seed=cfg.seed, config=config_to_dict(cfg))

    # The run cache, one STFT per utterance: pretraining, the epochs and the decode share it.
    data = {u.utt_id: (stft(u.wave, cfg.window_size, cfg.hop), u.labels)
            for u in list(multi_set) + cached_single}
    data.update(_simulate_single_set(sim_set, cfg, streams["simulate"]))

    # Per batch kind (MULTI, SINGLE): utterances trained and seconds spent, over all epochs.
    utts, seconds = {MULTI: 0, SINGLE: 0}, {MULTI: 0.0, SINGLE: 0.0}
    with _helper_process(data, cfg) as helper:
        if cfg.mode == "PT":
            report.pretrain_losses = _pretrain(state, cfg, single_ids, data,
                                               streams["pretrain"], helper)
        for epoch in range(cfg.epochs):
            plan = plan_epoch(jo_ids, single_ids if cfg.mode == "DS" else [], cfg,
                              streams["plan"])
            t_epoch = time.perf_counter()
            losses = {MULTI: [], SINGLE: []}
            for batch in plan:
                t0 = time.perf_counter()
                losses[batch.kind].append(_run_batch(state, batch, data, cfg, helper))
                seconds[batch.kind] += time.perf_counter() - t0
                utts[batch.kind] += len(batch.utt_ids)
            report.epoch_losses.append(float(np.mean(losses[MULTI])))
            if losses[SINGLE]:
                report.single_losses.append(float(np.mean(losses[SINGLE])))
            report.wall_clock_per_epoch.append(time.perf_counter() - t_epoch)

        report.toy_error = evaluate_token_error(state, data, cfg,
                                                [u.utt_id for u in multi_set], helper)

    n_multi, n_single = len(multi_set), len(single_set)
    report.counters = {
        "epochs": cfg.epochs,
        "frontend_utts_per_epoch": utts[MULTI] // cfg.epochs,
        "single_utts_per_epoch": utts[SINGLE] // cfg.epochs,
        "multi_set_size": n_multi,
        "single_set_size": n_single,
    }
    # Table-1 style prediction from the measured per-utterance costs.
    n_ratio = n_single / n_multi
    t1 = seconds[MULTI] / max(utts[MULTI], 1) * n_multi
    t2 = seconds[SINGLE] / max(utts[SINGLE], 1) * n_single
    report.cost_model = {"n_ratio": n_ratio, "t1_seconds": t1, "t2_seconds": t2,
                         "predicted_epoch_seconds": epoch_cost_model(t1, t2, n_ratio, cfg.mode)}
    if return_state:
        return report, state
    return report


def _token_errors(state, data, cfg, utt_ids) -> tuple:
    """(edit errors, reference tokens) of greedy joint-path decoding, summed."""
    total_err = total_ref = 0
    for utt_id in utt_ids:
        spec, labels = data[utt_id]
        _, cache = forward_joint(state, spec, None, subsample_factor=cfg.subsample)
        sub, ins, dele = edit_distance(greedy_decode(cache["log_probs"]).ids, labels.ids)
        total_err += sub + ins + dele
        total_ref += len(labels)
    return total_err, total_ref


def evaluate_token_error(state: TrainState, data: dict, cfg: ScheduleConfig,
                         utt_ids: list, helper) -> float:
    """Token error rate (S+I+D)/#ref of greedy joint-path decoding of utt_ids.

    data maps each utterance id to its (STFT, labels) (run_training's run
    cache); decoding runs the joint forward without labels, so no CTC
    pass. The counts are integers: their sum does not depend on a helper's
    split (helper None: this process decodes every utterance).
    """
    theirs, (err, ref) = _split(helper, state, utt_ids, _token_errors,
                                lambda ids: _token_errors(state, data, cfg, ids))
    helper_err, helper_ref = theirs or (0, 0)
    return (err + helper_err) / max(ref + helper_ref, 1)


# ---------------------------------------------------------------------------
# Toy corpus
# ---------------------------------------------------------------------------


def toy_room() -> RoomSpec:
    """Small office used for the toy multi-channel renders."""
    return RoomSpec(dims=[5.0, 4.0, 3.0], source_pos=[2.0, 1.5, 1.2], absorption=0.6)


def toy_array() -> MicArray:
    return array_preset("desk-4ch", center=[3.2, 2.6, 1.1])


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
    snr_db: float = 10.0,
    max_order: int = 2,
    sample_rate: int = TOY_SAMPLE_RATE,
):
    """Deterministic toy corpus: tokens are tone bursts separated by gaps.

    Returns (multi_set, single_set, tokens). Multi-channel utterances are
    image-source renders (toy_room, toy_array) of fresh clean utterances plus
    spatially-white noise mixed at snr_db; single-channel utterances are clean.
    sample_rate must put every token's tone below Nyquist: an aliased tone
    lands on another token's frequency.
    """
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2")
    if sample_rate <= 2 * TOY_TONE_HIGH_HZ:
        raise ValueError(f"sample_rate must exceed {2 * TOY_TONE_HIGH_HZ:g} Hz, twice the "
                         f"highest token tone, got {sample_rate}")
    if n_multi < 0 or n_single < 0:
        raise ValueError("utterance counts must be >= 0")
    room, array = toy_room(), toy_array()
    tokens = [chr(ord("a") + i) if vocab_size <= 26 else f"t{i}" for i in range(vocab_size)]

    def draw(utt_id: str, rir) -> Utt:
        # RNG order per utterance: label count, labels, then (rendered) noise.
        ids = rng.integers(1, vocab_size + 1, size=int(rng.integers(TOY_MIN_LABEL,
                                                                    TOY_MAX_LABEL + 1)))
        wave = Waveform(samples=_toy_utterance(ids, vocab_size, sample_rate)[None, :],
                        sample_rate=sample_rate)
        if rir is not None:
            wave = _render_noisy(wave, rir, snr_db, rng)
        return Utt(utt_id=utt_id, wave=wave, labels=LabelSequence(ids=ids, vocab_size=vocab_size))

    rir = image_source_rir(room, array, max_order, sample_rate) if n_multi else None
    multi_set = [draw(f"toy-m{i:04d}", rir) for i in range(n_multi)]
    single_set = [draw(f"toy-s{i:04d}", None) for i in range(n_single)]
    return multi_set, single_set, tokens


# ---------------------------------------------------------------------------
# Scheme comparison harness
# ---------------------------------------------------------------------------


def config_to_dict(cfg: ScheduleConfig) -> dict:
    """JSON-ready config echo (room/array fields as plain lists)."""
    return asdict(cfg, dict_factory=lambda items: {
        key: value.tolist() if isinstance(value, np.ndarray) else value for key, value in items})


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
            report = run_training(replace(cfg, mode=mode, seed=int(seed)), multi_set, single_set)
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
