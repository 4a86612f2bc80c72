"""Command-line surface: enhance, simulate, train, gradcheck, score, make-corpus.

Each subcommand's settings are one table of defaults (COMMANDS): a setting
is the config key `key` and, unless the table marks it config-file only,
the flag `--key-with-dashes`, typed by its default. Precedence: explicit
flags > JSON config file > defaults. Exit codes: 0 ok, 1 usage error
(also a value outside a setting's CHOICES, from a flag or a config file),
2 data error, 3 numerical failure.
"""

import argparse
import inspect
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import backend, beamform, corpus_io, pipeline, roomsim, sched
from .corpus_io import UsageError
from .dsp import STFT_BLOCK_SAMPLES, Spectrogram, istft, stft

GRADCHECK_TOL = 1e-4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------


def _resolve_config(args, defaults: dict) -> dict:
    """defaults <- config file (corpus_io.read_config) <- flags; each CHOICES
    setting is checked, since argparse sees only the flags."""
    cfg = dict(defaults)
    if args.config:
        cfg.update(corpus_io.read_config(args.config, defaults))
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    for key in CHOICES.keys() & cfg.keys():
        if cfg[key] not in CHOICES[key]:
            raise UsageError(f"config key '{key}' must be one of {CHOICES[key]}, "
                             f"got {cfg[key]!r}")
    return cfg


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _require(cfg: dict, key: str) -> object:
    if cfg.get(key) is None:
        raise UsageError(f"missing required option {_flag(key)}")
    return cfg[key]


# ---------------------------------------------------------------------------
# enhance
# ---------------------------------------------------------------------------

ENHANCE_DEFAULTS = {
    "input": None,
    "out": None,
    "masks": "oracle",
    "clean": None,
    "checkpoint": None,
    "ref_channel": -1,  # -1: select_reference
    "window_size": 512,
    "hop": 128,
}


def cmd_enhance(cfg: dict) -> int:
    in_path = _require(cfg, "input")
    out_path = _require(cfg, "out")
    ref = cfg["ref_channel"]
    if ref < -1:
        raise UsageError(f"--ref-channel must be -1 (select) or a channel index, got {ref}")
    window_size, hop = cfg["window_size"], cfg["hop"]
    # A usage error opens no file; a bad checkpoint fails before the WAVs are read.
    if cfg["masks"] == "oracle" and cfg["clean"] is None:
        raise UsageError("--masks oracle requires --clean")
    mask_params = (pipeline.load_checkpoint(_require(cfg, "checkpoint")).mask_params
                   if cfg["masks"] == "checkpoint" else None)
    # Single precision from here on: the WAVs hold float32 (or 16-bit) samples, so
    # stft gives complex64 bins, and the PSD sums, the beamformer and istft follow
    # them; mvdr_weights loads and solves in complex128.
    noisy = _as_float32(corpus_io.read_wav(in_path))
    if noisy.channels < 2:
        raise ValueError(
            "input is single-channel: beamforming needs a microphone array "
            "(copy the file through unchanged instead)"
        )
    clean = None
    if cfg["clean"] is not None:
        clean = _as_float32(corpus_io.read_wav(cfg["clean"]))
        if (clean.samples.shape, clean.sample_rate) != (noisy.samples.shape, noisy.sample_rate):
            raise ValueError(f"clean reference must match the input shape and sample rate "
                             f"exactly: clean {clean.samples.shape} at {clean.sample_rate} Hz, "
                             f"input {noisy.samples.shape} at {noisy.sample_rate} Hz")

    # One [T, F, C] spectrogram at a time: the noisy one, whose channel 0 the mask
    # reads, is released before the SNR gain builds the clean one.
    spec = stft(noisy, window_size, hop)
    del noisy
    mask = _channel_0_mask(mask_params, spec.bins, clean, window_size, hop)
    # The adjoint is dropped at once: it holds the noisy [T, F, C] bins and the speech
    # mask, so without it the noisy spectrogram is freed when spec is replaced below.
    h, ref = beamform.mvdr_weights(spec.bins, mask, None if ref < 0 else ref)[:2]
    if not np.isfinite(h).all():
        raise sched.NumericalError(f"non-finite MVDR filter for '{in_path}'")

    enhanced = beamform.apply_beamformer(h, spec.bins)
    # The SNR gain reads only the reference channel of the noisy spectrogram,
    # which is released here: spec becomes the enhanced one.
    noisy_ref = None if clean is None else spec.bins[:, :, ref].copy()
    spec = replace(spec, bins=enhanced)
    out_wave = istft(spec)
    clipped = corpus_io.write_wav(out_path, out_wave)
    if clipped:
        print(f"warning: clipped {clipped} samples on write")
    print(f"wrote {out_path} ({out_wave.n_samples} samples, ref channel {ref})")

    if clean is not None:
        gain = _snr_gain_db(h, clean, noisy_ref, enhanced, ref, window_size, hop)
        print(f"SNR gain: {gain:.2f} dB")
    return 0


def _as_float32(wave):
    return replace(wave, samples=wave.samples.astype(np.float32))


def _channel_0_mask(mask_params, bins, clean, window_size: int, hop: int) -> np.ndarray:
    """[T, F] speech mask from channel 0 of the noisy bins [T, F, C]: mask_params'
    mask net, or if None the ideal ratio mask of the clean channel 0 and the noisy one.

    The mask net runs on blocks of frames whose [H, rows] hidden activations hold
    at most STFT_BLOCK_SAMPLES entries, each block's vjp dropped at once, so its
    working memory does not grow with the recording. Each mask entry depends only
    on its own frame, and a block is a multiple of 4 frames (28 at F = 257, H = 8),
    so of 4 rows: OpenBLAS's gemv computes the last (rows mod 4) rows of its
    output in another order, and blocks that leave it only the whole input's last
    rows give the whole input's mask bit for bit with one BLAS thread (tested at
    H = 8; with more threads the whole input's own mask depends on how they split
    its rows).

    The clean channel is transformed in float64. Where speech has about 1e-14 of
    its peak power (near Nyquist), a complex64 transform's roundoff is as large
    as the speech, and there the mask alone sets the direction of the unit-trace
    filter: on perfbench's 18 oracle scenes, complex64 clean bins moved the SNR
    gain from the all-float64 path's by up to 8.2e-3 dB, float64 ones by 6.3e-6 dB."""
    if mask_params is not None:
        n_frames, n_bins = bins.shape[:2]
        mask = np.empty((n_frames, n_bins))
        step = max(4, STFT_BLOCK_SAMPLES // (4 * mask_params.w1.shape[1] * n_bins) * 4)
        for t in range(0, n_frames, step):
            mask[t : t + step] = pipeline.mask_net_forward(mask_params, bins[t : t + step])[0]
        return mask
    clean_0 = replace(clean, samples=clean.samples[:1].astype(np.float64))
    clean_0 = stft(clean_0, window_size, hop).bins[:, :, 0].astype(bins.dtype)
    return beamform.oracle_masks(clean_0, bins[:, :, 0] - clean_0)


def _snr_gain_db(h, clean, noisy_ref, enhanced, ref: int, window_size: int, hop: int) -> float:
    """Beamformers are linear: the noise output is the enhanced output minus
    the clean one h^H X_clean, and the noise input is noisy minus clean. The
    clean [T, F, C] spectrogram is released before the power sums' temporaries."""
    clean_bins = stft(clean, window_size, hop).bins
    clean_out = beamform.apply_beamformer(h, clean_bins)
    clean_ref = clean_bins[:, :, ref].copy()
    del clean_bins
    p_in_s, p_in_n, p_out_s, p_out_n = (
        np.sum(np.abs(x) ** 2)
        for x in (clean_ref, noisy_ref - clean_ref, clean_out, enhanced - clean_out))
    if min(p_in_s, p_in_n, p_out_s, p_out_n) <= 0:
        raise ValueError("zero-power component while measuring SNR gain")
    snr_in = 10.0 * np.log10(p_in_s / p_in_n)
    snr_out = 10.0 * np.log10(p_out_s / p_out_n)
    return snr_out - snr_in


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIMULATE_DEFAULTS = {
    "manifest": None,
    "room_config": None,
    "out_dir": None,
    "manifest_out": None,
}


def cmd_simulate(cfg: dict) -> int:
    manifest_path = _require(cfg, "manifest")
    room_path = _require(cfg, "room_config")
    out_dir = _require(cfg, "out_dir")
    room, array, extras = roomsim.load_room_config(room_path)
    manifest = corpus_io.load_manifest(manifest_path)
    manifest_out = cfg["manifest_out"] or str(Path(out_dir, "manifest.jsonl"))
    # One RIR per sample rate the manifest records (read_utterance checks each WAV's),
    # built before write_corpus makes a directory: a room whose taps exceed
    # roomsim.MAX_RIR_TAPS at a rate fails first.
    rirs = {rate: roomsim.image_source_rir(room, array, extras["max_order"], rate)
            for rate in {utt.sample_rate for utt in manifest}}

    def rendered():
        for utt in manifest:
            wave = corpus_io.read_utterance(manifest_path, utt)
            if wave.channels != 1:
                raise ValueError(f"utterance '{utt.utt_id}' is not single-channel")
            yield (utt.utt_id, roomsim.simulate_multichannel(wave, rirs[wave.sample_rate]),
                   utt.transcript, "simulated")

    count = corpus_io.write_corpus(manifest_out, out_dir, rendered())
    print(f"simulated {count} utterances ({array.channels} channels) -> {manifest_out}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

# Every ScheduleConfig default, plus the entries only the CLI has. room and
# array are JSON objects here ({} for none); vocab_size is the size of the
# --vocab file.
TRAIN_DEFAULTS = {
    **{f.name: f.default for f in fields(sched.ScheduleConfig) if f.name != "vocab_size"},
    "room": {},
    "array": {},
    "mode": "JO_ONLY",
    "epochs": 10,
    "multi_batch_size": 10,
    "multi_manifest": None,
    "single_manifest": None,
    "vocab": None,
    "report": "report.json",
}

def _load_utt_set(manifest_path, vocab_size: int) -> list:
    """The manifest's utterances, each with its labels checked before its WAV is read."""
    utts = []
    for record in corpus_io.load_manifest(manifest_path):
        try:
            labels = backend.LabelSequence(ids=record.transcript, vocab_size=vocab_size)
        except ValueError as exc:
            raise ValueError(f"{manifest_path}: utterance '{record.utt_id}': {exc}") from None
        wave = corpus_io.read_utterance(manifest_path, record)
        utts.append(sched.Utt(utt_id=record.utt_id, wave=wave, labels=labels))
    return utts


def _null_non_finite(value):
    """value with every NaN or infinite float as None: strict JSON has no
    NaN or Infinity token, so the Report writes them as null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _null_non_finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_non_finite(item) for item in value]
    return value


def cmd_train(cfg: dict) -> int:
    multi_path = _require(cfg, "multi_manifest")
    vocab_path = _require(cfg, "vocab")
    tokens = backend.load_vocab(vocab_path)

    room = roomsim.room_from_dict(cfg["room"]) if cfg["room"] else None
    array = roomsim.array_from_dict(cfg["array"]) if cfg["array"] else None

    schedule = sched.ScheduleConfig(
        **{f.name: cfg[f.name] for f in fields(sched.ScheduleConfig)
           if f.name not in ("room", "array", "vocab_size")},
        room=room, array=array, vocab_size=len(tokens),
    )
    multi_set = _load_utt_set(multi_path, len(tokens))
    single_set = (
        _load_utt_set(cfg["single_manifest"], len(tokens))
        if cfg["single_manifest"]
        else []
    )

    report = sched.run_training(schedule, multi_set, single_set)
    with open(cfg["report"], "w", encoding="utf-8") as fh:
        json.dump(_null_non_finite(report.to_dict()), fh, indent=2, allow_nan=False)

    single_stage, aug_fe, cost_formula, _ = sched.TABLE1[schedule.mode]
    measured = float(np.mean(report.wall_clock_per_epoch))
    predicted = report.cost_model.get("predicted_epoch_seconds")
    print(f"{'scheme':<8} {'single-stage':<13} {'aug FE':<7} cost/epoch")
    print(
        f"{schedule.mode:<8} {single_stage:<13} {aug_fe:<7} {cost_formula} "
        f"= {predicted:.3f} s (measured {measured:.3f} s)"
    )
    counters = report.counters
    if schedule.mode == "DS" and counters["single_utts_per_epoch"]:
        ratio = counters["single_utts_per_epoch"] / counters["frontend_utts_per_epoch"]
        print(
            f"ratio law: single/multi per epoch = "
            f"{counters['single_utts_per_epoch']}/{counters['frontend_utts_per_epoch']} "
            f"= {ratio:.2f} (N = {report.cost_model['n_ratio']:.2f})"
        )
    print(f"toy token error rate: {100.0 * report.toy_error:.2f}%")
    print(f"report written to {cfg['report']}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

GRADCHECK_DEFAULTS = {
    "preset": "default",
    "epsilon": 1e-5,
    "corrupt_adjoint": False,
    "seed": 0,
}

GRADCHECK_PRESETS = {
    # frames, freq bins (window/2+1), channels, n_mels, vocab, hidden dims
    "default": {"frames": 12, "window": 16, "channels": 2, "n_mels": 4,
                "vocab": 3, "am_hidden": 8, "mask_hidden": 5, "subsample": 2},
    "wide": {"frames": 16, "window": 32, "channels": 4, "n_mels": 6,
             "vocab": 4, "am_hidden": 10, "mask_hidden": 6, "subsample": 2},
}


def make_gradcheck_instance(preset: str, seed: int):
    """Deterministic tiny instance: random bins, labels, and parameters."""
    p = GRADCHECK_PRESETS[preset]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_bins = p["window"] // 2 + 1
    bins = rng.normal(size=(p["frames"], n_bins, p["channels"])) + 1j * rng.normal(
        size=(p["frames"], n_bins, p["channels"])
    )
    utt = Spectrogram(bins=bins, sample_rate=16000, window_size=p["window"], hop=p["window"] // 2)
    labels = backend.LabelSequence(
        ids=rng.integers(1, p["vocab"] + 1, size=2), vocab_size=p["vocab"]
    )
    state = pipeline.init_train_state(
        rng, n_mels=p["n_mels"], vocab_size=p["vocab"], am_hidden=p["am_hidden"],
        mask_hidden=p["mask_hidden"], seed=seed,
    )
    return state, utt, labels, p["subsample"]


def cmd_gradcheck(cfg: dict) -> int:
    state, utt, labels, subsample_factor = make_gradcheck_instance(cfg["preset"], cfg["seed"])
    breakdown = pipeline.finite_diff_check(
        state, utt, labels,
        epsilon=cfg["epsilon"],
        subsample_factor=subsample_factor,
        corrupt_adjoint=cfg["corrupt_adjoint"],
    )
    for name in sorted(breakdown):
        print(f"  {name:<10} {breakdown[name]:.3e}")
    err = max(breakdown.values())
    print(f"max relative error: {err:.3e} (tolerance {GRADCHECK_TOL:.0e})")
    if err >= GRADCHECK_TOL:
        raise sched.NumericalError(f"gradient check failed: {err:.3e} >= {GRADCHECK_TOL:.0e}")
    return 0


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

SCORE_DEFAULTS = {"hyp": None, "ref": None, "per_utt": True}


def cmd_score(cfg: dict) -> int:
    hyp_manifest = corpus_io.load_manifest(_require(cfg, "hyp"))
    ref_manifest = corpus_io.load_manifest(_require(cfg, "ref"))
    hyp_by_id = {u.utt_id: u for u in hyp_manifest}
    ref_by_id = {u.utt_id: u for u in ref_manifest}
    missing = sorted(set(ref_by_id) - set(hyp_by_id))
    extra = sorted(set(hyp_by_id) - set(ref_by_id))
    if missing or extra:
        raise ValueError(
            f"manifest id mismatch: missing from hyp {missing}, not in ref {extra}"
        )
    total = {"sub": 0, "ins": 0, "dele": 0, "ref_len": 0}
    for utt_id in sorted(ref_by_id):
        sub, ins, dele = backend.edit_distance(
            hyp_by_id[utt_id].transcript, ref_by_id[utt_id].transcript
        )
        total["sub"] += sub
        total["ins"] += ins
        total["dele"] += dele
        total["ref_len"] += len(ref_by_id[utt_id].transcript)
        if cfg["per_utt"]:
            print(f"  {utt_id}: S={sub} I={ins} D={dele} "
                  f"N={len(ref_by_id[utt_id].transcript)}")
    errors = total["sub"] + total["ins"] + total["dele"]
    rate = 100.0 * errors / max(total["ref_len"], 1)
    print(
        f"token error rate: {rate:.2f}% "
        f"(S={total['sub']} I={total['ins']} D={total['dele']} N={total['ref_len']})"
    )
    return 0


# ---------------------------------------------------------------------------
# make-corpus
# ---------------------------------------------------------------------------

# generate_toy_corpus's defaults, plus the entries only the CLI has.
MAKE_CORPUS_DEFAULTS = {
    "out_dir": None,
    "n_multi": 50,
    "n_single": 100,
    "vocab_size": 6,
    **{name: p.default for name, p in inspect.signature(sched.generate_toy_corpus).parameters
       .items() if p.default is not p.empty},
    "seed": 0,
}


def cmd_make_corpus(cfg: dict) -> int:
    out_dir = Path(_require(cfg, "out_dir"))
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    multi_set, single_set, tokens = sched.generate_toy_corpus(
        cfg["n_multi"], cfg["n_single"], cfg["vocab_size"], rng, snr_db=cfg["snr_db"],
        max_order=cfg["max_order"], sample_rate=cfg["sample_rate"],
    )
    for name, origin, utt_set in (("multi", "real", multi_set), ("single", "single", single_set)):
        corpus_io.write_corpus(out_dir / f"{name}.jsonl", out_dir / "wav", (
            (utt.utt_id, utt.wave, utt.labels.ids, origin) for utt in utt_set))
    with open(out_dir / "vocab.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(tokens) + "\n")
    print(
        f"wrote {len(multi_set)} multi-channel and {len(single_set)} single-channel "
        f"utterances, vocab size {len(tokens)} -> {out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


# subcommand -> (help, handler, settings table, settings that are config-file only)
COMMANDS = {
    "enhance": ("MVDR-enhance a multi-channel WAV", cmd_enhance, ENHANCE_DEFAULTS, ()),
    "simulate": ("render single-channel utterances in a room", cmd_simulate,
                 SIMULATE_DEFAULTS, ()),
    "train": ("run a training scheme and emit a Report", cmd_train, TRAIN_DEFAULTS,
              ("room", "array", "max_order", "am_hidden", "mask_hidden", "context")),
    "gradcheck": ("finite-difference check of the joint path", cmd_gradcheck,
                  GRADCHECK_DEFAULTS, ()),
    "score": ("token error rate between two manifests", cmd_score, SCORE_DEFAULTS, ()),
    "make-corpus": ("generate and write the toy corpus", cmd_make_corpus,
                    MAKE_CORPUS_DEFAULTS, ("max_order",)),
}

CHOICES = {
    "masks": ["oracle", "checkpoint"],
    "mode": list(sched.MODES),
    "preset": sorted(GRADCHECK_PRESETS),
}

HELP = {
    "input": "multi-channel input WAV",
    "out": "output WAV path",
    "clean": "clean reference WAV (oracle masks / SNR gain)",
    "checkpoint": "TrainState checkpoint for mask-net masks",
    "manifest": "single-channel manifest",
    "room_config": "room/array JSON",
    "vocab": "vocabulary file (one token per line)",
    "report": "output report JSON path",
    "seed": "rng seed",
    "corrupt_adjoint": "negative control: corrupt one analytic gradient",
    "hyp": "hypothesis manifest",
    "ref": "reference manifest",
}


def build_parser() -> argparse.ArgumentParser:
    """One flag per setting: a None default takes a path string, a bool is
    --key/--no-key, any other default gives its own type."""
    parser = _Parser(prog="beamlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, defaults, config_only) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key, default in defaults.items():
            if key in config_only:
                continue
            kind = ({"action": argparse.BooleanOptionalAction} if isinstance(default, bool)
                    else {"type": str if default is None else type(default)})
            p.add_argument(_flag(key), dest=key, choices=CHOICES.get(key), help=HELP.get(key),
                           **kind)
        p.add_argument("--config", help="JSON config file (flags win)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _, handler, defaults, _ = COMMANDS[args.command]
        return handler(_resolve_config(args, defaults))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (sched.NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
