"""Command-line surface: enhance, simulate, train, gradcheck, score, make-corpus.

Config precedence per subcommand: explicit flags > JSON config file >
built-in defaults. The environment variable BEAMLAB_SEED, when set,
overrides the resolved seed last. Exit codes: 0 ok, 1 usage error,
2 data error, 3 numerical failure.
"""

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import backend, beamform, corpus_io, pipeline, roomsim, sched
from .corpus_io import UsageError
from .dsp import Spectrogram, istft, stft

GRADCHECK_TOL = 1e-4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------


def _resolve_config(args, defaults: dict) -> dict:
    """defaults <- config file (corpus_io.read_config) <- flags; BEAMLAB_SEED wins for seed."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        cfg.update(corpus_io.read_config(args.config, defaults))
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if "seed" in cfg and os.environ.get("BEAMLAB_SEED"):
        try:
            cfg["seed"] = int(os.environ["BEAMLAB_SEED"])
        except ValueError:
            raise UsageError("BEAMLAB_SEED must be an integer") from None
    # Only train has a workers key; the other subcommands take just the flag.
    if cfg.get("workers", getattr(args, "workers", None)) not in (None, 1):
        raise UsageError("only --workers 1 (deterministic mode) is supported")
    return cfg


def _require(cfg: dict, key: str, flag: str) -> object:
    if cfg.get(key) is None:
        raise UsageError(f"missing required option {flag}")
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
    "one_hot_ref": False,
    "seed": 0,
}


def cmd_enhance(args) -> int:
    cfg = _resolve_config(args, ENHANCE_DEFAULTS)
    in_path = _require(cfg, "input", "--input")
    out_path = _require(cfg, "out", "--out")
    noisy = corpus_io.read_wav(in_path)
    if noisy.channels < 2:
        raise ValueError(
            "input is single-channel: beamforming needs a microphone array "
            "(copy the file through unchanged instead)"
        )
    spec = stft(noisy, cfg["window_size"], cfg["hop"])
    ref = cfg["ref_channel"]

    clean_spec = None
    if cfg["clean"] is not None:
        clean = corpus_io.read_wav(cfg["clean"])
        if clean.samples.shape != noisy.samples.shape:
            raise ValueError("clean reference must match the input shape exactly")
        clean_spec = stft(clean, cfg["window_size"], cfg["hop"])
        noise_spec = replace(spec, bins=spec.bins - clean_spec.bins)

    if cfg["masks"] == "oracle":
        if clean_spec is None:
            raise UsageError("--masks oracle requires --clean")
        mask = beamform.oracle_masks(clean_spec, noise_spec)[0].values
    elif cfg["masks"] == "checkpoint":
        ck_path = _require(cfg, "checkpoint", "--checkpoint")
        state = pipeline.load_checkpoint(ck_path)
        mask, _ = pipeline.mask_net_forward(state.mask_params, spec.bins)
    else:
        raise UsageError("--masks must be 'oracle' or 'checkpoint'")
    phi_ss = beamform.estimate_psd(spec, mask)
    phi_nn = beamform.estimate_psd(spec, 1.0 - mask)

    if ref < 0:
        ref = beamform.select_reference(phi_ss)
    if cfg["one_hot_ref"]:
        h = np.zeros((spec.freq_bins, spec.channels), dtype=np.complex128)
        h[:, ref] = 1.0
        weights = beamform.BeamWeights(h=h, ref_channel=ref)
    else:
        weights = beamform.mvdr_weights(beamform.PsdPair(phi_ss, phi_nn), ref)

    enhanced = beamform.apply_beamformer(weights, spec)
    out_wave = istft(enhanced)
    clipped = corpus_io.write_wav(out_path, out_wave, bit_depth=32)
    if clipped:
        print(f"warning: clipped {clipped} samples on write")
    print(f"wrote {out_path} ({out_wave.n_samples} samples, ref channel {ref})")

    if clean_spec is not None:
        gain = _snr_gain_db(weights, clean_spec, noise_spec, ref)
        print(f"SNR gain: {gain:.2f} dB")
    return 0


def _snr_gain_db(weights, clean_spec, noise_spec, ref: int) -> float:
    """Beamformers are linear: pass clean and noise through separately."""
    clean_out = beamform.apply_beamformer(weights, clean_spec).bins[:, :, 0]
    noise_out = beamform.apply_beamformer(weights, noise_spec).bins[:, :, 0]
    p_in_s = np.sum(np.abs(clean_spec.bins[:, :, ref]) ** 2)
    p_in_n = np.sum(np.abs(noise_spec.bins[:, :, ref]) ** 2)
    p_out_s = np.sum(np.abs(clean_out) ** 2)
    p_out_n = np.sum(np.abs(noise_out) ** 2)
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
    "seed": 0,
}


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args, SIMULATE_DEFAULTS)
    manifest_path = _require(cfg, "manifest", "--manifest")
    room_path = _require(cfg, "room_config", "--room-config")
    out_dir = Path(_require(cfg, "out_dir", "--out-dir"))
    room, array, extras = roomsim.load_room_config(room_path)
    manifest = corpus_io.load_manifest(manifest_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_out = cfg["manifest_out"] or str(out_dir / "manifest.jsonl")
    # Records hold audio paths relative to the manifest, wherever it goes.
    manifest_dir = Path(manifest_out).parent
    audio_dir = os.path.relpath(out_dir.resolve(), manifest_dir.resolve())

    rir_cache = {}
    records = []
    for utt in manifest:
        wave = corpus_io.read_wav(corpus_io.resolve_audio_path(manifest_path, utt.audio_path))
        if wave.channels != 1:
            raise ValueError(f"utterance '{utt.utt_id}' is not single-channel")
        if wave.sample_rate not in rir_cache:
            rir_cache[wave.sample_rate] = roomsim.image_source_rir(
                room, array, extras["max_order"], wave.sample_rate
            )
        rendered = roomsim.simulate_multichannel(wave, rir_cache[wave.sample_rate])
        records.append(corpus_io.write_utterance(
            manifest_dir, str(Path(audio_dir, f"{utt.utt_id}.wav")), utt.utt_id,
            rendered, utt.transcript, "simulated"
        ))
    corpus_io.save_manifest(corpus_io.Manifest(utterances=records), manifest_out)
    print(f"simulated {len(records)} utterances ({array.channels} channels) -> {manifest_out}")
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
    "workers": 1,
}

TABLE1_ROWS = {
    "PT": ("no", "no", "T1"),
    "DS": ("yes", "no", "T1+T2"),
    "SIMU": ("yes", "yes", "(1+N)*T1"),
    "JO_ONLY": ("yes", "no", "T1"),
}


def _load_utt_set(manifest_path, vocab_size: int) -> list:
    manifest = corpus_io.load_manifest(manifest_path)
    utts = []
    for record in manifest:
        wave = corpus_io.read_wav(corpus_io.resolve_audio_path(manifest_path, record.audio_path))
        labels = backend.LabelSequence(
            ids=np.asarray(record.transcript, dtype=np.int64), vocab_size=vocab_size
        )
        utts.append(sched.Utt(utt_id=record.utt_id, wave=wave, labels=labels,
                              origin=record.origin))
    return utts


def cmd_train(args) -> int:
    cfg = _resolve_config(args, TRAIN_DEFAULTS)
    multi_path = _require(cfg, "multi_manifest", "--multi-manifest")
    vocab_path = _require(cfg, "vocab", "--vocab")
    tokens = backend.load_vocab(vocab_path)

    room = roomsim.room_from_dict(cfg["room"]) if cfg["room"] else None
    array = roomsim.array_from_dict(cfg["array"]) if cfg["array"] else None
    if cfg["mode"] == "SIMU":
        room, array = sched.toy_scene(room, array)

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
        json.dump(report.to_dict(), fh, indent=2)

    single_stage, aug_fe, cost_formula = TABLE1_ROWS[schedule.mode]
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
    "seed": 0,
    "epsilon": 1e-5,
    "corrupt_adjoint": False,
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
    if preset not in GRADCHECK_PRESETS:
        raise UsageError(f"unknown preset '{preset}' (choose from {sorted(GRADCHECK_PRESETS)})")
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


def cmd_gradcheck(args) -> int:
    cfg = _resolve_config(args, GRADCHECK_DEFAULTS)
    state, utt, labels, subsample_factor = make_gradcheck_instance(cfg["preset"], cfg["seed"])
    breakdown = {}
    err = pipeline.finite_diff_check(
        state, utt, labels,
        epsilon=cfg["epsilon"],
        subsample_factor=subsample_factor,
        breakdown=breakdown,
        corrupt_adjoint=cfg["corrupt_adjoint"],
    )
    for name in sorted(breakdown):
        print(f"  {name:<10} {breakdown[name]:.3e}")
    print(f"max relative error: {err:.3e} (tolerance {GRADCHECK_TOL:.0e})")
    if err >= GRADCHECK_TOL:
        raise sched.NumericalError(f"gradient check failed: {err:.3e} >= {GRADCHECK_TOL:.0e}")
    return 0


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

SCORE_DEFAULTS = {"hyp": None, "ref": None, "per_utt": True, "seed": 0}


def cmd_score(args) -> int:
    cfg = _resolve_config(args, SCORE_DEFAULTS)
    hyp_manifest = corpus_io.load_manifest(_require(cfg, "hyp", "--hyp"))
    ref_manifest = corpus_io.load_manifest(_require(cfg, "ref", "--ref"))
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

MAKE_CORPUS_DEFAULTS = {
    "out_dir": None,
    "n_multi": 50,
    "n_single": 100,
    "vocab_size": 6,
    "seed": 0,
    "snr_db": 10.0,
    "sample_rate": sched.TOY_SAMPLE_RATE,
    "max_order": 2,
}


def cmd_make_corpus(args) -> int:
    cfg = _resolve_config(args, MAKE_CORPUS_DEFAULTS)
    out_dir = Path(_require(cfg, "out_dir", "--out-dir"))
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    multi_set, single_set, tokens = sched.generate_toy_corpus(
        cfg["n_multi"], cfg["n_single"], cfg["vocab_size"], rng, snr_db=cfg["snr_db"],
        max_order=cfg["max_order"], sample_rate=cfg["sample_rate"],
    )
    (out_dir / "wav").mkdir(parents=True, exist_ok=True)
    with open(out_dir / "vocab.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(tokens) + "\n")

    for name, utt_set in (("multi", multi_set), ("single", single_set)):
        records = [
            corpus_io.write_utterance(out_dir, f"wav/{utt.utt_id}.wav", utt.utt_id, utt.wave,
                                      utt.labels.ids, utt.origin)
            for utt in utt_set
        ]
        corpus_io.save_manifest(
            corpus_io.Manifest(utterances=records), out_dir / f"{name}.jsonl"
        )
    print(
        f"wrote {len(multi_set)} multi-channel and {len(single_set)} single-channel "
        f"utterances, vocab size {len(tokens)} -> {out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file (flags win)")
    parser.add_argument("--seed", type=int, help="rng seed")
    parser.add_argument("--workers", type=int, help="worker count (must be 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="beamlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enhance", help="MVDR-enhance a multi-channel WAV")
    p.add_argument("--input", help="multi-channel input WAV")
    p.add_argument("--out", help="output WAV path")
    p.add_argument("--masks", choices=["oracle", "checkpoint"])
    p.add_argument("--clean", help="clean reference WAV (oracle masks / SNR gain)")
    p.add_argument("--checkpoint", help="TrainState checkpoint for mask-net masks")
    p.add_argument("--ref-channel", dest="ref_channel", type=int)
    p.add_argument("--window-size", dest="window_size", type=int)
    p.add_argument("--hop", type=int)
    p.add_argument("--one-hot-ref", dest="one_hot_ref",
                   action=argparse.BooleanOptionalAction,
                   help="debug: force h to the reference one-hot")
    _add_common(p)
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("simulate", help="render single-channel utterances in a room")
    p.add_argument("--manifest", help="single-channel manifest")
    p.add_argument("--room-config", dest="room_config", help="room/array JSON")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--manifest-out", dest="manifest_out")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="run a training scheme and emit a Report")
    p.add_argument("--mode", choices=list(sched.MODES))
    p.add_argument("--epochs", type=int)
    p.add_argument("--multi-batch-size", dest="multi_batch_size", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--pretrain-epochs", dest="pretrain_epochs", type=int)
    p.add_argument("--snr-db", dest="snr_db", type=float)
    p.add_argument("--multi-manifest", dest="multi_manifest")
    p.add_argument("--single-manifest", dest="single_manifest")
    p.add_argument("--vocab", help="vocabulary file (one token per line)")
    p.add_argument("--report", help="output report JSON path")
    p.add_argument("--window-size", dest="window_size", type=int)
    p.add_argument("--hop", type=int)
    p.add_argument("--n-mels", dest="n_mels", type=int)
    p.add_argument("--subsample", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gradcheck", help="finite-difference check of the joint path")
    p.add_argument("--preset", choices=sorted(GRADCHECK_PRESETS))
    p.add_argument("--epsilon", type=float)
    p.add_argument("--corrupt-adjoint", dest="corrupt_adjoint",
                   action=argparse.BooleanOptionalAction,
                   help="negative control: corrupt one analytic gradient")
    _add_common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("score", help="token error rate between two manifests")
    p.add_argument("--hyp", help="hypothesis manifest")
    p.add_argument("--ref", help="reference manifest")
    p.add_argument("--per-utt", dest="per_utt", action=argparse.BooleanOptionalAction)
    _add_common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("make-corpus", help="generate and write the toy corpus")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--n-multi", dest="n_multi", type=int)
    p.add_argument("--n-single", dest="n_single", type=int)
    p.add_argument("--vocab-size", dest="vocab_size", type=int)
    p.add_argument("--snr-db", dest="snr_db", type=float)
    p.add_argument("--sample-rate", dest="sample_rate", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_make_corpus)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
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
