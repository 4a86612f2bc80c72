"""cli tests: subcommands end to end, exit codes, config precedence."""

import argparse
import contextlib
import dataclasses
import io
import itertools
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from beamlab import beamform, cli, corpus_io, pipeline, roomsim
from beamlab.cli import main
from beamlab.dsp import STFT_BLOCK_SAMPLES, Waveform, stft
from beamlab.sched import ScheduleConfig, toy_room


def _rng(seed=0):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _sparse_source(rng, sr, n):
    out = np.zeros(n)
    pos = 0
    while pos < n - sr // 8:
        burst = int(sr * rng.uniform(0.05, 0.12))
        t = np.arange(burst) / sr
        f0 = rng.uniform(300.0, 3400.0)
        out[pos : pos + burst] += np.hanning(burst) * np.sin(2 * np.pi * f0 * t)
        pos += burst + int(sr * rng.uniform(0.03, 0.08))
    return out


def _read_all(manifest_path):
    """The manifest, after reading every record's audio through read_utterance."""
    manifest = corpus_io.load_manifest(manifest_path)
    for utt in manifest:
        corpus_io.read_utterance(manifest_path, utt)
    return manifest


def _rewrite_first_record(manifest_path, **changes):
    """Change fields of the manifest's first record in place; its audio is kept."""
    manifest = corpus_io.load_manifest(manifest_path)
    manifest.utterances[0] = dataclasses.replace(manifest.utterances[0], **changes)
    corpus_io.save_manifest(manifest, manifest_path)
    return manifest.utterances[0].utt_id


def _set_first_record_json(manifest_path, **changes):
    """Set JSON fields of the manifest's first record as written, unchecked."""
    header, record, *rest = manifest_path.read_text().splitlines()
    record = json.dumps({**json.loads(record), **changes})
    manifest_path.write_text("\n".join([header, record, *rest]) + "\n")


def _make_scene(tmp_path, seed=0, channels=4):
    """Noisy 4-channel scene + matching clean reference on disk."""
    rng = _rng(seed)
    sr, n = 16000, 12000
    half = roomsim.SINC_HALF_WIDTH
    taps = np.zeros((channels, 2 * half + 8))
    for c in range(channels):
        d = half + rng.uniform(0.0, 3.0)
        center = int(round(d))
        idx = np.arange(center - half, center + half + 1)
        t = idx - d
        taps[c, idx] = np.sinc(t) * 0.5 * (1.0 + np.cos(np.pi * t / (half + 1)))
    rir = roomsim.RIR(taps=taps, sample_rate=sr)
    src = Waveform(samples=_sparse_source(rng, sr, n)[None, :], sample_rate=sr)
    clean = roomsim.simulate_multichannel(src, rir)
    noise = Waveform(samples=rng.normal(size=clean.samples.shape), sample_rate=sr)
    noisy = roomsim.mix_at_snr(clean, noise, 0.0)
    clean_path, noisy_path = tmp_path / "clean.wav", tmp_path / "noisy.wav"
    corpus_io.write_wav(clean_path, clean)
    corpus_io.write_wav(noisy_path, noisy)
    return noisy_path, clean_path


def _put_nan_in_first_sample(wav_path):
    """A write_wav file (44-byte header, float32 payload) with a NaN first sample."""
    blob = bytearray(wav_path.read_bytes())
    blob[44:48] = struct.pack("<f", np.nan)
    wav_path.write_bytes(bytes(blob))


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, tmp_path):
        assert main(["enhance", "--out", str(tmp_path / "o.wav")]) == 1

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        assert main(["gradcheck", "--config", str(cfg)]) == 1

    def test_malformed_config_is_data_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        assert main(["gradcheck", "--config", str(cfg)]) == 2

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["enhance", "--input", str(tmp_path / "nope.wav"),
                     "--out", str(tmp_path / "o.wav"), "--masks", "checkpoint",
                     "--checkpoint", str(tmp_path / "ck.json")]) == 2

    @pytest.mark.parametrize("masks,flag", [("checkpoint", "--checkpoint"),
                                            ("oracle", "--clean")])
    def test_missing_mask_source_is_usage_error_before_any_read(self, tmp_path, capsys,
                                                                masks, flag):
        # The input does not exist: the option check comes before any file is opened.
        assert main(["enhance", "--input", str(tmp_path / "nope.wav"),
                     "--out", str(tmp_path / "o.wav"), "--masks", masks]) == 1
        assert flag in capsys.readouterr().err

    def test_corrupt_adjoint_is_numerical_error(self):
        assert main(["gradcheck", "--corrupt-adjoint"]) == 3

    def test_non_finite_analytic_gradient_fails_gradcheck(self, monkeypatch, capsys):
        backward = pipeline.backward_joint

        def nan_backward(cache):
            grads = backward(cache)
            grads["am.b2"][0] = np.nan
            return grads

        monkeypatch.setattr(pipeline, "backward_joint", nan_backward)
        assert main(["gradcheck"]) == 2
        assert "am.b2" in capsys.readouterr().err

    def test_non_finite_perturbed_loss_fails_gradcheck(self, monkeypatch, capsys):
        forward, calls = pipeline.forward_joint, []

        def inf_on_second_call(*args, **kwargs):
            loss, cache = forward(*args, **kwargs)
            calls.append(loss)
            return (np.inf if len(calls) == 2 else loss), cache

        monkeypatch.setattr(pipeline, "forward_joint", inf_on_second_call)
        assert main(["gradcheck"]) == 2
        assert "non-finite perturbed loss for mask.w1 at index (0, 0)" in capsys.readouterr().err

    def test_workers_flag_is_gone(self, capsys):
        # No subcommand takes --workers: run_training picks one or two processes itself.
        for argv in (["gradcheck"], ["score"], ["make-corpus"]):
            assert main([*argv, "--workers", "1"]) == 1
            assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["enhance", "simulate", "score"])
    def test_seed_is_gone_from_seedless_commands(self, tmp_path, capsys, command):
        # None of the three draws a random number: --seed and a "seed" config
        # key are usage errors, named in the message, as on any unknown option.
        assert main([command, "--seed", "3"]) == 1
        assert "--seed" in capsys.readouterr().err
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 3}))
        assert main([command, "--config", str(cfg)]) == 1
        assert "unknown config key 'seed'" in capsys.readouterr().err


def enhance_argv(tmp_dir, masks="oracle") -> list:
    """`enhance` arguments for a synthetic 8-channel, 16 kHz, 4.5 s scene written to
    tmp_dir: oracle masks with the clean reference, or checkpoint masks without it."""
    from beamlab.pipeline import init_train_state, save_checkpoint

    rng = _rng(8)
    sr, n, channels = 16000, 72000, 8
    clean = 0.1 * rng.normal(size=(channels, n)) * np.sin(np.pi * np.arange(n) / n)
    noisy = clean + 0.05 * rng.normal(size=(channels, n))
    paths = {name: tmp_dir / f"{name}.wav" for name in ("clean", "noisy")}
    corpus_io.write_wav(paths["clean"], Waveform(samples=clean, sample_rate=sr))
    corpus_io.write_wav(paths["noisy"], Waveform(samples=noisy, sample_rate=sr))
    argv = ["enhance", "--input", str(paths["noisy"]), "--out", str(tmp_dir / "enh.wav"),
            "--masks", masks]
    if masks == "oracle":
        return argv + ["--clean", str(paths["clean"])]
    save_checkpoint(init_train_state(_rng(3), n_mels=40, vocab_size=6, am_hidden=32,
                                     mask_hidden=8), tmp_dir / "ck.json")
    return argv + ["--checkpoint", str(tmp_dir / "ck.json")]


def traced_enhance_peak(tmp_dir, masks="oracle"):
    """(tracemalloc peak bytes, bytes of one complex128 [T, F, C] spectrogram) of an
    `enhance` of enhance_argv's scene."""
    argv = enhance_argv(tmp_dir, masks)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0  # FFT plan caches stay out of the measurement
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    frames = (72000 - 512) // 128 + 1
    return peak, frames * 257 * 8 * 16


def blocked_mask_mismatches() -> list:
    """The cases, (frames, bins, channels, dtype name), where enhance's checkpoint
    mask (cli._channel_0_mask) differs from one whole-input
    pipeline.mask_net_forward, or is not made in blocks of the largest multiple of
    4 frames whose [H, rows] hidden activations fit in STFT_BLOCK_SAMPLES entries.
    Each of 129 and 257 bins, 2 and 8 channels and complex64 and complex128 bins is
    tried at one frame below a block, exactly 3 blocks and 3 blocks plus a frame."""
    params = pipeline.init_train_state(_rng(3), n_mels=40, vocab_size=6, am_hidden=32,
                                       mask_hidden=8).mask_params
    forward, blocks, mismatches = pipeline.mask_net_forward, [], []

    def counted(mask_params, bins):
        blocks.append(len(bins))
        return forward(mask_params, bins)

    pipeline.mask_net_forward = counted
    try:
        for n_bins, channels, dtype in itertools.product((129, 257), (2, 8),
                                                         (np.complex64, np.complex128)):
            step = STFT_BLOCK_SAMPLES // (params.w1.shape[1] * n_bins) // 4 * 4  # 60, 28
            for frames in (step - 1, 3 * step, 3 * step + 1):
                rng = _rng(frames + channels)
                shape = (frames, n_bins, channels)
                bins = (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(dtype)
                blocks.clear()
                mask = cli._channel_0_mask(params, bins, None, 512, 128)
                expected = [step] * (frames // step) + [frames % step] * (frames % step > 0)
                if blocks != expected or not np.array_equal(mask, forward(params, bins)[0]):
                    mismatches.append((frames, n_bins, channels, np.dtype(dtype).name))
    finally:
        pipeline.mask_net_forward = forward
    return mismatches


class TestEnhance:
    def test_oracle_masks_report_gain(self, tmp_path, capsys):
        noisy, clean = _make_scene(tmp_path)
        out = tmp_path / "enh.wav"
        code = main(["enhance", "--input", str(noisy), "--out", str(out),
                     "--masks", "oracle", "--clean", str(clean),
                     "--window-size", "512", "--hop", "128"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "SNR gain" in printed
        gain = float(printed.split("SNR gain:")[1].split("dB")[0])
        assert gain >= 3.0
        enhanced = corpus_io.read_wav(out)
        assert enhanced.channels == 1

    def test_oracle_peak_under_two_spectrograms(self, tmp_path):
        # In units of a complex128 [T, F, C] spectrogram; enhance's is complex64,
        # half of one. One of them at a time (the noisy one, then the clean one
        # for the SNR gain), the waveforms, the mask and the beamformer
        # statistics: 0.94 (1.66 with complex128 bins and a clean spectrogram
        # built one channel at a time).
        peak, spec_bytes = traced_enhance_peak(tmp_path)
        assert peak < 1.2 * spec_bytes, peak / spec_bytes

    def test_checkpoint_peak_under_0_85_spectrograms(self, tmp_path):
        # In the same unit: the complex64 noisy spectrogram and mvdr_weights' arrays
        # set the peak, since the mask net runs on blocks of frames whose hidden
        # activations hold at most STFT_BLOCK_SAMPLES entries (0.75; 1.38 with the
        # whole input's float64 activations beside the spectrogram).
        peak, spec_bytes = traced_enhance_peak(tmp_path, masks="checkpoint")
        assert peak < 0.85 * spec_bytes, peak / spec_bytes

    def test_blocked_checkpoint_mask_equals_whole_input_mask(self):
        # Run with one BLAS thread, perfbench's and CI's setting: with more, OpenBLAS
        # splits a whole input's rows between threads and computes the rows at the
        # split in another order, so that mask itself depends on the thread count.
        tests = Path(__file__).resolve().parent
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
        out = subprocess.run([sys.executable, "-c",
                              "import test_cli; print(test_cli.blocked_mask_mismatches())"],
                             env=env, capture_output=True, text=True, timeout=300)
        assert (out.stdout, out.returncode) == ("[]\n", 0), out.stdout + out.stderr

    def test_checkpoint_mask_memory_independent_of_length(self):
        # The mask step's traced peak, less the [T, F] float64 mask it returns, at 4.5 s
        # and 18 s of 8-ch, 16 kHz input: 0.77 MiB at both (14.3 and 57.3 MiB with the
        # whole input's context rows, hidden activations and logits).
        params = pipeline.init_train_state(_rng(3), n_mels=40, vocab_size=6, am_hidden=32,
                                           mask_hidden=8).mask_params
        working = []
        for n_samples in (72000, 288000):
            bins = np.full(((n_samples - 512) // 128 + 1, 257, 8), 0.1 + 0.2j, np.complex64)
            tracemalloc.start()
            try:
                mask = cli._channel_0_mask(params, bins, None, 512, 128)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            working.append(peak - mask.nbytes)
        assert abs(working[1] - working[0]) < 1 << 20, working

    def test_single_precision_snr_gain_matches_double_precision(self, tmp_path, capsys,
                                                                monkeypatch):
        # enhance runs its STFTs, PSD sums and beamformer in complex64; the same
        # chain on the same WAVs in float64, through the library, gives the same
        # reference channel and an SNR gain within 1e-4 dB.
        noisy_path, clean_path = _make_scene(tmp_path)
        calls, snr_gain_db = [], cli._snr_gain_db
        monkeypatch.setattr(cli, "_snr_gain_db",
                            lambda *args: calls.append((args, snr_gain_db(*args))) or calls[-1][1])
        assert main(["enhance", "--input", str(noisy_path), "--out", str(tmp_path / "o.wav"),
                     "--masks", "oracle", "--clean", str(clean_path)]) == 0
        (_, clean32, _, enhanced32, ref32, _, _), gain32 = calls[0]
        assert clean32.samples.dtype == np.float32 and enhanced32.dtype == np.complex64

        noisy = stft(corpus_io.read_wav(noisy_path), 512, 128).bins
        clean = stft(corpus_io.read_wav(clean_path), 512, 128).bins
        assert noisy.dtype == np.complex128
        mask = beamform.oracle_masks(clean[:, :, 0], noisy[:, :, 0] - clean[:, :, 0])
        h, ref, _ = beamform.mvdr_weights(noisy, mask, None)
        enhanced, clean_out = (beamform.apply_beamformer(h, x) for x in (noisy, clean))

        def snr_db(speech, noise):
            return 10.0 * np.log10(np.sum(np.abs(speech) ** 2) / np.sum(np.abs(noise) ** 2))

        gain64 = (snr_db(clean_out, enhanced - clean_out)
                  - snr_db(clean[:, :, ref], noisy[:, :, ref] - clean[:, :, ref]))
        assert ref32 == ref
        assert abs(gain32 - gain64) < 1e-4, (gain32, gain64)
        assert f"SNR gain: {gain64:.2f} dB" in capsys.readouterr().out

    def test_oracle_without_clean_is_usage_error_before_stft(self, tmp_path, capsys,
                                                             monkeypatch):
        noisy, _ = _make_scene(tmp_path)

        def no_stft(*args):
            raise AssertionError("stft called before the option check")

        monkeypatch.setattr(cli, "stft", no_stft)
        out = tmp_path / "enh.wav"
        assert main(["enhance", "--input", str(noisy), "--out", str(out),
                     "--masks", "oracle"]) == 1
        assert "--masks oracle requires --clean" in capsys.readouterr().err
        assert not out.exists()

    def test_clean_shape_mismatch_is_data_error_before_stft(self, tmp_path, capsys,
                                                           monkeypatch):
        noisy, _ = _make_scene(tmp_path)
        (tmp_path / "other").mkdir()
        _, short_clean = _make_scene(tmp_path / "other", channels=2)

        def no_stft(*args):
            raise AssertionError("stft called before the shape check")

        monkeypatch.setattr(cli, "stft", no_stft)
        out = tmp_path / "enh.wav"
        assert main(["enhance", "--input", str(noisy), "--out", str(out),
                     "--masks", "oracle", "--clean", str(short_clean)]) == 2
        assert "must match the input shape" in capsys.readouterr().err
        assert not out.exists()

    def test_clean_rate_mismatch_is_data_error_before_stft(self, tmp_path, capsys,
                                                          monkeypatch):
        # Before: a clean reference of the input's shape at 8 kHz for a 16 kHz
        # input exited 0 and printed an SNR gain.
        noisy, clean = _make_scene(tmp_path)
        wave = corpus_io.read_wav(clean)
        corpus_io.write_wav(clean, dataclasses.replace(wave, sample_rate=8000))

        def no_stft(*args):
            raise AssertionError("stft called before the rate check")

        monkeypatch.setattr(cli, "stft", no_stft)
        out = tmp_path / "enh.wav"
        assert main(["enhance", "--input", str(noisy), "--out", str(out),
                     "--masks", "oracle", "--clean", str(clean)]) == 2
        err = capsys.readouterr().err
        assert "must match the input shape and sample rate" in err
        assert "at 8000 Hz" in err and "at 16000 Hz" in err
        assert not out.exists()

    def test_non_finite_filter_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        # A NaN in the MVDR filter is a numerical fault (exit 3), named with its
        # input, and nothing is written.
        noisy, clean = _make_scene(tmp_path)
        mvdr_weights = beamform.mvdr_weights

        def nan_filter(*args):
            h, ref, vjp = mvdr_weights(*args)
            h[3, 1] = np.nan
            return h, ref, vjp

        monkeypatch.setattr(beamform, "mvdr_weights", nan_filter)
        out = tmp_path / "enh.wav"
        code = main(["enhance", "--input", str(noisy), "--out", str(out),
                     "--masks", "oracle", "--clean", str(clean)])
        assert code == 3
        assert f"non-finite MVDR filter for '{noisy}'" in capsys.readouterr().err
        assert not out.exists()

    def test_ref_channel_below_minus_one_is_usage_error(self, tmp_path, capsys):
        # Only -1 selects the reference; -2 used to select it too.
        noisy, clean = _make_scene(tmp_path)
        out = tmp_path / "enh.wav"
        code = main(["enhance", "--input", str(noisy), "--out", str(out), "--masks",
                     "oracle", "--clean", str(clean), "--ref-channel", "-2"])
        assert code == 1
        assert "--ref-channel must be -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["input", "clean"])
    def test_non_finite_wav_is_data_error_naming_the_file(self, tmp_path, capsys, bad):
        # Before: both printed "waveform amplitudes must be finite", naming no file.
        noisy, clean = _make_scene(tmp_path)
        named, other = (noisy, clean) if bad == "input" else (clean, noisy)
        _put_nan_in_first_sample(named)
        code = main(["enhance", "--input", str(noisy), "--out", str(tmp_path / "o.wav"),
                     "--masks", "oracle", "--clean", str(clean)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{named}: waveform amplitudes must be finite" in err
        assert str(other) not in err

    def test_mono_input_is_data_error(self, tmp_path, capsys):
        mono = tmp_path / "mono.wav"
        corpus_io.write_wav(mono, Waveform(samples=_rng(0).normal(size=(1, 8000)) * 0.1,
                                           sample_rate=16000))
        code = main(["enhance", "--input", str(mono),
                     "--out", str(tmp_path / "o.wav"),
                     "--masks", "oracle", "--clean", str(mono)])
        assert code == 2
        assert "single-channel" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["not JSON", "list payload", "list mask_params",
                                        "null context", "scalar w1", "mask w1 [4, H]",
                                        "mask w2 [H, 2]", "no mask b1", "no am w2",
                                        "no am context"])
    def test_malformed_checkpoint_is_data_error(self, tmp_path, capsys, damage):
        # All but "not JSON" once escaped as tracebacks (exit 1, the usage-error code).
        from beamlab.pipeline import init_train_state, save_checkpoint

        noisy, _ = _make_scene(tmp_path, seed=2)
        ck = tmp_path / "ck.json"
        save_checkpoint(init_train_state(_rng(3), n_mels=6, vocab_size=3, am_hidden=32,
                                         mask_hidden=8), ck)
        payload = json.loads(ck.read_text())
        if damage == "list payload":
            payload = [payload]
        elif damage == "list mask_params":
            payload["mask_params"] = list(payload["mask_params"].values())
        elif damage == "null context":
            payload["am_params"]["context"] = None
        elif damage == "scalar w1":
            payload["am_params"]["w1"] = 0.5
        elif damage == "mask w1 [4, H]":  # the mask net reads 3 log magnitudes
            payload["mask_params"]["w1"].append(payload["mask_params"]["w1"][0])
        elif damage == "mask w2 [H, 2]":  # and writes 1 logit
            payload["mask_params"]["w2"] = [row * 2 for row in payload["mask_params"]["w2"]]
            payload["mask_params"]["b2"] *= 2
        elif damage.startswith("no "):  # before: "missing field 'w2'" named no group
            _, group, key = damage.split()
            del payload[f"{group}_params"][key]
        text = json.dumps(payload)
        ck.write_text(text[1:] if damage == "not JSON" else text)
        code = main(["enhance", "--input", str(noisy), "--out", str(tmp_path / "enh.wav"),
                     "--masks", "checkpoint", "--checkpoint", str(ck)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"corrupted checkpoint {ck}" in err
        if damage.startswith("no "):
            assert f"corrupted checkpoint {ck}: {group}_params: missing field '{key}'" in err
        elif damage not in ("not JSON", "list payload"):
            group = "mask" if "mask" in damage else "am"
            assert f"corrupted checkpoint {ck}: {group}_params:" in err

    def test_checkpoint_masks(self, tmp_path):
        from beamlab.pipeline import init_train_state, save_checkpoint

        noisy, _ = _make_scene(tmp_path, seed=2)
        ck = tmp_path / "ck.json"
        save_checkpoint(init_train_state(_rng(3), n_mels=6, vocab_size=3, am_hidden=32,
                                         mask_hidden=8), ck)
        out = tmp_path / "enh.wav"
        code = main(["enhance", "--input", str(noisy), "--out", str(out),
                     "--masks", "checkpoint", "--checkpoint", str(ck),
                     "--window-size", "256", "--hop", "64"])
        assert code == 0
        assert corpus_io.read_wav(out).channels == 1


class TestMakeCorpusAndTrain:
    @pytest.mark.parametrize("rate", [4000, 7000])
    def test_aliasing_sample_rate_is_data_error(self, tmp_path, capsys, rate):
        # At 4000 Hz token 6's 3500 Hz tone aliases to 500 Hz, token 1's tone;
        # at 7000 Hz it sits on Nyquist and samples to zero.
        code = main(["make-corpus", "--out-dir", str(tmp_path / "c"), "--n-multi", "1",
                     "--n-single", "1", "--sample-rate", str(rate)])
        assert code == 2
        assert "sample_rate" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_default_sample_rate_accepted(self, tmp_path):
        # 8000 Hz, the default, writes the same bytes with or without the flag.
        argv = ["make-corpus", "--n-multi", "2", "--n-single", "2"]
        assert main([*argv, "--out-dir", str(tmp_path / "a")]) == 0
        assert main([*argv, "--out-dir", str(tmp_path / "b"), "--sample-rate", "8000"]) == 0
        files = sorted(path.relative_to(tmp_path / "a") for path in (tmp_path / "a").rglob("*")
                       if path.is_file())
        assert len(files) == 7  # vocab, two manifests, four WAVs
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_make_corpus_layout(self, tmp_path):
        out = tmp_path / "corpus"
        code = main(["make-corpus", "--out-dir", str(out), "--n-multi", "3",
                     "--n-single", "4", "--seed", "5"])
        assert code == 0
        assert (out / "vocab.txt").exists()
        multi = _read_all(out / "multi.jsonl")
        single = _read_all(out / "single.jsonl")
        assert len(multi.utterances) == 3 and len(single.utterances) == 4
        assert all(u.channels == 4 and u.origin == "real" for u in multi)
        assert all(u.channels == 1 and u.origin == "single" for u in single)

    def test_train_writes_report(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        main(["make-corpus", "--out-dir", str(out), "--n-multi", "4",
              "--n-single", "4", "--seed", "1"])
        report_path = tmp_path / "report.json"
        code = main(["train", "--mode", "JO_ONLY", "--epochs", "2",
                     "--multi-batch-size", "2",
                     "--multi-manifest", str(out / "multi.jsonl"),
                     "--vocab", str(out / "vocab.txt"),
                     "--report", str(report_path), "--seed", "1"])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["mode"] == "JO_ONLY"
        assert len(report["epoch_losses"]) == 2
        printed = capsys.readouterr().out
        assert "JO_ONLY" in printed and "cost/epoch" in printed

    def test_train_ds_prints_ratio_law(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        main(["make-corpus", "--out-dir", str(out), "--n-multi", "4",
              "--n-single", "8", "--seed", "2"])
        code = main(["train", "--mode", "DS", "--epochs", "1",
                     "--multi-batch-size", "2",
                     "--multi-manifest", str(out / "multi.jsonl"),
                     "--single-manifest", str(out / "single.jsonl"),
                     "--vocab", str(out / "vocab.txt"),
                     "--report", str(tmp_path / "r.json"), "--seed", "2"])
        assert code == 0
        assert "ratio law" in capsys.readouterr().out

    def test_train_ds_without_single_manifest(self, tmp_path, capsys):
        # Before: the Report was written, then printing a None prediction
        # escaped main as a TypeError. With no single-channel set T2 = 0.
        out = tmp_path / "corpus"
        main(["make-corpus", "--out-dir", str(out), "--n-multi", "4",
              "--n-single", "0", "--seed", "2"])
        capsys.readouterr()
        code = main(["train", "--mode", "DS", "--epochs", "1", "--multi-batch-size", "2",
                     "--multi-manifest", str(out / "multi.jsonl"),
                     "--vocab", str(out / "vocab.txt"),
                     "--report", str(tmp_path / "r.json"), "--seed", "2"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "DS" in printed and "ratio law" not in printed
        cost = json.loads((tmp_path / "r.json").read_text())["cost_model"]
        assert cost["t2_seconds"] == 0.0
        assert cost["predicted_epoch_seconds"] == cost["t1_seconds"] > 0

    def test_non_finite_wav_in_manifest_is_data_error_naming_it(self, tmp_path, capsys):
        # Before: "waveform amplitudes must be finite", naming no file.
        out = tmp_path / "corpus"
        main(["make-corpus", "--out-dir", str(out), "--n-multi", "2",
              "--n-single", "0", "--seed", "4"])
        record = corpus_io.load_manifest(out / "multi.jsonl").utterances[1]
        wav = corpus_io.resolve_audio_path(out / "multi.jsonl", record.audio_path)
        _put_nan_in_first_sample(wav)
        capsys.readouterr()
        code = main(["train", "--epochs", "1", "--multi-manifest", str(out / "multi.jsonl"),
                     "--vocab", str(out / "vocab.txt"), "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert f"{wav}: waveform amplitudes must be finite" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_report_is_strict_json(self, tmp_path):
        # PT with no single-channel set pretrains on nothing: its losses are
        # NaN, and the Report writes them as null, not as the NaN token.
        out = tmp_path / "corpus"
        main(["make-corpus", "--out-dir", str(out), "--n-multi", "2",
              "--n-single", "0", "--seed", "4"])
        report_path = tmp_path / "r.json"
        code = main(["train", "--mode", "PT", "--epochs", "1", "--pretrain-epochs", "2",
                     "--multi-manifest", str(out / "multi.jsonl"),
                     "--vocab", str(out / "vocab.txt"), "--report", str(report_path)])
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads(report_path.read_text(), parse_constant=reject)
        assert report["pretrain_losses"] == [None, None]
        assert all(np.isfinite(report["epoch_losses"]))

    def test_out_of_vocabulary_id_is_data_error_naming_its_source(self, tmp_path, capsys):
        # Before: "label ids must lie in [1, vocab_size]; 0 is the blank", naming
        # no manifest, utterance or vocabulary size. The labels are checked
        # before the WAV is read: here it is gone.
        out = tmp_path / "corpus"
        main(["make-corpus", "--out-dir", str(out), "--n-multi", "2",
              "--n-single", "0", "--seed", "3"])
        manifest = out / "multi.jsonl"
        utt_id = _rewrite_first_record(manifest, transcript=[1, 7])
        record = corpus_io.load_manifest(manifest).utterances[0]
        corpus_io.resolve_audio_path(manifest, record.audio_path).unlink()
        capsys.readouterr()
        code = main(["train", "--epochs", "1", "--multi-manifest", str(manifest),
                     "--vocab", str(out / "vocab.txt"), "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert (f"{manifest}: utterance '{utt_id}': label ids must lie in [1, vocab_size] "
                "= [1, 6]") in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("field,value", [("channels", 1), ("sample_rate", 16000)])
    def test_train_record_disagreeing_with_wav_is_data_error(self, tmp_path, capsys,
                                                             field, value):
        # Before: a record saying 1 channel (or 16 kHz) for a 4-channel 8 kHz
        # WAV trained and exited 0.
        out = tmp_path / "corpus"
        main(["make-corpus", "--out-dir", str(out), "--n-multi", "2",
              "--n-single", "0", "--seed", "3"])
        utt_id = _rewrite_first_record(out / "multi.jsonl", **{field: value})
        capsys.readouterr()
        code = main(["train", "--epochs", "1", "--multi-manifest", str(out / "multi.jsonl"),
                     "--vocab", str(out / "vocab.txt"), "--report", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"'{utt_id}'" in err and f"{field} {value}" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("field,value,expected", [
        ("utt_id", ["u"], "utt_id must be a string, not ['u']"),
        ("audio_path", 3, "audio_path must be a string, not 3"),
        ("audio_path", None, "audio_path must be a string, not None"),
        ("duration", "x", "duration must be a finite number, not 'x'"),
    ])
    def test_train_record_of_wrong_json_type_is_data_error_naming_it(
            self, tmp_path, capsys, field, value, expected):
        # Before: a list utt_id and a non-string audio_path escaped main as a
        # TypeError (exit 1, the usage-error code), and "duration": "x" read
        # "'<' not supported between instances of 'str' and 'int'".
        out = tmp_path / "corpus"
        main(["make-corpus", "--out-dir", str(out), "--n-multi", "2",
              "--n-single", "0", "--seed", "3"])
        _set_first_record_json(out / "multi.jsonl", **{field: value})
        capsys.readouterr()
        code = main(["train", "--epochs", "1", "--multi-manifest", str(out / "multi.jsonl"),
                     "--vocab", str(out / "vocab.txt"), "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert f"multi.jsonl: malformed manifest line 2: {expected}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("snr", ["-inf", "nan"])
    def test_snr_minus_inf_or_nan_is_data_error(self, tmp_path, capsys, snr):
        # Before: make-corpus at -inf wrote the same WAVs as at +inf.
        out = tmp_path / "corpus"
        assert main(["make-corpus", "--out-dir", str(out), "--n-multi", "1",
                     "--n-single", "1", f"--snr-db={snr}"]) == 2
        assert not (out / "multi.jsonl").exists()
        assert main(["make-corpus", "--out-dir", str(out), "--n-multi", "1",
                     "--n-single", "1"]) == 0
        code = main(["train", "--mode", "SIMU", "--epochs", "1", f"--snr-db={snr}",
                     "--multi-manifest", str(out / "multi.jsonl"),
                     "--single-manifest", str(out / "single.jsonl"),
                     "--vocab", str(out / "vocab.txt"), "--report", str(tmp_path / "r.json")])
        assert code == 2 and not (tmp_path / "r.json").exists()
        assert capsys.readouterr().err.count("snr_db") == 2

    def test_env_seed_is_ignored(self, tmp_path, monkeypatch):
        # Flags > config file > defaults is the whole rule: BEAMLAB_SEED,
        # set or not, integral or not, changes nothing.
        def wavs(name, env):
            if env is None:
                monkeypatch.delenv("BEAMLAB_SEED", raising=False)
            else:
                monkeypatch.setenv("BEAMLAB_SEED", env)
            out = tmp_path / name
            assert main(["make-corpus", "--out-dir", str(out), "--n-multi", "2",
                         "--n-single", "1", "--seed", "1"]) == 0
            return [p.read_bytes() for p in sorted((out / "wav").iterdir())]

        plain = wavs("plain", None)
        assert wavs("seven", "7") == plain
        assert wavs("text", "not-a-number") == plain

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "mk.json"
        cfg.write_text(json.dumps({"n_multi": 5, "n_single": 2, "seed": 3}))
        out = tmp_path / "c"
        code = main(["make-corpus", "--config", str(cfg), "--out-dir", str(out),
                     "--n-multi", "1"])
        assert code == 0
        multi = corpus_io.load_manifest(out / "multi.jsonl")
        single = corpus_io.load_manifest(out / "single.jsonl")
        assert len(multi.utterances) == 1  # flag beat the file
        assert len(single.utterances) == 2  # file beat the default


class TestTrainConfig:
    @staticmethod
    def _train(tmp_path, *extra):
        out = tmp_path / "corpus"
        if not out.exists():
            main(["make-corpus", "--out-dir", str(out), "--n-multi", "2",
                  "--n-single", "2", "--seed", "4"])
        report = tmp_path / "report.json"
        code = main(["train", "--multi-manifest", str(out / "multi.jsonl"),
                     "--vocab", str(out / "vocab.txt"), "--report", str(report), *extra])
        return code, json.loads(report.read_text()) if report.exists() else None

    def test_config_file_keys_reach_report(self, tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"n_mels": 6, "am_hidden": 12, "learning_rate": 0.02}))
        code, report = self._train(tmp_path, "--config", str(cfg), "--epochs", "1",
                                   "--multi-batch-size", "2")
        assert code == 0
        config = report["config"]
        assert (config["n_mels"], config["am_hidden"]) == (6, 12)
        assert config["learning_rate"] == 0.02
        assert config["vocab_size"] == 6 and config["epochs"] == 1

    def test_config_numbers_coerced_to_field_types(self, tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"subsample": 2.0, "snr_db": 5}))
        code, report = self._train(tmp_path, "--config", str(cfg), "--epochs", "1")
        assert code == 0
        config = report["config"]
        assert config["subsample"] == 2 and isinstance(config["subsample"], int)
        assert config["snr_db"] == 5.0 and isinstance(config["snr_db"], float)

    @pytest.mark.parametrize("key,value", [
        ("subsample", 2.7), ("epochs", True), ("n_mels", "6"), ("learning_rate", "0.02"),
        ("mode", 1),
    ])
    def test_config_value_of_wrong_type_is_usage_error(self, tmp_path, key, value):
        # Before: 2.7 was truncated to 2.
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({key: value}))
        code, report = self._train(tmp_path, "--config", str(cfg))
        assert code == 1 and report is None

    def test_simu_keeps_the_given_array(self, tmp_path):
        # Before: a room-less SIMU run replaced the array with desk-4ch.
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"mode": "SIMU", "epochs": 1, "array": {
            "preset": "chime4-6ch", "center": [3.0, 2.5, 1.1]}}))
        code, report = self._train(tmp_path, "--config", str(cfg),
                                   "--single-manifest", str(tmp_path / "corpus" / "single.jsonl"))
        assert code == 0
        assert report["config"]["array"]["preset"] == "chime4-6ch"
        assert len(report["config"]["array"]["positions"]) == 6
        assert report["config"]["room"]["dims"] == toy_room().dims.tolist()

    @pytest.mark.parametrize("scene,key", [
        ({"room": {"dims": [5.0, 4.0, 3.0], "source_pos": [2.0, 1.5, 1.2], "absorbtion": 0.9}},
         "room.absorbtion"),
        ({"room": {"dims": [5.0, 4.0, 3.0], "source_pos": [2.0, 1.5, 1.2], "sound_sped": 300}},
         "room.sound_sped"),
        ({"array": {"preset": "desk-4ch", "centre": [3.0, 2.5, 1.1]}}, "array.centre"),
        ({"room": {"source_pos": [2.0, 1.5, 1.2]}}, "room.dims"),
    ], ids=["absorbtion", "sound_sped", "centre", "no_dims"])
    def test_misspelt_or_missing_scene_key_is_usage_error(self, tmp_path, capsys, scene, key):
        # Before: SIMU trained at absorption 0.35 and 343 m/s, ignoring the misspelt key.
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"mode": "SIMU", "epochs": 1, **scene}))
        self._train(tmp_path, "--epochs", "1")  # writes the corpus
        (tmp_path / "report.json").unlink()
        capsys.readouterr()
        code, report = self._train(tmp_path, "--config", str(cfg), "--single-manifest",
                                   str(tmp_path / "corpus" / "single.jsonl"))
        assert code == 1 and report is None
        assert f"config key '{key}'" in capsys.readouterr().err

    def test_vocab_size_is_not_a_config_key(self, tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"vocab_size": 3}))
        code, report = self._train(tmp_path, "--config", str(cfg))
        assert code == 1 and report is None

    def test_deleted_augmentation_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"speed_perturb": False}))
        code, report = self._train(tmp_path, "--config", str(cfg))
        assert code == 1 and report is None
        assert "unknown config key 'speed_perturb'" in capsys.readouterr().err

    def test_pt_single_id_equal_to_a_multi_id_is_data_error(self, tmp_path, capsys):
        # Pretraining shares the run's STFT cache, which is keyed by id. Without
        # pretrain epochs PT reads no single-channel data, so no clash.
        self._train(tmp_path, "--epochs", "1")  # writes the corpus
        corpus = tmp_path / "corpus"
        multi_id = corpus_io.load_manifest(corpus / "multi.jsonl").utterances[0].utt_id
        _rewrite_first_record(corpus / "single.jsonl", utt_id=multi_id)
        for epochs, expected in (("1", 2), ("0", 0)):
            code, _ = self._train(tmp_path, "--mode", "PT", "--pretrain-epochs", epochs,
                                  "--epochs", "1", "--single-manifest",
                                  str(corpus / "single.jsonl"))
            assert code == expected, epochs
        assert "unique" in capsys.readouterr().err

    def test_bare_train_resolves_schedule_defaults(self, tmp_path):
        code, report = self._train(tmp_path)
        assert code == 0
        config = report["config"]
        for f in dataclasses.fields(ScheduleConfig):
            if f.default is not dataclasses.MISSING and f.name != "vocab_size":
                assert config[f.name] == f.default, f.name
        # The CLI's own defaults for the fields ScheduleConfig leaves open.
        assert (config["mode"], config["epochs"], config["multi_batch_size"]) == \
               ("JO_ONLY", 10, 10)

    def test_invalid_schedule_is_data_error(self, tmp_path):
        # A negative factor would train on time-reversed frames; a NaN or
        # infinite learning rate wrote NaN parameters and exited 0.
        for flags in (["--subsample", "-2"], ["--subsample", "0"], ["--epochs", "0"],
                      ["--learning-rate", "nan"], ["--learning-rate", "inf"], ["--n-mels", "0"]):
            code, report = self._train(tmp_path, *flags)
            assert code == 2 and report is None, flags

    @pytest.mark.parametrize("key,value", [("am_hidden", 0), ("mask_hidden", 0), ("context", -1),
                                           ("n_mels", 0)])
    def test_model_size_out_of_range_in_config_is_data_error(self, tmp_path, capsys, key, value):
        # Before: 0 hidden units trained a degenerate model and exited 0; n_mels 0
        # and context -1 failed inside numpy with messages naming no field.
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({key: value}))
        code, report = self._train(tmp_path, "--config", str(cfg), "--epochs", "1")
        assert code == 2 and report is None
        assert f"{key} must be >= " in capsys.readouterr().err

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_in_config_is_data_error(self, tmp_path, rate):
        # Python's json reads NaN and Infinity.
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"learning_rate": rate}))
        code, report = self._train(tmp_path, "--config", str(cfg), "--epochs", "1")
        assert code == 2 and report is None


def _command(command, tmp_path):
    """Flags that run one subcommand to success, and the file it would write."""
    if command == "gradcheck":
        return ["gradcheck"], None
    if command == "score":
        utts = [corpus_io.Utterance(utt_id="u0", audio_path="u0.wav", channels=1,
                                    sample_rate=8000, duration=1.0, transcript=[1, 2],
                                    origin="real")]
        manifest = tmp_path / "m.jsonl"
        corpus_io.save_manifest(corpus_io.Manifest(utterances=utts), manifest)
        return ["score", "--hyp", str(manifest), "--ref", str(manifest)], None
    if command == "enhance":
        noisy, clean = _make_scene(tmp_path)
        out = tmp_path / "enh.wav"
        return ["enhance", "--input", str(noisy), "--out", str(out), "--masks", "oracle",
                "--clean", str(clean)], out
    if command == "make-corpus":
        out = tmp_path / "made"
        return ["make-corpus", "--out-dir", str(out), "--n-single", "1"], out
    corpus = tmp_path / "corpus"
    main(["make-corpus", "--out-dir", str(corpus), "--n-multi", "2", "--n-single", "2",
          "--seed", "4"])
    report = tmp_path / "report.json"
    return ["train", "--multi-manifest", str(corpus / "multi.jsonl"), "--vocab",
            str(corpus / "vocab.txt"), "--report", str(report), "--epochs", "1"], report


class TestConfigTypes:
    """Every subcommand types a --config value by its key's default."""

    @staticmethod
    def _run(tmp_path, capsys, command, cfg_values):
        argv, out = _command(command, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_values))
        capsys.readouterr()
        code = main([*argv, "--config", str(cfg)])
        return code, capsys.readouterr(), out

    @pytest.mark.parametrize("command,key,value", [
        ("gradcheck", "corrupt_adjoint", "false"),
        ("score", "per_utt", "false"),
        # one_hot_ref and workers are no longer keys: any value is a usage
        # error that names the key.
        ("enhance", "one_hot_ref", "false"),
        ("enhance", "ref_channel", 1.9),
        ("enhance", "window_size", "256"),
        ("enhance", "clean", 3),
        ("make-corpus", "n_multi", 2.7),
        ("make-corpus", "snr_db", None),
        ("train", "room", "x"),
        ("train", "array", [1, 2]),
        ("train", "workers", 2),
    ])
    def test_wrong_type_is_usage_error(self, tmp_path, capsys, command, key, value):
        # Before: "false" turned a flag on, 1.9 used channel 1, 2.7 wrote 2
        # utterances, and "x" or [1, 2] escaped main as a TypeError.
        code, captured, out = self._run(tmp_path, capsys, command, {key: value})
        assert code == 1
        assert captured.err.startswith("usage error") and key in captured.err
        assert captured.out == ""
        assert out is None or not out.exists()

    def test_integral_float_window_size_equals_flag(self, tmp_path, capsys):
        code, from_file, out = self._run(tmp_path, capsys, "enhance", {"window_size": 256.0})
        assert code == 0
        wav_from_file = out.read_bytes()
        argv, _ = _command("enhance", tmp_path)
        assert main([*argv, "--window-size", "256"]) == 0
        assert out.read_bytes() == wav_from_file
        assert capsys.readouterr().out == from_file.out

    def test_integral_float_count_accepted(self, tmp_path, capsys):
        code, _, out = self._run(tmp_path, capsys, "make-corpus", {"n_multi": 2.0})
        assert code == 0
        assert len(_read_all(out / "multi.jsonl").utterances) == 2

    def test_float_epsilon_accepted(self, tmp_path, capsys):
        code, from_file, _ = self._run(tmp_path, capsys, "gradcheck", {"epsilon": 1e-5})
        assert code == 0
        assert main(["gradcheck"]) == 0
        assert capsys.readouterr().out == from_file.out


def _flag(key):
    return "--" + key.replace("_", "-")


def _other_value(key, default):
    """A value of the setting's type other than its default."""
    if key in cli.CHOICES:
        return next(choice for choice in cli.CHOICES[key] if choice != default)
    if isinstance(default, bool):
        return not default
    if isinstance(default, float):
        return default + 1.5
    if isinstance(default, int):
        return default + 1
    return "other/path.json" if default is None else default + ".other"


FLAG_SETTINGS = [(command, key) for command, (_, _, defaults, config_only) in cli.COMMANDS.items()
                 for key in defaults if key not in config_only]


class TestFlagsAreSettings:
    """Each flag is its subcommand's setting of the same name (dashes for
    underscores): a flag and a config-file value resolve alike."""

    @staticmethod
    def _resolve(monkeypatch, command, argv):
        """(exit code, the settings the handler got) of `beamlab command *argv`."""
        seen = {}
        help_text, _, defaults, config_only = cli.COMMANDS[command]
        monkeypatch.setitem(cli.COMMANDS, command,
                            (help_text, lambda cfg: seen.update(cfg) or 0, defaults, config_only))
        return main([command, *argv]), seen

    @pytest.mark.parametrize("command,key", FLAG_SETTINGS)
    def test_flag_and_config_value_agree(self, tmp_path, monkeypatch, command, key):
        value = _other_value(key, cli.COMMANDS[command][2][key])
        flag = _flag(key)
        if isinstance(value, bool):
            argv = [flag if value else flag.replace("--", "--no-", 1)]
        else:
            argv = [flag, str(value)]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        code, from_flag = self._resolve(monkeypatch, command, argv)
        assert code == 0
        code, from_file = self._resolve(monkeypatch, command, ["--config", str(cfg)])
        assert code == 0
        assert from_flag[key] == value == from_file[key]
        assert type(from_flag[key]) is type(from_file[key]) is type(value)
        assert from_flag == from_file

    def test_config_only_settings_have_no_flag(self, capsys):
        parsers = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)).choices
        for command, (_, _, defaults, config_only) in cli.COMMANDS.items():
            options = {option for action in parsers[command]._actions
                       for option in action.option_strings}
            for key in defaults:
                assert (_flag(key) in options) == (key not in config_only), (command, key)
            for key in config_only:
                assert main([command, _flag(key), "1"]) == 1
                assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,argv", [
        # The files do not exist: reading one first would exit 2.
        ("train", "mode", ["--multi-manifest", "nope.jsonl", "--vocab", "nope.txt"]),
        ("enhance", "masks", ["--input", "nope.wav", "--out", "o.wav"]),
        ("gradcheck", "preset", []),
    ])
    def test_config_value_outside_choices_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                         command, key, argv):
        # Before: {"mode": "FOO"} was a data error raised by ScheduleConfig
        # after the vocabulary was read, and a bad "masks" was caught only
        # after both WAVs were read.
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: "FOO"}))
        assert main([command, *argv, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and f"'{key}'" in err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.json"]


class TestSimulate:
    def test_renders_multichannel(self, tmp_path):
        corpus = tmp_path / "corpus"
        main(["make-corpus", "--out-dir", str(corpus), "--n-multi", "1",
              "--n-single", "2", "--seed", "3"])
        room_cfg = tmp_path / "room.json"
        room_cfg.write_text(json.dumps({
            "room": {"dims": [5.0, 4.0, 3.0], "source_pos": [2.0, 2.0, 1.5],
                     "absorption": 0.55},
            "array": {"preset": "desk-4ch", "center": [3.0, 2.5, 1.1]},
            "max_order": 2,
            "sample_rate": 8000,
        }))
        out = tmp_path / "rendered"
        code = main(["simulate", "--manifest", str(corpus / "single.jsonl"),
                     "--room-config", str(room_cfg), "--out-dir", str(out)])
        assert code == 0
        rendered = _read_all(out / "manifest.jsonl")
        assert len(rendered.utterances) == 2
        assert all(u.channels == 4 for u in rendered)
        assert all(u.origin == "simulated" for u in rendered)

    def _corpus_and_room(self, tmp_path, **room_top):
        corpus = tmp_path / "c"
        main(["make-corpus", "--out-dir", str(corpus), "--n-multi", "1",
              "--n-single", "2", "--seed", "3"])
        room_cfg = tmp_path / "room.json"
        room_cfg.write_text(json.dumps({
            "room": {"dims": [5.0, 4.0, 3.0], "source_pos": [2.0, 2.0, 1.5]},
            "array": {"preset": "desk-4ch", "center": [3.0, 2.5, 1.1]},
            "max_order": 2, **room_top,
        }))
        return corpus / "single.jsonl", room_cfg

    def test_manifest_out_outside_out_dir_resolves(self, tmp_path, monkeypatch):
        # simulate --manifest c/single.jsonl --room-config room.json --out-dir r
        # --manifest-out m.jsonl, run from tmp_path with relative paths.
        self._corpus_and_room(tmp_path)
        monkeypatch.chdir(tmp_path)
        code = main(["simulate", "--manifest", "c/single.jsonl", "--room-config", "room.json",
                     "--out-dir", "r", "--manifest-out", "m.jsonl"])
        assert code == 0
        rendered = _read_all("m.jsonl")
        assert [u.audio_path for u in rendered] == ["r/toy-s0000.wav", "r/toy-s0001.wav"]
        assert all(u.channels == 4 for u in rendered)
        (tmp_path / "sub").mkdir()
        code = main(["simulate", "--manifest", "c/single.jsonl", "--room-config", "room.json",
                     "--out-dir", "r2", "--manifest-out", "sub/m.jsonl"])
        assert code == 0
        rendered = _read_all("sub/m.jsonl")
        assert rendered.utterances[0].audio_path == "../r2/toy-s0000.wav"
        # A manifest in a symlinked directory: "link/.." is the target's parent.
        (tmp_path / "deep" / "target").mkdir(parents=True)
        (tmp_path / "link").symlink_to(tmp_path / "deep" / "target")
        code = main(["simulate", "--manifest", "c/single.jsonl", "--room-config", "room.json",
                     "--out-dir", "r3", "--manifest-out", "link/m.jsonl"])
        assert code == 0
        _read_all("link/m.jsonl")
        assert (tmp_path / "r3" / "toy-s0000.wav").exists()

    def test_default_manifest_paths_are_file_names(self, tmp_path):
        single, room_cfg = self._corpus_and_room(tmp_path)
        out = tmp_path / "r"
        assert main(["simulate", "--manifest", str(single), "--room-config", str(room_cfg),
                     "--out-dir", str(out)]) == 0
        lines = (out / "manifest.jsonl").read_text().splitlines()
        assert [json.loads(line)["audio_path"] for line in lines[1:]] == [
            "toy-s0000.wav", "toy-s0001.wav"]

    @pytest.mark.parametrize("top", [{"max_order": 2.7}, {"max_order": "2"},
                                     {"sample_rate": 8000.5}, {"maxorder": 2}])
    def test_bad_room_config_is_usage_error(self, tmp_path, capsys, top):
        single, room_cfg = self._corpus_and_room(tmp_path, **top)
        capsys.readouterr()
        code = main(["simulate", "--manifest", str(single), "--room-config", str(room_cfg),
                     "--out-dir", str(tmp_path / "r")])
        assert code == 1
        assert f"'{next(iter(top))}'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("change,key", [
        (lambda cfg: cfg["room"].update(absorbtion=0.9), "room.absorbtion"),
        (lambda cfg: cfg["room"].update(sound_sped=300.0), "room.sound_sped"),
        (lambda cfg: cfg["array"].update(centre=cfg["array"].pop("center")), "array.centre"),
        (lambda cfg: cfg["array"].update(positions=[[3.0, 2.5, 1.1]]), "array.center"),
        (lambda cfg: cfg["room"].pop("dims"), "room.dims"),
        (lambda cfg: cfg.pop("room"), "room.dims"),
        (lambda cfg: cfg.pop("array"), "array.preset"),
    ], ids=["absorbtion", "sound_sped", "centre", "positions_and_center", "no_dims", "no_room",
            "no_array"])
    def test_misspelt_or_missing_scene_key_is_usage_error(self, tmp_path, capsys, change, key):
        # Before: a misspelt room key was ignored (rendered at absorption 0.35), and a
        # missing one was a KeyError, exit 2.
        single, room_cfg = self._corpus_and_room(tmp_path)
        cfg = json.loads(room_cfg.read_text())
        change(cfg)
        room_cfg.write_text(json.dumps(cfg))
        capsys.readouterr()
        code = main(["simulate", "--manifest", str(single), "--room-config", str(room_cfg),
                     "--out-dir", str(tmp_path / "r")])
        assert code == 1
        assert f"config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("field,value,message", [
        ("sound_speed", "fast", "sound_speed must be numeric, not 'fast'"),
        ("absorption", None, "absorption must be numeric, not None"),
        ("dims", [5.0, float("nan"), 3.0], "dims must be finite"),
        ("source_pos", [2.0, float("nan"), 1.5], "source_pos must be finite"),
    ])
    def test_non_numeric_or_non_finite_room_field_is_data_error(self, tmp_path, capsys, field,
                                                               value, message):
        # Before: "fast" escaped main as a TypeError with a traceback (exit 1); null
        # absorption read as NaN, passed the range check and failed as "RIR taps must
        # be finite"; a NaN dimension or coordinate was accepted. JSON writes the
        # NaNs as its NaN literal, which the config reader accepts.
        single, room_cfg = self._corpus_and_room(tmp_path)
        cfg = json.loads(room_cfg.read_text())
        cfg["room"][field] = value
        room_cfg.write_text(json.dumps(cfg))
        capsys.readouterr()
        code = main(["simulate", "--manifest", str(single), "--room-config", str(room_cfg),
                     "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("where,key,value,message", [
        (None, "max_order", 21, "max_order must lie in [0, MAX_IMAGE_ORDER = 20], not 21"),
        ("room", "sound_speed", 99.99,
         "sound_speed must be one number of at least MIN_SOUND_SPEED = 100.0 m/s, not 99.99"),
        ("room", "dims", [5000.0, 4000.0, 3000.0],
         "room.dims, max_order 2 and room.sound_speed at sample rate 8000 Hz put the farthest "
         "image"),
    ], ids=["max_order", "sound_speed", "dims"])
    def test_room_config_past_a_bound_is_data_error(self, tmp_path, capsys, where, key, value,
                                                   message):
        # Before: a huge max_order looped over 8 (max_order + 2)^3 candidate images in
        # Python, and a tiny sound_speed or huge dims sized the taps without bound (the
        # dims, at the toy corpus's 8 kHz, past MAX_RIR_TAPS: checked against the rates
        # the manifest records before any directory is made).
        single, room_cfg = self._corpus_and_room(tmp_path)
        cfg = json.loads(room_cfg.read_text())
        (cfg if where is None else cfg[where])[key] = value
        room_cfg.write_text(json.dumps(cfg))
        capsys.readouterr()
        code = main(["simulate", "--manifest", str(single), "--room-config", str(room_cfg),
                     "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "r").exists()

    def test_id_that_is_no_plain_file_name_is_data_error(self, tmp_path, capsys):
        # Before: the WAV went to deep/a/escaped.wav, recorded as "../../escaped.wav", exit 0.
        single, room_cfg = self._corpus_and_room(tmp_path)
        _rewrite_first_record(single, utt_id="../../escaped")
        capsys.readouterr()
        out = tmp_path / "deep" / "a" / "b" / "out"
        code = main(["simulate", "--manifest", str(single), "--room-config", str(room_cfg),
                     "--out-dir", str(out)])
        assert code == 2
        assert "utterance id '../../escaped'" in capsys.readouterr().err
        assert not list((tmp_path / "deep").rglob("*.wav"))
        assert not list(tmp_path.rglob("escaped*"))

    def test_manifest_out_into_a_missing_directory(self, tmp_path, monkeypatch):
        # Before: each WAV was written through the manifest's directory, so a missing one
        # failed with "No such file or directory: 'm/../sim/x/toy-s0000.wav'", exit 2.
        self._corpus_and_room(tmp_path)
        monkeypatch.chdir(tmp_path)
        code = main(["simulate", "--manifest", "c/single.jsonl", "--room-config", "room.json",
                     "--out-dir", "sim/x", "--manifest-out", "m/out.jsonl"])
        assert code == 0
        rendered = _read_all("m/out.jsonl")
        assert [u.audio_path for u in rendered] == ["../sim/x/toy-s0000.wav",
                                                    "../sim/x/toy-s0001.wav"]

    @pytest.mark.parametrize("field,value", [("channels", 2), ("sample_rate", 16000)])
    def test_record_disagreeing_with_wav_is_data_error(self, tmp_path, capsys, field, value):
        single, room_cfg = self._corpus_and_room(tmp_path)
        utt_id = _rewrite_first_record(single, **{field: value})
        capsys.readouterr()
        code = main(["simulate", "--manifest", str(single), "--room-config", str(room_cfg),
                     "--out-dir", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"'{utt_id}'" in err and f"{field} {value}" in err
        assert not (tmp_path / "r" / "manifest.jsonl").exists()

    def test_integral_float_max_order_renders(self, tmp_path):
        single, room_cfg = self._corpus_and_room(tmp_path, max_order=2.0)
        assert main(["simulate", "--manifest", str(single), "--room-config", str(room_cfg),
                     "--out-dir", str(tmp_path / "r")]) == 0

    def test_multichannel_input_rejected(self, tmp_path):
        corpus = tmp_path / "corpus"
        main(["make-corpus", "--out-dir", str(corpus), "--n-multi", "1",
              "--n-single", "1", "--seed", "4"])
        room_cfg = tmp_path / "room.json"
        room_cfg.write_text(json.dumps({
            "room": {"dims": [5.0, 4.0, 3.0], "source_pos": [2.0, 2.0, 1.5]},
            "array": {"preset": "desk-4ch", "center": [3.0, 2.5, 1.1]},
        }))
        code = main(["simulate", "--manifest", str(corpus / "multi.jsonl"),
                     "--room-config", str(room_cfg),
                     "--out-dir", str(tmp_path / "r")])
        assert code == 2


class TestScore:
    def _manifest(self, path, transcripts):
        utts = [
            corpus_io.Utterance(utt_id=f"u{i}", audio_path=f"u{i}.wav",
                                channels=1, sample_rate=8000, duration=1.0,
                                transcript=t, origin="real")
            for i, t in enumerate(transcripts)
        ]
        corpus_io.save_manifest(corpus_io.Manifest(utterances=utts), path)

    def test_percent_output(self, tmp_path, capsys):
        ref = [[1, 2, 3, 4, 5]] * 40  # 200 reference tokens
        hyp = [list(t) for t in ref]
        hyp[0][0] = 2  # one substitution
        hyp[1] = hyp[1][:-1]  # one deletion
        self._manifest(tmp_path / "ref.jsonl", ref)
        self._manifest(tmp_path / "hyp.jsonl", hyp)
        code = main(["score", "--hyp", str(tmp_path / "hyp.jsonl"),
                     "--ref", str(tmp_path / "ref.jsonl"), "--no-per-utt"])
        assert code == 0
        out = capsys.readouterr().out
        assert "token error rate: 1.00%" in out
        assert "S=1" in out and "D=1" in out and "N=200" in out

    def test_id_mismatch_is_data_error(self, tmp_path, capsys):
        self._manifest(tmp_path / "ref.jsonl", [[1], [2]])
        hyp = [corpus_io.Utterance(utt_id="u0", audio_path="u0.wav", channels=1,
                                   sample_rate=8000, duration=1.0,
                                   transcript=[1], origin="real")]
        corpus_io.save_manifest(corpus_io.Manifest(utterances=hyp),
                                tmp_path / "hyp.jsonl")
        code = main(["score", "--hyp", str(tmp_path / "hyp.jsonl"),
                     "--ref", str(tmp_path / "ref.jsonl")])
        assert code == 2
        assert "u1" in capsys.readouterr().err

    def test_list_utt_id_is_data_error_naming_it(self, tmp_path, capsys):
        # Before: TypeError: unhashable type: 'list', escaping main with exit 1.
        self._manifest(tmp_path / "ref.jsonl", [[1], [2]])
        self._manifest(tmp_path / "hyp.jsonl", [[1], [2]])
        _set_first_record_json(tmp_path / "hyp.jsonl", utt_id=["u0"])
        code = main(["score", "--hyp", str(tmp_path / "hyp.jsonl"),
                     "--ref", str(tmp_path / "ref.jsonl")])
        assert code == 2
        assert ("hyp.jsonl: malformed manifest line 2: utt_id must be a string, not ['u0']"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("damage,message", [
        (lambda lines: [lines[0], "{not json}"], "malformed manifest line 2"),
        (lambda lines: [*lines, lines[-1]], "duplicate utterance id 'u0'"),
    ])
    def test_manifest_error_names_its_file(self, tmp_path, capsys, damage, message):
        # Before: the message named neither manifest.
        self._manifest(tmp_path / "good.jsonl", [[1]])
        self._manifest(tmp_path / "bad.jsonl", [[1]])
        lines = (tmp_path / "bad.jsonl").read_text().splitlines()
        (tmp_path / "bad.jsonl").write_text("\n".join(damage(lines)) + "\n")
        code = main(["score", "--hyp", str(tmp_path / "bad.jsonl"),
                     "--ref", str(tmp_path / "good.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"bad.jsonl: {message}" in err and "good.jsonl" not in err


class TestGradcheck:
    def test_default_passes_and_prints_breakdown(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        for name in ("mask.w1", "am.w2"):
            assert name in out

    def test_wide_preset(self):
        assert main(["gradcheck", "--preset", "wide", "--seed", "1"]) == 0

    @pytest.mark.parametrize("seed", ["17001", "28000"])
    def test_loading_adjoint_passes_seeds_that_failed_without_it(self, capsys, seed):
        # Before: 1.364e-4 and 5.407e-4 (exit 3), with the loading's dependence on
        # tr(Phi_NN) missing from the adjoint.
        assert main(["gradcheck", "--seed", seed]) == 0
        out = capsys.readouterr().out
        assert float(out.split("max relative error: ")[1].split()[0]) < 1e-5

    def test_unknown_preset_is_usage_error(self):
        assert main(["gradcheck", "--preset", "gigantic"]) == 1

    def test_bad_epsilon_is_data_error(self):
        assert main(["gradcheck", "--epsilon", "-1"]) == 2
