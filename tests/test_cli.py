"""cli tests: subcommands end to end, exit codes, config precedence."""

import dataclasses
import json

import numpy as np
import pytest

from beamlab import corpus_io, roomsim
from beamlab.cli import main
from beamlab.dsp import Waveform
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
    corpus_io.write_wav(clean_path, clean, bit_depth=32)
    corpus_io.write_wav(noisy_path, noisy, bit_depth=32)
    return noisy_path, clean_path


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

    def test_corrupt_adjoint_is_numerical_error(self):
        assert main(["gradcheck", "--corrupt-adjoint"]) == 3

    def test_workers_must_be_one(self):
        assert main(["gradcheck", "--workers", "2"]) == 1
        assert main(["gradcheck", "--workers", "0"]) == 1
        assert main(["gradcheck", "--workers", "1"]) == 0


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

    def test_one_hot_ref_is_passthrough(self, tmp_path):
        noisy, clean = _make_scene(tmp_path, seed=1)
        out = tmp_path / "ref.wav"
        code = main(["enhance", "--input", str(noisy), "--out", str(out),
                     "--masks", "oracle", "--clean", str(clean),
                     "--ref-channel", "2", "--one-hot-ref",
                     "--window-size", "256", "--hop", "64"])
        assert code == 0
        back = corpus_io.read_wav(out)
        src = corpus_io.read_wav(noisy)
        n = back.n_samples
        # Interior of the WOLA resynthesis reproduces the chosen channel.
        lo, hi = 256, n - 256
        np.testing.assert_allclose(back.samples[0, lo:hi],
                                   src.samples[2, lo:hi], atol=1e-5)

    def test_mono_input_is_data_error(self, tmp_path, capsys):
        mono = tmp_path / "mono.wav"
        corpus_io.write_wav(mono, _rng(0).normal(size=(1, 8000)) * 0.1,
                            sample_rate=16000)
        code = main(["enhance", "--input", str(mono),
                     "--out", str(tmp_path / "o.wav"),
                     "--masks", "oracle", "--clean", str(mono)])
        assert code == 2
        assert "single-channel" in capsys.readouterr().err

    def test_checkpoint_masks(self, tmp_path):
        from beamlab.pipeline import init_train_state, save_checkpoint

        noisy, _ = _make_scene(tmp_path, seed=2)
        ck = tmp_path / "ck.json"
        save_checkpoint(init_train_state(_rng(3), n_mels=6, vocab_size=3), ck)
        out = tmp_path / "enh.wav"
        code = main(["enhance", "--input", str(noisy), "--out", str(out),
                     "--masks", "checkpoint", "--checkpoint", str(ck),
                     "--window-size", "256", "--hop", "64"])
        assert code == 0
        assert corpus_io.read_wav(out).channels == 1


class TestMakeCorpusAndTrain:
    def test_make_corpus_layout(self, tmp_path):
        out = tmp_path / "corpus"
        code = main(["make-corpus", "--out-dir", str(out), "--n-multi", "3",
                     "--n-single", "4", "--seed", "5"])
        assert code == 0
        assert (out / "vocab.txt").exists()
        multi = corpus_io.load_manifest(out / "multi.jsonl", verify_audio=True)
        single = corpus_io.load_manifest(out / "single.jsonl", verify_audio=True)
        assert len(multi) == 3 and len(single) == 4
        assert all(u.channels == 4 for u in multi)
        assert all(u.channels == 1 for u in single)

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

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BEAMLAB_SEED", "7")
        a, b = tmp_path / "a", tmp_path / "b"
        main(["make-corpus", "--out-dir", str(a), "--n-multi", "2",
              "--n-single", "1", "--seed", "1"])
        main(["make-corpus", "--out-dir", str(b), "--n-multi", "2",
              "--n-single", "1", "--seed", "2"])
        wav_a = sorted((a / "wav").iterdir())[0]
        wav_b = sorted((b / "wav").iterdir())[0]
        assert wav_a.read_bytes() == wav_b.read_bytes()

    def test_bad_env_seed_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BEAMLAB_SEED", "not-a-number")
        assert main(["make-corpus", "--out-dir", str(tmp_path / "x"),
                     "--n-multi", "1", "--n-single", "1"]) == 1

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "mk.json"
        cfg.write_text(json.dumps({"n_multi": 5, "n_single": 2, "seed": 3}))
        out = tmp_path / "c"
        code = main(["make-corpus", "--config", str(cfg), "--out-dir", str(out),
                     "--n-multi", "1"])
        assert code == 0
        multi = corpus_io.load_manifest(out / "multi.jsonl")
        single = corpus_io.load_manifest(out / "single.jsonl")
        assert len(multi) == 1  # flag beat the file
        assert len(single) == 2  # file beat the default


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
        cfg.write_text(json.dumps({"n_mels": 6, "am_hidden": 12, "learning_rate": 0.02,
                                   "wav_augment": True}))
        code, report = self._train(tmp_path, "--config", str(cfg), "--epochs", "1",
                                   "--multi-batch-size", "2")
        assert code == 0
        config = report["config"]
        assert (config["n_mels"], config["am_hidden"]) == (6, 12)
        assert config["learning_rate"] == 0.02 and config["wav_augment"] is True
        assert config["vocab_size"] == 6 and config["epochs"] == 1

    def test_config_numbers_coerced_to_field_types(self, tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"subsample": 2.0, "snr_db": 5, "speed_perturb": False}))
        code, report = self._train(tmp_path, "--config", str(cfg), "--epochs", "1")
        assert code == 0
        config = report["config"]
        assert config["subsample"] == 2 and isinstance(config["subsample"], int)
        assert config["snr_db"] == 5.0 and isinstance(config["snr_db"], float)
        assert config["speed_perturb"] is False

    @pytest.mark.parametrize("key,value", [
        ("wav_augment", "false"), ("speed_perturb", 0), ("subsample", 2.7),
        ("epochs", True), ("n_mels", "6"), ("learning_rate", "0.02"), ("mode", 1),
    ])
    def test_config_value_of_wrong_type_is_usage_error(self, tmp_path, key, value):
        # Before: "false" enabled augmentation and 2.7 was truncated to 2.
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

    def test_vocab_size_is_not_a_config_key(self, tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"vocab_size": 3}))
        code, report = self._train(tmp_path, "--config", str(cfg))
        assert code == 1 and report is None

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
        # A negative factor would train on time-reversed frames.
        for flags in (["--subsample", "-2"], ["--subsample", "0"], ["--epochs", "0"]):
            code, report = self._train(tmp_path, *flags)
            assert code == 2 and report is None, flags


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
        assert len(corpus_io.load_manifest(out / "multi.jsonl", verify_audio=True)) == 2

    def test_float_epsilon_accepted(self, tmp_path, capsys):
        code, from_file, _ = self._run(tmp_path, capsys, "gradcheck", {"epsilon": 1e-5})
        assert code == 0
        assert main(["gradcheck"]) == 0
        assert capsys.readouterr().out == from_file.out


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
        rendered = corpus_io.load_manifest(out / "manifest.jsonl",
                                           verify_audio=True)
        assert len(rendered) == 2
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
        rendered = corpus_io.load_manifest("m.jsonl", verify_audio=True)
        assert [u.audio_path for u in rendered] == ["r/toy-s0000.wav", "r/toy-s0001.wav"]
        assert all(u.channels == 4 for u in rendered)
        (tmp_path / "sub").mkdir()
        code = main(["simulate", "--manifest", "c/single.jsonl", "--room-config", "room.json",
                     "--out-dir", "r2", "--manifest-out", "sub/m.jsonl"])
        assert code == 0
        rendered = corpus_io.load_manifest("sub/m.jsonl", verify_audio=True)
        assert rendered.utterances[0].audio_path == "../r2/toy-s0000.wav"
        # A manifest in a symlinked directory: "link/.." is the target's parent.
        (tmp_path / "deep" / "target").mkdir(parents=True)
        (tmp_path / "link").symlink_to(tmp_path / "deep" / "target")
        code = main(["simulate", "--manifest", "c/single.jsonl", "--room-config", "room.json",
                     "--out-dir", "r3", "--manifest-out", "link/m.jsonl"])
        assert code == 0
        corpus_io.load_manifest("link/m.jsonl", verify_audio=True)
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


class TestGradcheck:
    def test_default_passes_and_prints_breakdown(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        for name in ("mask.w1", "am.w2"):
            assert name in out

    def test_wide_preset(self):
        assert main(["gradcheck", "--preset", "wide", "--seed", "1"]) == 0

    def test_unknown_preset_is_usage_error(self):
        assert main(["gradcheck", "--preset", "gigantic"]) == 1

    def test_bad_epsilon_is_data_error(self):
        assert main(["gradcheck", "--epsilon", "-1"]) == 2
