"""sched tests: cost model, epoch planning, schemes, equivalences, toy corpus."""

import types
from dataclasses import replace

import numpy as np
import pytest

from beamlab import pipeline, sched
from beamlab.dsp import Waveform
from beamlab.roomsim import RoomSpec, array_preset
from beamlab.sched import (
    MODES,
    MULTI,
    SINGLE,
    ScheduleConfig,
    compare_schemes,
    epoch_cost_model,
    generate_toy_corpus,
    plan_epoch,
    run_pretrain,
    run_training,
    speed_perturb,
    toy_array,
    toy_room,
    wav_augment,
)


def _rng(seed=0):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _toy_sets(n_multi=8, n_single=12, seed=0, vocab=6):
    rng = _rng(seed)
    return generate_toy_corpus(n_multi, n_single, vocab, rng)


def _cfg(**kw):
    defaults = dict(mode="JO_ONLY", epochs=2, multi_batch_size=4, seed=0)
    defaults.update(kw)
    if defaults["mode"] == "SIMU" and "room" not in kw:
        defaults["room"], defaults["array"] = toy_room(), toy_array()
    return ScheduleConfig(**defaults)


PARAM_NAMES = ("w1", "b1", "w2", "b2")


def _states_equal(a, b) -> bool:
    return all(
        np.array_equal(getattr(a.am_params, n), getattr(b.am_params, n))
        for n in PARAM_NAMES
    ) and all(
        np.array_equal(getattr(a.mask_params, n), getattr(b.mask_params, n))
        for n in PARAM_NAMES
    )


class TestCostModel:
    def test_formulas(self):
        assert epoch_cost_model(2.0, 0.5, 1.5, "PT") == 2.0
        assert epoch_cost_model(2.0, 0.5, 1.5, "JO_ONLY") == 2.0
        assert epoch_cost_model(2.0, 0.5, 1.5, "DS") == 2.5
        assert epoch_cost_model(2.0, 0.5, 1.5, "SIMU") == (1 + 1.5) * 2.0

    def test_caption_regime_exact(self):
        # T1 = 10*T2 and N = 1.2 must give DS = 1.1*T1 and SIMU = 2.2*T1
        # with exact float equality.
        t1, t2, n = 1.0, 0.1, 1.2
        assert epoch_cost_model(t1, t2, n, "PT") == t1
        assert epoch_cost_model(t1, t2, n, "DS") == 1.1 * t1
        assert epoch_cost_model(t1, t2, n, "SIMU") == 2.2 * t1
        assert epoch_cost_model(t1, t2, n, "JO_ONLY") == t1

    def test_validation(self):
        with pytest.raises(ValueError):
            epoch_cost_model(0.0, 1.0, 1.0, "PT")
        with pytest.raises(ValueError):
            epoch_cost_model(1.0, -1.0, 1.0, "DS")
        with pytest.raises(ValueError):
            epoch_cost_model(1.0, 1.0, -0.5, "SIMU")
        with pytest.raises(ValueError):
            epoch_cost_model(1.0, 1.0, 1.0, "nope")


class TestPlanEpoch:
    def test_ratio_example(self):
        # 100 multi / 50 single at multi batch 10: N = 0.5, so each of the
        # 10 multi batches pairs with a single batch of max(1, round(5)) = 5,
        # consuming the 50 single utterances exactly.
        cfg = _cfg(mode="DS", multi_batch_size=10)
        plan = plan_epoch([f"m{i}" for i in range(100)],
                          [f"s{i}" for i in range(50)], cfg, _rng(1))
        multi_batches = [b for b in plan.batches if b.kind == MULTI]
        single_batches = [b for b in plan.batches if b.kind == SINGLE]
        assert len(multi_batches) == 10
        assert len(single_batches) == 10
        assert all(len(b.utt_ids) == 10 for b in multi_batches)
        assert all(len(b.utt_ids) == 5 for b in single_batches)

    def test_every_utterance_used_once(self):
        cfg = _cfg(mode="DS", multi_batch_size=3)
        multi = [f"m{i}" for i in range(7)]
        single = [f"s{i}" for i in range(5)]
        plan = plan_epoch(multi, single, cfg, _rng(2))
        seen_m = [u for b in plan.batches if b.kind == MULTI for u in b.utt_ids]
        seen_s = [u for b in plan.batches if b.kind == SINGLE for u in b.utt_ids]
        assert sorted(seen_m) == sorted(multi)
        assert sorted(seen_s) == sorted(single)

    def test_empty_single_gives_multi_only(self):
        cfg = _cfg(mode="DS", multi_batch_size=4)
        plan = plan_epoch([f"m{i}" for i in range(8)], [], cfg, _rng(3))
        assert all(b.kind == MULTI for b in plan.batches)

    def test_empty_multi_rejected(self):
        cfg = _cfg(mode="DS")
        with pytest.raises(ValueError, match="must not be empty"):
            plan_epoch([], ["s1"], cfg, _rng(0))

    def test_deterministic_for_seed(self):
        cfg = _cfg(mode="DS", multi_batch_size=3)
        multi = [f"m{i}" for i in range(9)]
        single = [f"s{i}" for i in range(6)]
        a = plan_epoch(multi, single, cfg, _rng(5))
        b = plan_epoch(multi, single, cfg, _rng(5))
        assert [(x.kind, x.utt_ids) for x in a.batches] == \
               [(x.kind, x.utt_ids) for x in b.batches]


class TestSchemes:
    def test_all_modes_produce_reports(self):
        multi, single, _ = _toy_sets()
        for mode in MODES:
            cfg = _cfg(mode=mode, epochs=2, pretrain_epochs=1)
            report = run_training(cfg, multi, single)
            assert report.mode == mode
            assert len(report.epoch_losses) == 2
            assert all(np.isfinite(x) for x in report.epoch_losses)
            assert len(report.wall_clock_per_epoch) == 2
            assert 0.0 <= report.toy_error
            d = report.to_dict()
            assert d["mode"] == mode and "counters" in d and "cost_model" in d

    def test_losses_decrease_jo(self):
        multi, single, _ = _toy_sets(n_multi=10, n_single=0, seed=1)
        cfg = _cfg(mode="JO_ONLY", epochs=5)
        report = run_training(cfg, multi, [])
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_empty_single_set_reduces_to_jo_only(self):
        # With no single-channel data every scheme must walk the exact same
        # parameter trajectory as JO_ONLY, bit for bit.
        multi, _, _ = _toy_sets(n_multi=6, n_single=0, seed=2)
        states = {}
        for mode in MODES:
            cfg = _cfg(mode=mode, epochs=2, pretrain_epochs=2)
            _, state = run_training(cfg, multi, [], return_state=True)
            states[mode] = state
        for mode in MODES:
            assert _states_equal(states[mode], states["JO_ONLY"]), mode

    def test_same_seed_same_result(self):
        multi, single, _ = _toy_sets(n_multi=6, n_single=8, seed=3)
        cfg = _cfg(mode="DS", epochs=2)
        _, a = run_training(cfg, multi, single, return_state=True)
        _, b = run_training(cfg, multi, single, return_state=True)
        assert _states_equal(a, b)

    def test_counters_laws_on_50_100_split(self):
        multi, single, _ = _toy_sets(n_multi=50, n_single=100, seed=4)
        n = len(single) / len(multi)
        ds = run_training(_cfg(mode="DS", epochs=1, multi_batch_size=10),
                          multi, single)
        c = ds.counters
        assert c["single_utts_per_epoch"] / c["frontend_utts_per_epoch"] == n
        simu = run_training(_cfg(mode="SIMU", epochs=1, multi_batch_size=10),
                            multi, single)
        assert simu.counters["frontend_utts_per_epoch"] == (1 + n) * len(multi)
        assert simu.counters["single_utts_per_epoch"] == 0

    def test_pretrain_only_touches_am(self):
        # Pretraining updates the AM but never the mask net: against a
        # data-free run (identical init streams) the mask params are bitwise
        # identical while the AM params moved.
        _, single, _ = _toy_sets(n_multi=4, n_single=6, seed=5)
        cfg = _cfg(mode="PT", epochs=1, pretrain_epochs=2)
        trained = run_pretrain(cfg, single)
        fresh = run_pretrain(cfg, [])
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(
                getattr(trained.mask_params, name), getattr(fresh.mask_params, name))
        assert any(
            not np.array_equal(getattr(trained.am_params, n), getattr(fresh.am_params, n))
            for n in PARAM_NAMES
        )

    def test_run_pretrain_zero_epochs_is_identity(self):
        _, single, _ = _toy_sets(n_multi=2, n_single=3, seed=6)
        cfg = _cfg(mode="PT", pretrain_epochs=0)
        a = run_pretrain(cfg, single)
        b = run_pretrain(cfg, [])
        assert _states_equal(a, b)

    def test_cost_prediction_reconciles_with_measurement(self):
        multi, single, _ = _toy_sets(n_multi=8, n_single=8, seed=7)
        cfg = _cfg(mode="DS", epochs=2, multi_batch_size=4)
        report = run_training(cfg, multi, single)
        predicted = report.cost_model["predicted_epoch_seconds"]
        measured = float(np.mean(report.wall_clock_per_epoch))
        # Same-order sanity: predictions come from measured per-utterance
        # costs, so they reconcile within a factor of two.
        assert predicted == pytest.approx(measured, rel=1.0)

    def test_simu_requires_room(self):
        with pytest.raises(ValueError, match="SIMU"):
            ScheduleConfig(mode="SIMU", epochs=1, multi_batch_size=2, seed=0)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            ScheduleConfig(mode="XX", epochs=1, multi_batch_size=2, seed=0)

    def test_subsample_below_one_rejected(self):
        # -2 would train on time-reversed frames; 0 cannot slice.
        for bad in (0, -2):
            with pytest.raises(ValueError, match="subsample factor must be >= 1"):
                _cfg(subsample=bad)

    def test_utterance_ids_unique_across_sets(self):
        # The spec and label caches are keyed by id: a clash would feed one
        # utterance's audio to the other's batches and decode.
        multi, single, _ = _toy_sets(n_multi=2, n_single=2, seed=8)
        clash = [replace(single[0], utt_id=multi[0].utt_id)] + single[1:]
        with pytest.raises(ValueError, match="unique"):
            run_training(_cfg(mode="DS", epochs=1), multi, clash)

    def test_epoch_stft_cache_serves_decoding(self, monkeypatch):
        # One STFT per utterance per run, and CTC only on training passes:
        # the final decode reads the epoch cache and skips CTC.
        multi, _, _ = _toy_sets(n_multi=3, n_single=0, seed=8)
        calls = {"stft": 0, "ctc": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sched, "stft", counted("stft", sched.stft))
        monkeypatch.setattr(pipeline, "ctc_loss", counted("ctc", pipeline.ctc_loss))
        report = run_training(_cfg(epochs=2), multi, [])
        assert calls == {"stft": 3, "ctc": 2 * 3}
        assert np.isfinite(report.toy_error)

    @pytest.mark.parametrize("augment,stfts", [({}, 6 + 2), ({"wav_augment": True}, 3 * 6 + 2)])
    def test_pretraining_stfts_once_unless_augmented(self, monkeypatch, augment, stfts):
        # 6 single utterances, 3 pretrain epochs, then one STFT per multi utterance.
        multi, single, _ = _toy_sets(n_multi=2, n_single=6, seed=8)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return stft(*args, **kwargs)

        stft = sched.stft
        monkeypatch.setattr(sched, "stft", counted)
        report = run_training(_cfg(mode="PT", epochs=1, pretrain_epochs=3, **augment),
                              multi, single)
        assert len(calls) == stfts
        assert len(report.pretrain_losses) == 3 and all(np.isfinite(report.pretrain_losses))


# Reports of the parent implementation of the harness (seed 0, 4/6 toy split
# of corpus seed 21, 2 epochs, batch 2): epoch_losses, single_losses,
# pretrain_losses, toy_error, counters. A refactor of the harness must
# reproduce them.
PINNED_RUNS = {
    "PT": ([12.148988160796158, 6.932891288432719], [], [13.67218120645348],
           0.2631578947368421, {"frontend_utts_per_epoch": 4, "single_utts_per_epoch": 0}),
    "DS": ([14.736212738835333, 7.45358027151828], [12.93362018059274, 7.064210723065921], [],
           0.21052631578947367, {"frontend_utts_per_epoch": 4, "single_utts_per_epoch": 6}),
    "SIMU": ([13.63954783657704, 6.187410853192388], [], [],
             0.21052631578947367, {"frontend_utts_per_epoch": 10, "single_utts_per_epoch": 0}),
    "JO_ONLY": ([17.253464745803065, 9.721058398019974], [], [],
                0.21052631578947367, {"frontend_utts_per_epoch": 4, "single_utts_per_epoch": 0}),
}


class TestPinnedHarness:
    @pytest.mark.parametrize("mode", MODES)
    def test_report_numbers(self, mode):
        multi, single, _ = _toy_sets(n_multi=4, n_single=6, seed=21)
        cfg = _cfg(mode=mode, epochs=2, multi_batch_size=2,
                   pretrain_epochs=1 if mode == "PT" else 0)
        report = run_training(cfg, multi, single)
        epoch, single_losses, pretrain, toy_error, counters = PINNED_RUNS[mode]
        np.testing.assert_allclose(report.epoch_losses, epoch, rtol=1e-9, atol=0)
        np.testing.assert_allclose(report.single_losses, single_losses, rtol=1e-9, atol=0)
        np.testing.assert_allclose(report.pretrain_losses, pretrain, rtol=1e-9, atol=0)
        assert len(report.single_losses) == len(single_losses)
        assert len(report.pretrain_losses) == len(pretrain)
        assert report.toy_error == toy_error
        assert report.counters == {"epochs": 2, "multi_set_size": 4, "single_set_size": 6,
                                   **counters}


class TestAugmentation:
    def test_speed_perturb_changes_length(self):
        wave = Waveform(samples=np.sin(np.linspace(0, 20, 800))[None, :],
                        sample_rate=8000)
        slow = speed_perturb(wave, 0.9)
        fast = speed_perturb(wave, 1.1)
        assert slow.n_samples > wave.n_samples > fast.n_samples
        assert speed_perturb(wave, 1.0).n_samples == wave.n_samples

    def test_augmented_pretraining_run(self):
        # speed_perturb/wav_augment act on PT's pretraining batches only.
        multi, single, _ = _toy_sets(n_multi=4, n_single=6, seed=9)
        plain = run_training(_cfg(mode="PT", epochs=1, pretrain_epochs=2), multi, single)
        aug = run_training(_cfg(mode="PT", epochs=1, pretrain_epochs=2,
                                speed_perturb=True, wav_augment=True), multi, single)
        assert len(aug.pretrain_losses) == 2
        assert all(np.isfinite(aug.pretrain_losses))
        assert aug.pretrain_losses != plain.pretrain_losses

    def test_augmented_pt_without_single_data_is_jo_only(self):
        multi, _, _ = _toy_sets(n_multi=4, n_single=0, seed=10)
        jo, jo_state = run_training(_cfg(mode="JO_ONLY"), multi, [], return_state=True)
        pt, pt_state = run_training(_cfg(mode="PT", pretrain_epochs=2, speed_perturb=True,
                                         wav_augment=True), multi, [], return_state=True)
        assert _states_equal(pt_state, jo_state)
        assert pt.epoch_losses == jo.epoch_losses
        assert pt.toy_error == jo.toy_error

    def test_wav_augment_deterministic(self):
        wave = Waveform(samples=_rng(8).normal(size=(1, 600)), sample_rate=8000)
        a = wav_augment(wave, _rng(9))
        b = wav_augment(wave, _rng(9))
        np.testing.assert_array_equal(a.samples, b.samples)


class TestToyCorpus:
    def test_shapes_and_metadata(self):
        multi, single, tokens = _toy_sets(n_multi=3, n_single=4, vocab=5)
        assert tokens == ["a", "b", "c", "d", "e"]
        assert len(multi) == 3 and len(single) == 4
        for utt in multi:
            assert utt.wave.channels == 4
            assert utt.origin == "real"
            assert 3 <= len(utt.labels) <= 6
        for utt in single:
            assert utt.wave.channels == 1
            assert utt.origin == "single"

    def test_deterministic(self):
        a_multi, a_single, _ = _toy_sets(seed=11, n_multi=2, n_single=2)
        b_multi, b_single, _ = _toy_sets(seed=11, n_multi=2, n_single=2)
        for a, b in zip(a_multi + a_single, b_multi + b_single):
            assert a.utt_id == b.utt_id
            np.testing.assert_array_equal(a.wave.samples, b.wave.samples)
            np.testing.assert_array_equal(a.labels.ids, b.labels.ids)

    def test_band_energy_classifier_oracle(self):
        # The label tones are far enough apart that a bandpass-energy argmax
        # recovers every label from the clean single-channel audio.
        _, single, tokens = _toy_sets(n_multi=1, n_single=5, vocab=6, seed=12)
        freqs = sched.toy_token_freqs(6)
        sr = sched.TOY_SAMPLE_RATE
        burst = int(sched.TOY_BURST_SECONDS * sr)
        gap = int(sched.TOY_GAP_SECONDS * sr)
        for utt in single:
            samples = utt.wave.samples[0]
            t0 = 0
            for label in utt.labels.ids:
                seg = samples[t0 : t0 + burst]
                spec = np.abs(np.fft.rfft(seg * np.hanning(len(seg))))
                bins = np.fft.rfftfreq(len(seg), 1.0 / sr)
                energies = [
                    spec[(bins > f0 * 0.9) & (bins < f0 * 1.1)].sum() for f0 in freqs
                ]
                assert int(np.argmax(energies)) + 1 == label
                t0 += burst + gap

    def test_vocab_size_validated(self):
        with pytest.raises(ValueError, match="vocab_size"):
            generate_toy_corpus(1, 1, 1, _rng(0))


class TestCompareSchemes:
    def test_report_structure(self):
        multi, single, _ = _toy_sets(n_multi=5, n_single=6, seed=13)
        cfg = _cfg(mode="JO_ONLY", epochs=1, multi_batch_size=3)
        result = compare_schemes(cfg, multi, single, seeds=[0, 1])
        assert set(result["per_scheme"]) == set(MODES)
        for mode in MODES:
            scheme = result["per_scheme"][mode]
            assert len(scheme["errors"]) == 2
            assert np.isfinite(scheme["mean_error"])
        assert sorted(result["ordering_by_mean_error"]) == sorted(MODES)
        assert "seed-sensitive" in result["note"]

    def test_simu_fills_in_only_the_missing_scene_field(self, monkeypatch):
        seen = {}

        def fake_run(cfg, multi_set, single_set):
            seen[cfg.mode] = cfg
            return types.SimpleNamespace(toy_error=0.0)

        monkeypatch.setattr(sched, "run_training", fake_run)
        room = RoomSpec(dims=[6.0, 5.0, 3.0], source_pos=[1.0, 1.0, 1.0])
        array = array_preset("chime4-6ch", center=[3.0, 2.5, 1.1])
        # Before: a given array was dropped when the room was absent, and a
        # given room without an array made SIMU fail.
        for given, (want_room, want_array) in (({"room": room}, (room, toy_array())),
                                               ({"array": array}, (toy_room(), array))):
            compare_schemes(_cfg(mode="JO_ONLY", **given), [], [], seeds=[0])
            simu = seen["SIMU"]
            assert simu.room.dims.tolist() == want_room.dims.tolist()
            assert simu.array.positions.tolist() == want_array.positions.tolist()
