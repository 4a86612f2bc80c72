"""sched tests: cost model, epoch planning, schemes, equivalences, toy corpus."""

import multiprocessing
import os
import subprocess
import sys
import types
from dataclasses import replace

import numpy as np
import pytest

from beamlab import cli, pipeline, roomsim, sched
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
    run_training,
    toy_array,
    toy_room,
)


def _rng(seed=0):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _toy_sets(n_multi=8, n_single=12, seed=0, vocab=6):
    rng = _rng(seed)
    return generate_toy_corpus(n_multi, n_single, vocab, rng)


def _cfg(**kw):
    defaults = dict(mode="JO_ONLY", epochs=2, multi_batch_size=4, seed=0)
    defaults.update(kw)
    return ScheduleConfig(**defaults)


PARAM_NAMES = ("w1", "b1", "w2", "b2")


def _usable_cpus(monkeypatch, n):
    """run_training forks its batch helper only when two CPUs are usable."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _pretrained(cfg, single_set):
    """PT's first stage as run_training runs it, in one process: a fresh
    state, then the AM-only pretraining epochs over the single set's STFTs."""
    streams = sched._spawn_streams(cfg.seed)
    state = pipeline.init_train_state(
        streams["init"], n_mels=cfg.n_mels, vocab_size=cfg.vocab_size, am_hidden=cfg.am_hidden,
        mask_hidden=cfg.mask_hidden, context=cfg.context, seed=cfg.seed)
    data = {u.utt_id: (sched.stft(u.wave, cfg.window_size, cfg.hop), u.labels)
            for u in single_set}
    sched._pretrain(state, cfg, list(data), data, streams["pretrain"], None)
    return state


def _affinity(*args):
    return os.sched_getaffinity(0)


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

    def test_zero_t2_without_single_set(self):
        # DS with no single-channel set: T2 = 0, the prediction is T1.
        for mode in MODES:
            assert epoch_cost_model(2.0, 0.0, 0.0, mode) == 2.0

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
            epoch_cost_model(-1.0, 0.0, 0.0, "JO_ONLY")
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
        multi_batches = [b for b in plan if b.kind == MULTI]
        single_batches = [b for b in plan if b.kind == SINGLE]
        assert len(multi_batches) == 10
        assert len(single_batches) == 10
        assert all(len(b.utt_ids) == 10 for b in multi_batches)
        assert all(len(b.utt_ids) == 5 for b in single_batches)

    def test_every_utterance_used_once(self):
        cfg = _cfg(mode="DS", multi_batch_size=3)
        multi = [f"m{i}" for i in range(7)]
        single = [f"s{i}" for i in range(5)]
        plan = plan_epoch(multi, single, cfg, _rng(2))
        seen_m = [u for b in plan if b.kind == MULTI for u in b.utt_ids]
        seen_s = [u for b in plan if b.kind == SINGLE for u in b.utt_ids]
        assert sorted(seen_m) == sorted(multi)
        assert sorted(seen_s) == sorted(single)

    def test_empty_single_gives_multi_only(self):
        cfg = _cfg(mode="DS", multi_batch_size=4)
        plan = plan_epoch([f"m{i}" for i in range(8)], [], cfg, _rng(3))
        assert all(b.kind == MULTI for b in plan)

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
        assert [(x.kind, x.utt_ids) for x in a] == [(x.kind, x.utt_ids) for x in b]


class TestGradSums:
    def test_zeros_and_add(self):
        state = pipeline.init_train_state(_rng(14), n_mels=4, vocab_size=3, am_hidden=5,
                                          mask_hidden=3)
        total = sched._zero_grads(state)
        one = sched._zero_grads(state)
        one["am.b2"][0] = 2.0
        one["mask.b2"][0] = -1.0
        total, loss_sum = sched._add_grads(total, 0.0, [(1.0, one), (0.5, one)])
        assert (total["am.b2"][0], total["mask.b2"][0], loss_sum) == (4.0, -2.0, 1.5)
        # A back-end-only result has no "mask.*" keys; the mask sums are kept.
        am_only = {key: grad for key, grad in one.items() if key.startswith("am.")}
        total, _ = sched._add_grads(total, loss_sum, [(1.0, am_only)])
        assert (total["am.b2"][0], total["mask.b2"][0]) == (6.0, -2.0)


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
        trained = _pretrained(cfg, single)
        fresh = _pretrained(cfg, [])
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
        a = _pretrained(cfg, single)
        b = _pretrained(cfg, [])
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

    def test_simu_without_a_scene_gets_the_toy_room_and_array(self):
        # Before: a SIMU config without a room and an array was a ValueError.
        settings = dict(epochs=1, multi_batch_size=2, seed=0)
        given = ScheduleConfig(mode="SIMU", room=toy_room(), array=toy_array(), **settings)
        filled = ScheduleConfig(mode="SIMU", **settings)
        assert sched.config_to_dict(filled) == sched.config_to_dict(given)
        # The other modes render nothing and get no scene.
        ds = ScheduleConfig(mode="DS", **settings)
        assert (ds.room, ds.array) == (None, None)

    def test_config_echo_of_simu_scenes(self):
        # The Report's config echo: every field, room and array as plain lists.
        settings = dict(mode="SIMU", epochs=1, multi_batch_size=2)
        echo = {"mode": "SIMU", "epochs": 1, "multi_batch_size": 2, "learning_rate": 0.05,
                "seed": 0, "pretrain_epochs": 0, "snr_db": 10.0, "max_order": 2,
                "window_size": 256, "hop": 128, "n_mels": 10, "am_hidden": 48,
                "mask_hidden": 8, "context": 3, "subsample": 3, "vocab_size": 6}
        toy = ScheduleConfig(room=toy_room(), array=toy_array(), **settings)
        assert sched.config_to_dict(toy) == {
            **echo,
            "room": {"dims": [5.0, 4.0, 3.0], "source_pos": [2.0, 1.5, 1.2],
                     "absorption": [0.6] * 6, "sound_speed": 343.0},
            "array": {"positions": [[3.25, 2.6, 1.1], [3.2, 2.65, 1.1],
                                    [3.1500000000000004, 2.6, 1.1],
                                    [3.2, 2.5500000000000003, 1.1]],
                      "preset": "desk-4ch"},
        }
        room = RoomSpec(dims=[4, 3, 2.5], source_pos=[1, 2, 1.5],
                        absorption=[0.2, 0.3, 0.4, 0.5, 0.6, 0.7], sound_speed=340.0)
        array = roomsim.array_from_dict({"positions": [[1.0, 1.0, 1.0], [1.1, 1.0, 1.0]]})
        custom = ScheduleConfig(room=room, array=array, **settings)
        assert sched.config_to_dict(custom) == {
            **echo,
            "room": {"dims": [4.0, 3.0, 2.5], "source_pos": [1.0, 2.0, 1.5],
                     "absorption": [0.2, 0.3, 0.4, 0.5, 0.6, 0.7], "sound_speed": 340.0},
            "array": {"positions": [[1.0, 1.0, 1.0], [1.1, 1.0, 1.0]], "preset": "custom"},
        }

    def test_empty_multi_set_rejected_before_training(self, monkeypatch):
        # Before: SIMU trained on the renders alone, then failed in the cost
        # model with "epoch times must be T1 > 0 and T2 >= 0".
        _, single, _ = _toy_sets(n_multi=0, n_single=2, seed=8)

        def past_the_check(*args, **kwargs):
            raise AssertionError("run_training went past the empty-set check")

        for name in ("simulate_multichannel", "stft", "Report"):
            monkeypatch.setattr(sched, name, past_the_check)
        for mode in MODES:
            with pytest.raises(ValueError, match="multi-channel set must not be empty"):
                run_training(_cfg(mode=mode, epochs=1), [], single)

    def test_single_set_of_mixed_sample_rates_trains(self):
        # Before: SIMU rendered every single utterance through one RIR at the
        # first one's rate, and the 16 kHz utterances failed with "sample rate
        # mismatch between source and RIR"; DS trained.
        multi, single, _ = _toy_sets(n_multi=4, n_single=2, seed=9)
        _, single_16k, _ = generate_toy_corpus(0, 2, 6, _rng(10), sample_rate=16000)
        single += [replace(u, utt_id=u.utt_id + "-16k") for u in single_16k]
        for mode in ("DS", "SIMU"):
            report = run_training(_cfg(mode=mode, epochs=1, multi_batch_size=2), multi, single)
            assert np.isfinite(report.epoch_losses).all(), mode
        assert report.counters["frontend_utts_per_epoch"] == 8

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

    def test_simulated_ids_unique_across_sets(self, monkeypatch):
        # A SIMU render takes its source's id plus "-sim", so a multi utterance
        # "x-sim" clashes with the render of a single "x". The check comes
        # before any render or training step, and no Report is made.
        multi, single, _ = _toy_sets(n_multi=2, n_single=2, seed=8)
        multi = [replace(multi[0], utt_id="x-sim")] + multi[1:]
        single = [replace(single[0], utt_id="x")] + single[1:]

        def past_the_check(*args, **kwargs):
            raise AssertionError("run_training went past the id check")

        for name in ("simulate_multichannel", "stft", "forward_joint", "Report"):
            monkeypatch.setattr(sched, name, past_the_check)
        with pytest.raises(ValueError, match="unique"):
            run_training(_cfg(mode="SIMU", epochs=1), multi, single)

    def test_multi_channel_single_utterance_named_before_any_stft(self, monkeypatch):
        # Before: DS and PT failed after every STFT (DS perhaps after MULTI
        # batches) with "backend path requires a single-channel spectrogram",
        # SIMU with "source must be single-channel"; neither named the utterance.
        multi, single, _ = _toy_sets(n_multi=2, n_single=2, seed=8)
        single = single[:1] + [replace(multi[1], utt_id="four-ch")]

        def no_stft(*args):
            raise AssertionError("stft called before the single-set check")

        monkeypatch.setattr(sched, "stft", no_stft)
        for mode in ("DS", "PT", "SIMU"):
            with pytest.raises(ValueError, match="utterance 'four-ch' has 4 channels"):
                run_training(_cfg(mode=mode, epochs=1, pretrain_epochs=1), multi, single)

    def test_epoch_stft_cache_serves_decoding(self, monkeypatch):
        # One STFT per utterance per run, and CTC only on training passes:
        # the final decode reads the epoch cache and skips CTC. One CPU, so
        # no helper process makes calls these counters cannot see.
        _usable_cpus(monkeypatch, 1)
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

    @pytest.mark.parametrize("pretrain_epochs,stfts", [(3, 6 + 2), (0, 2)])
    def test_pretraining_stfts_once(self, monkeypatch, pretrain_epochs, stfts):
        # One STFT per single utterance for all the pretrain epochs, none
        # without them, and one per multi utterance.
        multi, single, _ = _toy_sets(n_multi=2, n_single=6, seed=8)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return stft(*args, **kwargs)

        stft = sched.stft
        monkeypatch.setattr(sched, "stft", counted)
        report = run_training(_cfg(mode="PT", epochs=1, pretrain_epochs=pretrain_epochs),
                              multi, single)
        assert len(calls) == stfts
        assert len(report.pretrain_losses) == pretrain_epochs
        assert all(np.isfinite(report.pretrain_losses))


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="the helper is pinned to a second CPU")
class TestBatchSplit:
    """With two usable CPUs a forked helper computes the first half of every
    batch and of the decode; the Reports must equal the one-process run's."""

    @pytest.mark.parametrize("batch", [1, 2, 3, 4])
    @pytest.mark.parametrize("mode", MODES)
    def test_two_processes_equal_one(self, monkeypatch, mode, batch):
        # DS with 4 multi / 6 single utterances has SINGLE batches; batch 1
        # and the last batch of 3 leave a batch of one, which is not split;
        # batch 4 leaves this process more than one utterance to add.
        multi, single, _ = _toy_sets(n_multi=4, n_single=6, seed=21)
        cfg = _cfg(mode=mode, epochs=2, multi_batch_size=batch,
                   pretrain_epochs=1 if mode == "PT" else 0)
        # Calls the helper answered; "single" counts back-end-only batches.
        helped = {"_sum_grads": 0, "_token_errors": 0, "single": 0}
        split = sched._split

        def spy(helper, state, ids, remote, local, *args):
            theirs, mine = split(helper, state, ids, remote, local, *args)
            helped[remote.__name__] += theirs is not None
            helped["single"] += theirs is not None and args == (False,)
            return theirs, mine

        monkeypatch.setattr(sched, "_split", spy)
        runs = {}
        for cpus in (2, 1):
            _usable_cpus(monkeypatch, cpus)
            runs[cpus] = run_training(cfg, multi, single, return_state=True)
            assert multiprocessing.active_children() == []
        # The helper decodes once; it trains on no batch when every batch has
        # one utterance (DS's SINGLE batches hold 2 at batch 1).
        assert helped["_token_errors"] == 1
        assert (helped["_sum_grads"] == 0) == (batch == 1 and mode != "DS")
        # PT's pretraining batches hold `batch` single utterances.
        assert (helped["single"] > 0) == (mode == "DS" or (mode == "PT" and batch >= 2))
        (two, two_state), (one, one_state) = runs[2], runs[1]
        for name in ("mode", "seed", "config", "epoch_losses", "single_losses",
                     "pretrain_losses", "toy_error", "counters"):
            assert getattr(two, name) == getattr(one, name), name
        assert two.cost_model["n_ratio"] == one.cost_model["n_ratio"]
        assert _states_equal(two_state, one_state)

    def test_helper_runs_off_this_process_cpu(self):
        # The kernel may not balance load, so the helper must not share our CPU.
        cpus = os.sched_getaffinity(0)
        if len(cpus) < 2:
            pytest.skip("needs two usable CPUs")
        with sched._helper_process({}, _cfg()) as helper:
            theirs, _ = sched._split(helper, None, ["a", "b"], _affinity, lambda ids: None)
        assert len(theirs) == len(cpus) - 1 and theirs < cpus

    def test_ctrl_c_raises_keyboard_interrupt(self):
        # SIGINT reaches the whole process group; the helper ignores it, so the
        # parent raises KeyboardInterrupt, not the EOFError of a dead helper.
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs two usable CPUs")
        # The child installs Python's SIGINT handler itself: a process started
        # with SIGINT ignored (a background job of a non-interactive shell)
        # would otherwise inherit the ignore, and Ctrl-C would do nothing.
        script = """if True:
            import multiprocessing, os, signal, time, numpy as np
            signal.signal(signal.SIGINT, signal.default_int_handler)
            from beamlab import sched
            multi, _, _ = sched.generate_toy_corpus(8, 0, 6, np.random.default_rng(0))
            main, utt_grads = os.getpid(), sched._utt_grads
            def slow_helper_or_ctrl_c(state, *args):
                if os.getpid() != main:
                    time.sleep(0.2)  # the helper is busy when Ctrl-C comes
                elif state.step == 1:
                    os.killpg(0, signal.SIGINT)
                return utt_grads(state, *args)
            sched._utt_grads = slow_helper_or_ctrl_c
            cfg = sched.ScheduleConfig(mode="JO_ONLY", epochs=5, multi_batch_size=4)
            try:
                sched.run_training(cfg, multi, [])
            except KeyboardInterrupt:
                print("KeyboardInterrupt", multiprocessing.active_children())
            """
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             start_new_session=True, timeout=120)
        assert (out.stdout, out.stderr) == ("KeyboardInterrupt []\n", "")
        assert out.returncode == 0

    def test_runs_inside_a_pool_worker(self, monkeypatch):
        # A daemonic pool worker may not fork a helper: it trains alone.
        _usable_cpus(monkeypatch, 2)
        multi, _, _ = _toy_sets(n_multi=4, n_single=0, seed=10)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            pooled = pool.apply(run_training, (_cfg(), multi, []))
        alone = run_training(_cfg(), multi, [])
        assert (pooled.epoch_losses, pooled.toy_error) == (alone.epoch_losses, alone.toy_error)

    @pytest.mark.parametrize("bad,grad", [([0], False), ([1], False), ([2], False),
                                          ([3], False), ([0, 1, 2, 3], False), ([2], True)],
                             ids=["utt0", "utt1", "utt2", "utt3", "all", "grad-utt2"])
    def test_first_non_finite_utterance_is_named(self, monkeypatch, tmp_path, capsys, bad,
                                                 grad):
        # One batch of 4: the helper computes the first 2 in batch order, so
        # a NaN loss (or a NaN "mask.w1" gradient) on either side, or on all,
        # must name what one process names. The bad utterances are told by
        # their labels, so a run of `cli train` on the same corpus finds them.
        multi, _, _ = _toy_sets(n_multi=4, n_single=0, seed=9)
        bad_labels = [tuple(multi[i].labels.ids) for i in bad]
        forward_joint, backward_joint = sched.forward_joint, sched.backward_joint

        def nan_forward(state, spec, labels, **kwargs):
            loss, cache = forward_joint(state, spec, labels, **kwargs)
            cache["bad"] = labels is not None and tuple(labels.ids) in bad_labels
            return (float("nan") if cache["bad"] and not grad else loss), cache

        def nan_backward(cache):
            grads = backward_joint(cache)
            if cache["bad"]:
                grads["mask.w1"][0, 0] = np.nan
            return grads

        # Patched before the run, so the forked helper inherits them.
        monkeypatch.setattr(sched, "forward_joint", nan_forward)
        monkeypatch.setattr(sched, "backward_joint", nan_backward)
        messages = {}
        for cpus in (2, 1):
            _usable_cpus(monkeypatch, cpus)
            with pytest.raises(sched.NumericalError) as err:
                run_training(_cfg(epochs=1), multi, [])
            assert multiprocessing.active_children() == []
            messages[cpus] = str(err.value)
        assert messages[2] == messages[1]
        if len(bad) == 1:
            assert f"utterance '{multi[bad[0]].utt_id}'" in messages[1]
        if grad:
            assert "non-finite gradient for mask.w1" in messages[1]
            # make-corpus writes the same toy corpus: train is a numerical failure.
            assert cli.main(["make-corpus", "--out-dir", str(tmp_path), "--n-multi", "4",
                             "--n-single", "0", "--seed", "9"]) == 0
            capsys.readouterr()
            assert cli.main(["train", "--mode", "JO_ONLY", "--epochs", "1",
                             "--multi-batch-size", "4", "--seed", "0",
                             "--multi-manifest", str(tmp_path / "multi.jsonl"),
                             "--vocab", str(tmp_path / "vocab.txt"),
                             "--report", str(tmp_path / "r.json")]) == 3
            assert capsys.readouterr().err == f"numerical failure: {messages[1]}\n"


# Reports of the harness (seed 0, 4/6 toy split of corpus seed 21, 2 epochs,
# batch 2): epoch_losses, single_losses, pretrain_losses, toy_error, counters,
# captured with the exact adjoint of the diagonal loading. A refactor of the
# harness must reproduce them.
PINNED_RUNS = {
    "PT": ([12.148988201687938, 6.932891772771092], [], [13.67218120645348],
           0.2631578947368421, {"frontend_utts_per_epoch": 4, "single_utts_per_epoch": 0}),
    "DS": ([14.73621272580751, 7.453580218425998], [12.933620180592744, 7.064210649121628], [],
           0.21052631578947367, {"frontend_utts_per_epoch": 4, "single_utts_per_epoch": 6}),
    "SIMU": ([13.639547926840743, 6.187410664992188], [], [],
             0.21052631578947367, {"frontend_utts_per_epoch": 10, "single_utts_per_epoch": 0}),
    "JO_ONLY": ([17.253464726947414, 9.721058340344872], [], [],
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
    """No runtime path, the single-channel data's included, needs scipy."""

    def test_importing_beamlab_loads_no_scipy(self, tmp_path):
        # scipy.signal costs a process tens of MB and over a second to import.
        # Then, with scipy unimportable, every subcommand that reads or writes
        # audio still runs, PT pretraining included.
        script = """if True:
            import json, sys
            import beamlab, beamlab.sched
            from beamlab.cli import main
            assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
            sys.modules["scipy"] = None  # any import of scipy raises ImportError
            out = sys.argv[1]
            for snr in ("inf", "0"):
                assert main(["make-corpus", "--out-dir", f"{out}/c{snr}", "--n-multi", "2",
                             "--n-single", "2", "--snr-db", snr, "--seed", "1"]) == 0
            assert main(["train", "--mode", "PT", "--pretrain-epochs", "1", "--epochs", "1",
                         "--multi-batch-size", "2", "--multi-manifest", f"{out}/c0/multi.jsonl",
                         "--single-manifest", f"{out}/c0/single.jsonl",
                         "--vocab", f"{out}/c0/vocab.txt", "--report", f"{out}/r.json"]) == 0
            with open(f"{out}/room.json", "w") as fh:
                json.dump({"room": {"dims": [5, 4, 3], "source_pos": [2, 1.5, 1.2]},
                           "array": {"preset": "desk-4ch", "center": [3.2, 2.6, 1.1]},
                           "max_order": 1}, fh)
            assert main(["simulate", "--manifest", f"{out}/c0/single.jsonl", "--room-config",
                         f"{out}/room.json", "--out-dir", f"{out}/sim"]) == 0
            assert main(["enhance", "--input", f"{out}/c0/wav/toy-m0000.wav",
                         "--clean", f"{out}/cinf/wav/toy-m0000.wav", "--masks", "oracle",
                         "--out", f"{out}/enh.wav"]) == 0
            """
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                             capture_output=True, text=True, timeout=120)
        assert (out.stderr, out.returncode) == ("", 0)


class TestToyCorpus:
    def test_shapes_and_metadata(self):
        multi, single, tokens = _toy_sets(n_multi=3, n_single=4, vocab=5)
        assert tokens == ["a", "b", "c", "d", "e"]
        assert len(multi) == 3 and len(single) == 4
        for utt in multi:
            assert utt.wave.channels == 4
            assert 3 <= len(utt.labels) <= 6
        for utt in single:
            assert utt.wave.channels == 1

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
        room = RoomSpec(dims=[6.0, 5.0, 3.0], source_pos=[1.0, 1.0, 1.0], absorption=0.35)
        array = array_preset("chime4-6ch", center=[3.0, 2.5, 1.1])
        # Before: a given array was dropped when the room was absent, and a
        # given room without an array made SIMU fail.
        for given, (want_room, want_array) in (({"room": room}, (room, toy_array())),
                                               ({"array": array}, (toy_room(), array))):
            compare_schemes(_cfg(mode="JO_ONLY", **given), [], [], seeds=[0])
            simu = seen["SIMU"]
            assert simu.room.dims.tolist() == want_room.dims.tolist()
            assert simu.array.positions.tolist() == want_array.positions.tolist()
