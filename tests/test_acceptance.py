"""Acceptance gate: one test per shipped criterion, pinned tolerances.

Run with `pytest -v tests/test_acceptance.py` — the verbose listing gives one
pass/fail line per criterion. Tolerances, seed counts, and time budgets are
pinned in the individual tests and must not be loosened.
"""

import itertools
import time

import numpy as np
import pytest

from beamlab import backend, beamform, dsp, pipeline, roomsim, sched
from beamlab.cli import make_gradcheck_instance
from beamlab.dsp import Waveform
from beamlab.sched import ScheduleConfig
from test_backend import brute_force_ctc


def _rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


# ---------------------------------------------------------------------------
# Criterion 1 — STFT/iSTFT round trip
# ---------------------------------------------------------------------------


def test_criterion_1_stft_istft_roundtrip():
    """100 random 1 s signals: interior error < 1e-6; total runtime < 10 s."""
    window, hop, sr = 512, 128, 16000
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        x = _rng(seed).normal(size=sr)
        wave = Waveform(samples=x[None, :], sample_rate=sr)
        back = dsp.istft(dsp.stft(wave, window, hop))
        n = min(back.n_samples, sr)
        err = np.abs(back.samples[0, window : n - window]
                     - x[window : n - window]).max()
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6, f"interior round-trip error {worst:.3e}"
    assert elapsed < 10.0, f"round-trip suite took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# Criterion 2 — MVDR distortionless response + trace normalization
# ---------------------------------------------------------------------------


def test_criterion_2_mvdr_distortionless_and_trace():
    """Rank-1 noiseless scene within 1e-8; trace == 1 within 1e-10."""
    # (a) Noiseless rank-1 scene with Phi_NN = sigma^2 I: the enhanced output
    # must equal the reference-channel clean observation.
    rng = _rng(2024)
    frames, bins, channels, ref = 20, 65, 4, 1
    steer = rng.normal(size=(bins, channels)) + 1j * rng.normal(size=(bins, channels))
    source = rng.normal(size=(frames, bins)) + 1j * rng.normal(size=(frames, bins))
    obs = source[:, :, None] * steer[None, :, :]
    phi_ss = beamform.masked_psd(obs, np.ones((frames, bins)))
    phi_nn = 0.3 * np.broadcast_to(np.eye(channels), (bins, channels, channels)).copy()
    weights, _ = beamform.normalized_psd_ratio_vjp(phi_ss, phi_nn)
    enhanced = beamform.apply_beamformer(weights[:, :, ref], obs)
    err = np.abs(enhanced - obs[:, :, ref]).max()
    assert err < 1e-8, f"distortionless violation {err:.3e}"

    # (b) Trace normalization across 100 random PSD pairs, C in {2, 4, 6}.
    worst = 0.0
    for i in range(100):
        c = (2, 4, 6)[i % 3]
        rng_i = _rng(10_000 + i)
        a = rng_i.normal(size=(1, c, c)) + 1j * rng_i.normal(size=(1, c, c))
        b = rng_i.normal(size=(1, c, c)) + 1j * rng_i.normal(size=(1, c, c))
        phi_ss = a @ a.conj().transpose(0, 2, 1)
        phi_nn = b @ b.conj().transpose(0, 2, 1)
        normalized, _ = beamform.normalized_psd_ratio_vjp(phi_ss, phi_nn)
        trace = np.trace(normalized[0])
        worst = max(worst, abs(trace - 1.0))
    assert worst < 1e-10, f"trace normalization error {worst:.3e}"


# ---------------------------------------------------------------------------
# Criterion 3 — beamforming gain with oracle masks
# ---------------------------------------------------------------------------


def _sparse_source(rng, sr, n):
    """Tone bursts with gaps: energy is sparse in time and frequency."""
    out = np.zeros(n)
    pos = 0
    while pos < n - sr // 8:
        burst = int(sr * rng.uniform(0.05, 0.12))
        t = np.arange(burst) / sr
        f0 = rng.uniform(300.0, 3400.0)
        out[pos : pos + burst] += np.hanning(burst) * np.sin(2 * np.pi * f0 * t)
        pos += burst + int(sr * rng.uniform(0.03, 0.08))
    return out


def _anechoic_rir(rng, sr, channels):
    """One fractional-delay windowed-sinc pulse per channel (point source)."""
    half = roomsim.SINC_HALF_WIDTH
    taps = np.zeros((channels, 2 * half + 8))
    for c in range(channels):
        d = half + rng.uniform(0.0, 3.0)
        idx = np.arange(int(round(d)) - half, int(round(d)) + half + 1)
        t = idx - d
        taps[c, idx] = np.sinc(t) * 0.5 * (1.0 + np.cos(np.pi * t / (half + 1)))
    return roomsim.RIR(taps=taps, sample_rate=sr)


def test_criterion_3_beamforming_gain():
    """4-ch point source + white noise at 0 dB: gain >= 3 dB on >= 95/100."""
    sr, n, channels = 16000, 12000, 4
    window, hop = 512, 128
    t0 = time.perf_counter()
    passed = 0
    for seed in range(100):
        rng = _rng(seed)
        rir = _anechoic_rir(rng, sr, channels)
        src = Waveform(samples=_sparse_source(rng, sr, n)[None, :], sample_rate=sr)
        clean = roomsim.simulate_multichannel(src, rir)
        noise = Waveform(samples=rng.normal(size=clean.samples.shape), sample_rate=sr)
        noisy = roomsim.mix_at_snr(clean, noise, 0.0)

        noisy_spec = dsp.stft(noisy, window, hop)
        clean_spec = dsp.stft(clean, window, hop)
        noise_bins = noisy_spec.bins - clean_spec.bins

        m_s = beamform.oracle_masks(clean_spec.bins[:, :, 0], noise_bins[:, :, 0])
        weights, ref, _ = beamform.mvdr_weights(noisy_spec.bins, m_s, None)

        out_clean = beamform.apply_beamformer(weights, clean_spec.bins)
        out_noise = beamform.apply_beamformer(weights, noise_bins)
        snr_in = (np.abs(clean_spec.bins[:, :, ref]) ** 2).sum() / (
            np.abs(noise_bins[:, :, ref]) ** 2
        ).sum()
        snr_out = (np.abs(out_clean) ** 2).sum() / (
            np.abs(out_noise) ** 2
        ).sum()
        gain_db = 10.0 * np.log10(snr_out / snr_in)
        if gain_db >= 3.0:
            passed += 1
    elapsed = time.perf_counter() - t0
    assert passed >= 95, f"only {passed}/100 seeds reached 3 dB gain"
    assert elapsed < 30.0, f"gain suite took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# Criterion 4 — image-source geometry against hand-enumerated images
# ---------------------------------------------------------------------------


def test_criterion_4_rir_first_order_delays():
    """First-order image delays match hand-enumerated distances within 1 sample."""
    dims = np.array([10.0, 7.5, 3.5])
    source = np.array([2.5, 3.73, 1.76])
    mic = np.array([5.0, 4.0, 1.5])
    sr, c = 16000, 343.0

    # Hand enumeration: the source plus one reflection of the source across
    # each of the six walls (planes x=0, x=Lx, y=0, y=Ly, z=0, z=Lz).
    images = [source.copy()]
    for axis in range(3):
        low = source.copy()
        low[axis] = -source[axis]
        high = source.copy()
        high[axis] = 2.0 * dims[axis] - source[axis]
        images += [low, high]
    expected_delays = sorted(
        np.linalg.norm(img - mic) * sr / c for img in images
    )

    room = roomsim.RoomSpec(dims=dims, source_pos=source, absorption=0.35)
    array = roomsim.MicArray(positions=mic[None, :], preset="custom")
    rir = roomsim.image_source_rir(room, array, max_order=1, sample_rate=sr)
    taps = np.abs(rir.taps[0])

    worst = 0.0
    for delay in expected_delays:
        lo = int(round(delay)) - 4
        peak = lo + int(np.argmax(taps[lo : lo + 9]))
        worst = max(worst, abs(peak - delay))
    assert worst <= 1.0, f"worst delay mismatch {worst:.2f} samples"


# ---------------------------------------------------------------------------
# Criterion 5 — CTC equals brute-force path enumeration
# ---------------------------------------------------------------------------


def test_criterion_5_ctc_oracle_equivalence():
    """Exhaustive grid T <= 6, |l| <= 3, |V| <= 3: agree within 1e-10; < 60 s."""
    t0 = time.perf_counter()
    rng = _rng(5)
    checked = 0
    worst = 0.0
    for n_symbols in (1, 2, 3):
        label_pool = [
            list(seq)
            for length in range(4)
            for seq in itertools.product(range(1, n_symbols), repeat=length)
        ]
        for frames in range(1, 7):
            logits = rng.normal(size=(frames, n_symbols))
            lp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
            for labels in label_pool:
                reference = brute_force_ctc(lp, labels)
                # |V| = 0 has only the empty labeling; a LabelSequence needs vocab_size >= 1.
                seq = backend.LabelSequence(ids=labels, vocab_size=max(n_symbols - 1, 1))
                if np.isinf(reference):  # no path collapses to this labeling
                    with pytest.raises(ValueError, match="no valid alignment"):
                        backend.ctc_loss(lp, seq)
                    continue
                loss, _ = backend.ctc_loss(lp, seq)
                worst = max(worst, abs(loss - reference))
                checked += 1
    elapsed = time.perf_counter() - t0
    assert checked > 50
    assert worst < 1e-10, f"CTC vs brute force differs by {worst:.3e}"
    assert elapsed < 60.0, f"CTC grid took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# Criterion 6 — joint gradient against finite differences
# ---------------------------------------------------------------------------


def test_criterion_6_joint_gradient_check():
    """20 seeded tiny instances (C=2, 12 frames, 9 bins): < 1e-4; < 5 min."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        state, utt, labels, subsample_factor = make_gradcheck_instance("default", seed)
        assert utt.channels == 2 and utt.frames == 12 and utt.freq_bins == 9
        errors = pipeline.finite_diff_check(
            state, utt, labels, epsilon=1e-5, subsample_factor=subsample_factor,
            corrupt_adjoint=False,
        )
        worst = max(worst, *errors.values())
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4, f"max relative gradient error {worst:.3e}"
    assert elapsed < 300.0, f"gradient checks took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# Criterion 7 — cost-model identities and harness counters
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_split():
    """Shipped toy corpus at the 50-multi / 100-single split, seed 0."""
    multi, single, _ = sched.generate_toy_corpus(50, 100, 6, _rng(0))
    return multi, single


def _toy_cfg(**overrides):
    base = dict(mode="JO_ONLY", epochs=1, multi_batch_size=10, seed=0)
    base.update(overrides)
    if base["mode"] == "SIMU":
        base.setdefault("room", sched.toy_room())
        base.setdefault("array", sched.toy_array())
    return ScheduleConfig(**base)


def test_criterion_7_table1_mechanisms(toy_split):
    """Cost formulas exact (incl. caption regime); counter laws exact on 50/100."""
    # (a) Formulas, exact equality.
    for t1, t2, n in [(1.0, 0.1, 1.2), (3.0, 0.25, 0.5), (0.7, 0.7, 4.0)]:
        assert sched.epoch_cost_model(t1, t2, n, "PT") == t1
        assert sched.epoch_cost_model(t1, t2, n, "JO_ONLY") == t1
        assert sched.epoch_cost_model(t1, t2, n, "DS") == t1 + t2
        assert sched.epoch_cost_model(t1, t2, n, "SIMU") == (1.0 + n) * t1
    # Caption regime T1 = 10*T2, N = 1.2: DS = 1.1*T1 and SIMU = 2.2*T1 exactly.
    assert sched.epoch_cost_model(1.0, 0.1, 1.2, "DS") == 1.1 * 1.0
    assert sched.epoch_cost_model(1.0, 0.1, 1.2, "SIMU") == 2.2 * 1.0

    # (b) Harness counters on the 50-multi / 100-single split (N = 2 exactly).
    multi, single = toy_split
    ds = sched.run_training(_toy_cfg(mode="DS"), multi, single)
    assert ds.counters["frontend_utts_per_epoch"] == 50
    assert (
        ds.counters["single_utts_per_epoch"] / ds.counters["frontend_utts_per_epoch"]
        == 2.0
    )
    assert ds.cost_model["n_ratio"] == 2.0

    simu = sched.run_training(_toy_cfg(mode="SIMU"), multi, single)
    assert simu.counters["frontend_utts_per_epoch"] == 150  # (1 + N) * 50
    assert simu.counters["single_utts_per_epoch"] == 0


# ---------------------------------------------------------------------------
# Criterion 8 — end-to-end trainability on the toy corpus
# ---------------------------------------------------------------------------


def test_criterion_8_end_to_end_trainability(toy_split):
    """JO_ONLY < 10% toy error (seed 0, <= 30 epochs, <= 10 min); all modes
    emit valid Reports; empty single set reproduces JO_ONLY bit-exactly."""
    multi, single = toy_split
    t0 = time.perf_counter()
    report = sched.run_training(_toy_cfg(epochs=15), multi, [])
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"training took {elapsed:.1f} s"
    assert report.toy_error < 0.10, f"toy token error {report.toy_error:.3f}"

    # Every scheme completes and emits a well-formed Report.
    for mode in sched.MODES:
        rep = sched.run_training(_toy_cfg(mode=mode, epochs=2), multi[:20], single[:20])
        as_dict = rep.to_dict()
        assert as_dict["mode"] == mode
        assert len(as_dict["epoch_losses"]) == 2
        assert np.all(np.isfinite(as_dict["epoch_losses"]))
        assert np.isfinite(as_dict["toy_error"])
        assert as_dict["counters"]["epochs"] == 2
        assert np.isfinite(as_dict["cost_model"]["predicted_epoch_seconds"])

    # With an empty single-channel set every mode degenerates to JO_ONLY:
    # final parameters must match bit for bit.
    room, array = sched.toy_room(), sched.toy_array()
    states = {}
    for mode in sched.MODES:
        cfg = ScheduleConfig(mode=mode, epochs=3, multi_batch_size=10, seed=0,
                             room=room, array=array)
        _, states[mode] = sched.run_training(cfg, multi[:20], [], return_state=True)
    baseline = states["JO_ONLY"]
    for mode in ("PT", "DS", "SIMU"):
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(states[mode].am_params, name),
                                  getattr(baseline.am_params, name)), (mode, name)
            assert np.array_equal(getattr(states[mode].mask_params, name),
                                  getattr(baseline.mask_params, name)), (mode, name)


# ---------------------------------------------------------------------------
# Criterion 9 — scheme comparison report
# ---------------------------------------------------------------------------


def test_criterion_9_scheme_comparison_report():
    """>= 5 seeds: mean toy error per scheme is emitted (ordering reported,
    not asserted — seed-sensitive at toy scale)."""
    multi, single, _ = sched.generate_toy_corpus(8, 8, 4, _rng(9))
    cfg = ScheduleConfig(mode="JO_ONLY", epochs=2, multi_batch_size=4, seed=0,
                         vocab_size=4)
    result = sched.compare_schemes(cfg, multi, single, seeds=range(5))
    assert result["seeds"] == [0, 1, 2, 3, 4]
    for mode in sched.MODES:
        entry = result["per_scheme"][mode]
        assert len(entry["errors"]) == 5
        assert np.isfinite(entry["mean_error"])
    assert sorted(result["ordering_by_mean_error"]) == sorted(sched.MODES)
    assert "seed-sensitive" in result["note"]
