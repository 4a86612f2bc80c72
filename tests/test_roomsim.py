"""roomsim tests: geometry, image enumeration, RIR synthesis, mixing."""

import json

import numpy as np
import pytest

from beamlab import roomsim
from beamlab.corpus_io import UsageError
from beamlab.dsp import Waveform
from beamlab.roomsim import (
    SOUND_SPEED,
    MicArray,
    RoomSpec,
    array_preset,
    image_source_rir,
    load_room_config,
    mix_at_snr,
    simulate_multichannel,
)


def _rng(seed=0):
    return np.random.default_rng(np.random.SeedSequence(seed))


REFERENCE_ROOM = RoomSpec(dims=[10.0, 7.5, 3.5], source_pos=[2.5, 3.73, 1.76],
                          absorption=0.35)


class TestSpecs:
    def test_source_must_be_inside(self):
        with pytest.raises(ValueError):
            RoomSpec(dims=[4.0, 3.0, 2.5], source_pos=[4.0, 1.0, 1.0], absorption=0.35)
        with pytest.raises(ValueError):
            RoomSpec(dims=[4.0, 3.0, 2.5], source_pos=[1.0, -0.1, 1.0], absorption=0.35)

    def test_absorption_scalar_broadcasts(self):
        room = RoomSpec(dims=[4.0, 3.0, 2.5], source_pos=[1.0, 1.0, 1.0],
                        absorption=0.4)
        assert room.absorption.shape == (6,)
        np.testing.assert_allclose(room.absorption, 0.4)

    def test_absorption_range_checked(self):
        with pytest.raises(ValueError):
            RoomSpec(dims=[4.0, 3.0, 2.5], source_pos=[1.0, 1.0, 1.0],
                     absorption=1.5)

    def test_array_presets(self):
        for name, channels in (("chime4-6ch", 6), ("aishell4-8ch-circular", 8),
                               ("desk-4ch", 4)):
            arr = array_preset(name, [2.0, 1.5, 1.2])
            assert arr.channels == channels
            np.testing.assert_allclose(arr.positions.mean(axis=0), [2.0, 1.5, 1.2],
                                       atol=1e-12)
        with pytest.raises(ValueError):
            array_preset("nope", [0.0, 0.0, 0.0])

    def test_load_room_config(self, tmp_path):
        cfg = {
            "room": {"dims": [5.0, 4.0, 3.0], "source_pos": [2.0, 2.0, 1.5],
                     "absorption": 0.5},
            "array": {"preset": "desk-4ch", "center": [3.0, 2.0, 1.2]},
            "max_order": 4,
        }
        path = tmp_path / "room.json"
        path.write_text(json.dumps(cfg))
        room, array, extras = load_room_config(path)
        assert room.dims[0] == 5.0 and array.channels == 4
        assert extras["max_order"] == 4
        positions = [[1.0, 1.0, 1.0], [1.1, 1.0, 1.0], [1.2, 1.0, 1.0]]
        cfg["array"] = {"positions": positions}
        path.write_text(json.dumps(cfg))
        _, array, _ = load_room_config(path)
        np.testing.assert_array_equal(array.positions, positions)
        assert array.preset == "custom"

    def _write(self, tmp_path, **top):
        cfg = {"room": {"dims": [5.0, 4.0, 3.0], "source_pos": [2.0, 2.0, 1.5]},
               "array": {"preset": "desk-4ch", "center": [3.0, 2.0, 1.2]}, **top}
        path = tmp_path / "room.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_room_config_max_order_typed_like_config(self, tmp_path):
        _, _, extras = load_room_config(self._write(tmp_path, max_order=2.0))
        assert extras == {"max_order": 2} and type(extras["max_order"]) is int
        _, _, extras = load_room_config(self._write(tmp_path))
        assert extras == {"max_order": roomsim.DEFAULT_MAX_ORDER}
        for bad in (2.7, "2", True, None):
            with pytest.raises(UsageError, match="config key 'max_order' must be int"):
                load_room_config(self._write(tmp_path, max_order=bad))

    def test_room_config_unknown_key_rejected(self, tmp_path):
        with pytest.raises(UsageError, match="unknown config key 'maxorder'"):
            load_room_config(self._write(tmp_path, maxorder=2))
        with pytest.raises(UsageError, match="config key 'room' must be dict"):
            load_room_config(self._write(tmp_path, room=[5.0, 4.0, 3.0]))

    def test_room_config_sample_rate_ignored(self, tmp_path):
        # Accepted for older configs, typed, and not passed on: inputs render
        # at their own rate.
        _, _, extras = load_room_config(self._write(tmp_path, sample_rate=8000))
        assert extras == {"max_order": roomsim.DEFAULT_MAX_ORDER}
        with pytest.raises(UsageError, match="config key 'sample_rate' must be int"):
            load_room_config(self._write(tmp_path, sample_rate=8000.5))


class TestImages:
    def test_first_order_hand_enumeration(self):
        # Hand-enumerated oracle: mirroring s across each of the 6 walls of a
        # 10 x 7.5 x 3.5 room with s = [2.5, 3.73, 1.76] gives exactly these
        # image coordinates; order 1 adds them to the direct path and nothing
        # else.
        positions, gains = roomsim._enumerate_images(REFERENCE_ROOM, 1)
        expected = {
            (-2.5, 3.73, 1.76),
            (17.5, 3.73, 1.76),
            (2.5, -3.73, 1.76),
            (2.5, 11.27, 1.76),
            (2.5, 3.73, -1.76),
            (2.5, 3.73, 5.24),
        }
        got = {tuple(np.round(row, 9)) for row in positions}
        assert got == expected | {(2.5, 3.73, 1.76)}
        assert len(positions) == len(gains) == 7

    def test_first_order_delays_within_one_sample(self):
        # Delays of the six first-order pulses in the synthesized RIR agree
        # with hand-computed image distances to within one sample. The
        # hand-enumerated images: mirroring s = [2.5, 3.73, 1.76] across each
        # of the 6 walls of the 10 x 7.5 x 3.5 room.
        sr = 16000
        mic = MicArray(positions=[[5.0, 4.0, 1.5]], preset="custom")
        rir = image_source_rir(REFERENCE_ROOM, mic, max_order=1, sample_rate=sr)
        images = np.array([
            (-2.5, 3.73, 1.76),
            (17.5, 3.73, 1.76),
            (2.5, -3.73, 1.76),
            (2.5, 11.27, 1.76),
            (2.5, 3.73, -1.76),
            (2.5, 3.73, 5.24),
        ])
        taps = rir.taps[0]
        for im in images:
            dist = np.linalg.norm(im - np.array([5.0, 4.0, 1.5]))
            delay = dist * sr / SOUND_SPEED
            lo, hi = int(np.floor(delay)) - 1, int(np.ceil(delay)) + 1
            window = np.abs(taps[max(lo, 0) : hi + 1])
            assert window.max() > 0.0, f"no pulse near sample {delay:.1f}"

    def test_direct_path_amplitude(self):
        # Direct pulse peak ~ 1/(4 pi d) at the rounded delay.
        room = RoomSpec(dims=[6.0, 5.0, 4.0], source_pos=[2.0, 2.0, 2.0],
                        absorption=0.9999)
        mic = MicArray(positions=[[4.0, 2.0, 2.0]], preset="custom")
        sr = 16000
        rir = image_source_rir(room, mic, max_order=0, sample_rate=sr)
        d = 2.0
        delay = d * sr / SOUND_SPEED
        peak_idx = int(round(delay))
        expected = 1.0 / (4.0 * np.pi * d)
        # Sinc pulse center carries nearly the full amplitude.
        assert abs(rir.taps[0, peak_idx]) > 0.6 * expected
        # With absorption ~1 every reflection is crushed: adding order-3
        # images barely changes the energy.
        rir3 = image_source_rir(room, mic, max_order=3, sample_rate=sr)
        e0 = np.sum(rir.taps[0] ** 2)
        e3 = np.sum(rir3.taps[0] ** 2)
        assert abs(e3 - e0) / e0 < 1e-3

    def test_higher_order_adds_energy(self):
        room = RoomSpec(dims=[5.0, 4.0, 3.0], source_pos=[1.5, 2.0, 1.5],
                        absorption=0.3)
        mic = MicArray(positions=[[3.5, 2.0, 1.5]], preset="custom")
        e = []
        for order in (0, 1, 3):
            rir = image_source_rir(room, mic, max_order=order, sample_rate=8000)
            e.append(np.sum(rir.taps**2))
        assert e[0] < e[1] < e[2]

    def test_mic_outside_room_rejected(self):
        mic = MicArray(positions=[[99.0, 1.0, 1.0]], preset="custom")
        with pytest.raises(ValueError):
            image_source_rir(REFERENCE_ROOM, mic, max_order=1, sample_rate=8000)


class TestSimulate:
    def test_convolution_matches_numpy_oracle(self):
        rng = _rng(1)
        src = Waveform(samples=rng.normal(size=(1, 200)), sample_rate=8000)
        taps = rng.normal(size=(3, 50))
        rir = roomsim.RIR(taps=taps, sample_rate=8000)
        out = simulate_multichannel(src, rir)
        assert out.channels == 3
        assert out.n_samples == 200 + 50 - 1
        for c in range(3):
            oracle = np.convolve(src.samples[0], taps[c])
            np.testing.assert_allclose(out.samples[c], oracle, atol=1e-10)

    @pytest.mark.parametrize("preset", ["desk-4ch", "aishell4-8ch-circular"])
    @pytest.mark.parametrize("source_len", ["prime_output", "one_sample"])
    def test_matches_scipy_fftconvolve_bit_for_bit(self, preset, source_len):
        # scipy is a test-only oracle here: the numpy FFT convolution must give
        # fftconvolve's exact bits, also where its length is not 5-smooth
        # (10007 output samples, a prime) and where a 1-sample source makes
        # it a scaling.
        from scipy.signal import fftconvolve

        array = array_preset(preset, [5.0, 3.0, 1.5])
        rir = image_source_rir(REFERENCE_ROOM, array, max_order=3, sample_rate=16000)
        n = 10008 - rir.taps.shape[1] if source_len == "prime_output" else 1
        src = Waveform(samples=_rng(4).normal(size=(1, n)), sample_rate=16000)
        out = simulate_multichannel(src, rir)
        assert out.channels == array.channels
        assert np.array_equal(out.samples, fftconvolve(rir.taps, src.samples, axes=1))

    def test_fast_rfft_len_matches_scipy(self):
        from scipy.fft import next_fast_len

        assert [roomsim._fast_rfft_len(n) for n in range(1, 10001)] == \
            [next_fast_len(n, real=True) for n in range(1, 10001)]

    def test_requires_single_channel_source(self):
        src = Waveform(samples=np.ones((2, 100)), sample_rate=8000)
        rir = roomsim.RIR(taps=np.ones((2, 10)), sample_rate=8000)
        with pytest.raises(ValueError):
            simulate_multichannel(src, rir)

    def test_rir_rejects_1d_and_empty_taps(self):
        # Before: 1-D taps became one channel.
        for shape in ((10,), (0, 10), (2, 0)):
            with pytest.raises(ValueError, match=r"RIR taps must be \[C >= 1, n_taps >= 1\]"):
                roomsim.RIR(taps=np.ones(shape), sample_rate=8000)

    def test_sample_rate_mismatch_rejected(self):
        src = Waveform(samples=np.ones((1, 100)), sample_rate=8000)
        rir = roomsim.RIR(taps=np.ones((2, 10)), sample_rate=16000)
        with pytest.raises(ValueError):
            simulate_multichannel(src, rir)


class TestMixAtSnr:
    def test_achieves_requested_snr(self):
        rng = _rng(2)
        speech = Waveform(samples=rng.normal(size=(2, 4000)), sample_rate=8000)
        noise = Waveform(samples=rng.normal(size=(2, 4000)), sample_rate=8000)
        for snr in (-5.0, 0.0, 10.0):
            mixed = mix_at_snr(speech, noise, snr)
            resid = mixed.samples - speech.samples
            p_s = np.mean(speech.samples[0] ** 2)
            p_n = np.mean(resid[0] ** 2)
            measured = 10.0 * np.log10(p_s / p_n)
            assert abs(measured - snr) < 1e-9

    def test_infinite_snr_returns_speech(self):
        rng = _rng(3)
        speech = Waveform(samples=rng.normal(size=(1, 100)), sample_rate=8000)
        noise = Waveform(samples=rng.normal(size=(1, 100)), sample_rate=8000)
        mixed = mix_at_snr(speech, noise, np.inf)
        np.testing.assert_array_equal(mixed.samples, speech.samples)

    @pytest.mark.parametrize("snr", [-np.inf, np.nan])
    def test_minus_inf_and_nan_snr_rejected(self, snr):
        # Before: -inf also matched np.isinf and mixed in no noise; NaN made
        # NaN samples, which failed later naming nothing.
        rng = _rng(3)
        speech = Waveform(samples=rng.normal(size=(1, 100)), sample_rate=8000)
        noise = Waveform(samples=rng.normal(size=(1, 100)), sample_rate=8000)
        with pytest.raises(ValueError, match="snr_db"):
            mix_at_snr(speech, noise, snr)

    def test_short_noise_rejected(self):
        # Noise of another shape or rate is one error; before, longer noise was
        # cut to the speech's length, though no caller passed any.
        speech = Waveform(samples=np.ones((1, 100)), sample_rate=8000)
        for shape, rate in (((1, 50), 8000), ((1, 150), 8000), ((2, 100), 8000),
                            ((1, 100), 16000)):
            noise = Waveform(samples=np.ones(shape), sample_rate=rate)
            with pytest.raises(ValueError, match="noise must match the speech's shape and "
                                                 "sample rate"):
                mix_at_snr(speech, noise, 0.0)

    def test_zero_power_rejected(self):
        speech = Waveform(samples=np.full((1, 100), 1e-200), sample_rate=8000)
        noise = Waveform(samples=np.ones((1, 100)), sample_rate=8000)
        loud = Waveform(samples=np.ones((1, 100)), sample_rate=8000)
        quiet = Waveform(samples=np.full((1, 100), 1e-200), sample_rate=8000)
        with pytest.raises(ValueError, match="zero-power"):
            mix_at_snr(speech, noise, 0.0)
        with pytest.raises(ValueError, match="zero-power"):
            mix_at_snr(loud, quiet, 0.0)
