"""corpus_io tests: WAV round-trips (with a scipy cross-check), manifests."""

import json

import numpy as np
import pytest
from scipy.io import wavfile

from beamlab.corpus_io import (
    Manifest,
    Utterance,
    load_manifest,
    read_wav,
    resolve_audio_path,
    save_manifest,
    write_utterance,
    write_wav,
)
from beamlab.dsp import Waveform


def _rng(seed=0):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _utt(utt_id="u1", **kw):
    defaults = dict(utt_id=utt_id, audio_path=f"{utt_id}.wav", channels=1,
                    sample_rate=8000, duration=1.0, transcript=[1, 2],
                    origin="real")
    defaults.update(kw)
    return Utterance(**defaults)


class TestWavRoundTrip:
    def test_float32_round_trip(self, tmp_path):
        rng = _rng(1)
        wave = Waveform(samples=rng.uniform(-1, 1, size=(3, 500)), sample_rate=16000)
        path = tmp_path / "f32.wav"
        clipped = write_wav(path, wave, bit_depth=32)
        assert clipped == 0
        back = read_wav(path)
        assert back.sample_rate == 16000 and back.channels == 3
        np.testing.assert_allclose(back.samples, wave.samples, atol=1e-7)

    def test_pcm16_round_trip(self, tmp_path):
        rng = _rng(2)
        wave = Waveform(samples=rng.uniform(-0.9, 0.9, size=(2, 300)), sample_rate=8000)
        path = tmp_path / "p16.wav"
        clipped = write_wav(path, wave, bit_depth=16)
        assert clipped == 0
        back = read_wav(path)
        # Write scales by 32767, read divides by 32768: quantization plus the
        # scale mismatch is at most ~1.5 LSB.
        np.testing.assert_allclose(back.samples, wave.samples, atol=2.0 / 32768)

    def test_scipy_reads_our_files(self, tmp_path):
        # Independent-reader oracle: scipy.io.wavfile agrees with what we wrote.
        rng = _rng(3)
        wave = Waveform(samples=rng.uniform(-0.5, 0.5, size=(2, 200)), sample_rate=22050)
        p16, p32 = tmp_path / "a.wav", tmp_path / "b.wav"
        write_wav(p16, wave, bit_depth=16)
        write_wav(p32, wave, bit_depth=32)
        sr, data16 = wavfile.read(p16)
        assert sr == 22050 and data16.dtype == np.int16 and data16.shape == (200, 2)
        np.testing.assert_allclose(data16.T / 32768.0, wave.samples, atol=2.0 / 32768)
        sr, data32 = wavfile.read(p32)
        assert data32.dtype == np.float32
        np.testing.assert_allclose(data32.T, wave.samples, atol=1e-7)

    def test_we_read_scipy_files(self, tmp_path):
        rng = _rng(4)
        data = (rng.uniform(-0.8, 0.8, size=(150, 3)) * 32767).astype(np.int16)
        path = tmp_path / "s.wav"
        wavfile.write(path, 44100, data)
        wave = read_wav(path)
        assert wave.channels == 3 and wave.sample_rate == 44100
        np.testing.assert_allclose(wave.samples, data.T / 32768.0, atol=1e-9)

    def test_clipping_counted(self, tmp_path):
        samples = np.array([[0.0, 1.5, -2.0, 0.5]])
        wave = Waveform(samples=samples, sample_rate=8000)
        clipped = write_wav(tmp_path / "c.wav", wave, bit_depth=16)
        assert clipped == 2
        back = read_wav(tmp_path / "c.wav")
        assert abs(back.samples[0, 1] - 32767 / 32768.0) < 1e-6
        assert abs(back.samples[0, 2] + 1.0) < 1e-4

    def test_raw_array_with_sample_rate(self, tmp_path):
        write_wav(tmp_path / "r.wav", np.zeros((1, 10)), sample_rate=8000)
        assert read_wav(tmp_path / "r.wav").n_samples == 10
        with pytest.raises(ValueError):
            write_wav(tmp_path / "r2.wav", np.zeros((1, 10)))  # rate required

    def test_bad_bit_depth(self, tmp_path):
        with pytest.raises(ValueError):
            write_wav(tmp_path / "x.wav", np.zeros((1, 4)), bit_depth=24,
                      sample_rate=8000)


class TestWavErrors:
    def test_not_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OggS" + b"\x00" * 60)
        with pytest.raises(ValueError, match="unsupported codec"):
            read_wav(path)

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "t.wav"
        write_wav(path, np.ones((1, 100)) * 0.1, bit_depth=16, sample_rate=8000)
        blob = path.read_bytes()
        path.write_bytes(blob[:-50])
        with pytest.raises(ValueError, match="truncated"):
            read_wav(path)

    def test_unsupported_format_tag(self, tmp_path):
        path = tmp_path / "u.wav"
        write_wav(path, np.ones((1, 20)) * 0.1, bit_depth=16, sample_rate=8000)
        blob = bytearray(path.read_bytes())
        blob[20:22] = (7).to_bytes(2, "little")  # mu-law tag
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="unsupported codec"):
            read_wav(path)

    def test_zero_length_data_rejected(self, tmp_path):
        # A structurally valid WAV with an empty data chunk cannot become a
        # Waveform (which requires at least one sample).
        import struct

        path = tmp_path / "z.wav"
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI", b"RIFF", 36, b"WAVE", b"fmt ", 16, 1, 1,
            8000, 16000, 2, 16, b"data", 0,
        )
        path.write_bytes(header)
        with pytest.raises(ValueError):
            read_wav(path)


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = Manifest(utterances=[
            _utt("u1"),
            _utt("u2", channels=4, origin="simulated", transcript=[3]),
        ])
        path = tmp_path / "m.jsonl"
        save_manifest(manifest, path)
        lines = path.read_text().strip().split("\n")
        assert json.loads(lines[0]) == {"manifest_version": 1}
        back = load_manifest(path)
        assert len(back) == 2
        assert back.utterances[1].channels == 4
        assert back.utterances[1].transcript == [3]
        assert back.utterances[1].origin == "simulated"

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate utterance id"):
            Manifest(utterances=[_utt("a"), _utt("a")])

    def test_malformed_line_reported_with_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"manifest_version": 1}\n{not json}\n')
        with pytest.raises(ValueError, match="malformed manifest line 2"):
            load_manifest(path)

    def test_missing_version_header(self, tmp_path):
        path = tmp_path / "nov.jsonl"
        path.write_text(json.dumps({"utt_id": "x"}) + "\n")
        with pytest.raises(ValueError):
            load_manifest(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "v9.jsonl"
        path.write_text('{"manifest_version": 9}\n')
        with pytest.raises(ValueError, match="version"):
            load_manifest(path)

    def test_bad_origin_rejected(self):
        with pytest.raises(ValueError):
            _utt("u1", origin="synthetic")

    def test_verify_audio(self, tmp_path):
        wav_path = tmp_path / "u1.wav"
        write_wav(wav_path, np.zeros((2, 40)), sample_rate=8000)
        good = Manifest(utterances=[_utt("u1", channels=2, sample_rate=8000)])
        save_manifest(good, tmp_path / "ok.jsonl")
        loaded = load_manifest(tmp_path / "ok.jsonl", verify_audio=True)
        assert len(loaded) == 1
        # Relative paths resolve against the manifest's directory; absolute
        # paths are kept, wherever the manifest lives.
        assert resolve_audio_path(tmp_path / "ok.jsonl", "u1.wav") == wav_path
        assert resolve_audio_path("elsewhere/m.jsonl", str(wav_path)) == wav_path
        (tmp_path / "sub").mkdir()
        absolute = Manifest(utterances=[_utt("u1", audio_path=str(wav_path), channels=2,
                                             sample_rate=8000)])
        save_manifest(absolute, tmp_path / "sub" / "abs.jsonl")
        assert len(load_manifest(tmp_path / "sub" / "abs.jsonl", verify_audio=True)) == 1
        bad = Manifest(utterances=[_utt("u1", channels=3, sample_rate=8000)])
        save_manifest(bad, tmp_path / "bad.jsonl")
        with pytest.raises(ValueError, match="channel"):
            load_manifest(tmp_path / "bad.jsonl", verify_audio=True)
        missing = Manifest(utterances=[_utt("zz", channels=1)])
        save_manifest(missing, tmp_path / "miss.jsonl")
        with pytest.raises(ValueError):
            load_manifest(tmp_path / "miss.jsonl", verify_audio=True)

    def test_write_utterance_round_trip(self, tmp_path):
        (tmp_path / "wav").mkdir()
        wave = Waveform(samples=0.5 * np.sin(np.arange(3 * 800) / 7.0).reshape(3, 800),
                        sample_rate=8000)
        record = write_utterance(tmp_path, "wav/u1.wav", "u1", wave, np.array([2, 1]),
                                 "simulated")
        save_manifest(Manifest(utterances=[record]), tmp_path / "m.jsonl")
        (back,) = load_manifest(tmp_path / "m.jsonl", verify_audio=True)
        assert back == record
        assert (back.audio_path, back.channels, back.sample_rate) == ("wav/u1.wav", 3, 8000)
        assert back.duration == 0.1 and back.transcript == [2, 1]
        np.testing.assert_array_equal(read_wav(tmp_path / "wav/u1.wav").samples,
                                      wave.samples.astype(np.float32))

    def test_write_utterance_rejects_bad_record_before_writing(self, tmp_path):
        wave = Waveform(samples=np.zeros((1, 80)), sample_rate=8000)
        with pytest.raises(ValueError, match="origin"):
            write_utterance(tmp_path, "u1.wav", "u1", wave, [1], "synthetic")
        assert not (tmp_path / "u1.wav").exists()
