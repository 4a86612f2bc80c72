"""corpus_io tests: WAV round-trips (with a scipy cross-check), manifests."""

import json
import re
import struct
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from scipy.io import wavfile

from beamlab.corpus_io import (
    WAV_BLOCK_SAMPLES,
    Manifest,
    Utterance,
    load_manifest,
    read_utterance,
    read_wav,
    resolve_audio_path,
    save_manifest,
    write_corpus,
    write_wav,
)
from beamlab.dsp import Waveform


def _rng(seed=0):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _wave(samples, sample_rate=8000):
    return Waveform(samples=samples, sample_rate=sample_rate)


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
        clipped = write_wav(path, wave)
        assert clipped == 0
        back = read_wav(path)
        assert back.sample_rate == 16000 and back.channels == 3
        np.testing.assert_allclose(back.samples, wave.samples, atol=1e-7)

    def test_pcm16_round_trip(self, tmp_path):
        # write_wav writes float32 only; the PCM16 file comes from the reference.
        rng = _rng(2)
        wave = Waveform(samples=rng.uniform(-0.9, 0.9, size=(2, 300)), sample_rate=8000)
        path = tmp_path / "p16.wav"
        path.write_bytes(_reference_wav_bytes(wave, 16)[0])
        back = read_wav(path)
        # Write scales by 32767, read divides by 32768: quantization plus the
        # scale mismatch is at most ~1.5 LSB.
        np.testing.assert_allclose(back.samples, wave.samples, atol=2.0 / 32768)

    def test_scipy_reads_our_files(self, tmp_path):
        # Independent-reader oracle: scipy.io.wavfile agrees with what we wrote.
        rng = _rng(3)
        wave = Waveform(samples=rng.uniform(-0.5, 0.5, size=(2, 200)), sample_rate=22050)
        p32 = tmp_path / "b.wav"
        write_wav(p32, wave)
        sr, data32 = wavfile.read(p32)
        assert sr == 22050 and data32.dtype == np.float32 and data32.shape == (200, 2)
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
        clipped = write_wav(tmp_path / "c.wav", wave)
        assert clipped == 2
        back = read_wav(tmp_path / "c.wav")
        np.testing.assert_array_equal(back.samples, [[0.0, 1.0, -1.0, 0.5]])

    def test_non_finite_rejected(self, tmp_path):
        wave = _wave(np.zeros((1, 4)))
        wave.samples[0, 1] = np.nan  # Waveform checks only at construction
        with pytest.raises(ValueError, match="finite"):
            write_wav(tmp_path / "x.wav", wave)
        assert not (tmp_path / "x.wav").exists()


def _reference_wav_bytes(wave, bit_depth):
    """(file bytes, clipped count) by the formula write_wav has always
    followed: clip, interleave, then scale and cast. bit_depth 32 is what
    write_wav writes; 16 makes the PCM16 files that read_wav also takes."""
    samples = wave.samples
    clipped = np.clip(samples, -1.0, 1.0).T.reshape(-1)
    if bit_depth == 16:
        fmt_tag, payload = 1, np.round(clipped * 32767.0).astype("<i2").tobytes()
    else:
        fmt_tag, payload = 3, clipped.astype("<f4").tobytes()
    channels, bytes_per = samples.shape[0], bit_depth // 8
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE", b"fmt ",
                         16, fmt_tag, channels, wave.sample_rate,
                         wave.sample_rate * channels * bytes_per, channels * bytes_per,
                         bit_depth, b"data", len(payload))
    return header + payload, int(np.sum(np.abs(samples) > 1.0))


class TestWavWriteReference:
    @pytest.mark.parametrize("bit_depth", [32])  # the one depth write_wav writes
    @pytest.mark.parametrize("channels", [1, 2, 8])
    def test_bytes_and_clip_count_match_reference(self, tmp_path, bit_depth, channels):
        # Out-of-range samples (about a fifth clip), exact +-1.0, and a
        # length that is not a multiple of the write block.
        rng = _rng(10 + channels)
        samples = rng.normal(scale=0.8, size=(channels, 3 * WAV_BLOCK_SAMPLES // channels + 7))
        samples[:, :4] = [1.0, -1.0, 1.0 + 1e-12, -1.0 - 1e-12]
        wave = _wave(samples)
        path = tmp_path / "w.wav"
        clipped = write_wav(path, wave)
        expected, expected_clipped = _reference_wav_bytes(wave, bit_depth)
        assert expected_clipped > samples.size // 10
        assert clipped == expected_clipped and type(clipped) is int
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("bit_depth", [32])  # the one depth write_wav writes
    def test_transposed_input_as_read_wav_returns(self, tmp_path, bit_depth):
        # read_wav's samples are the transpose of the interleaved data.
        rng = _rng(20)
        path = tmp_path / "in.wav"
        write_wav(path, _wave(rng.uniform(-1, 1, size=(8, 5000))))
        wave = read_wav(path)
        wave.samples *= 1.3  # in place: still a transposed view, some samples clip
        assert not wave.samples.flags.c_contiguous
        out = tmp_path / "out.wav"
        clipped = write_wav(out, wave)
        expected, expected_clipped = _reference_wav_bytes(wave, bit_depth)
        assert clipped == expected_clipped > 0
        assert out.read_bytes() == expected

    def test_float32_peak_near_payload(self, tmp_path):
        # 8 channels, 16 kHz, 4.5 s: the payload plus bounded block
        # temporaries, no full-size float64 copy.
        wave = _wave(0.1 * _rng(21).normal(size=(8, 72000)), sample_rate=16000)
        path = tmp_path / "p.wav"
        write_wav(path, wave)
        tracemalloc.start()
        try:
            write_wav(path, wave)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        payload = wave.samples.size * 4
        assert peak < 1.25 * payload, peak / payload


class TestWavErrors:
    def test_not_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OggS" + b"\x00" * 60)
        with pytest.raises(ValueError, match="unsupported codec"):
            read_wav(path)

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "t.wav"
        path.write_bytes(_reference_wav_bytes(_wave(np.ones((1, 100)) * 0.1), 16)[0])
        blob = path.read_bytes()
        path.write_bytes(blob[:-50])
        with pytest.raises(ValueError, match="truncated"):
            read_wav(path)

    def test_unsupported_format_tag(self, tmp_path):
        path = tmp_path / "u.wav"
        path.write_bytes(_reference_wav_bytes(_wave(np.ones((1, 20)) * 0.1), 16)[0])
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
        with pytest.raises(ValueError) as err:
            read_wav(path)
        # The message starts with the path, as a manifest's errors do.
        assert str(err.value) == f"{path}: waveform must contain at least one sample"


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
        assert len(back.utterances) == 2
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
        # A header that is JSON but not an object.
        path.write_text('[1]\n')
        with pytest.raises(ValueError, match="malformed manifest line 1"):
            load_manifest(path)
        # Transcripts that are not lists of integers: before, "12" loaded as
        # [1, 2], [1.7, 2] as [1, 2] and [true] as [1].
        record = asdict(_utt())
        for transcript in ("12", [1.7, 2], [True]):
            path.write_text('{"manifest_version": 1}\n'
                            + json.dumps({**record, "transcript": transcript}) + "\n")
            with pytest.raises(ValueError, match="malformed manifest line 2: transcript"):
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

    @pytest.mark.parametrize("field,value", [
        ("utt_id", ["u1"]), ("utt_id", 3), ("audio_path", 3), ("audio_path", None),
        ("origin", 1), ("channels", True), ("channels", 2.0), ("channels", "2"),
        ("sample_rate", False), ("sample_rate", 8000.0), ("duration", "x"),
        ("duration", None), ("duration", True), ("duration", float("nan")),
        ("transcript", 5), ("transcript", "12"),
    ])
    def test_field_of_wrong_json_type_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            _utt(**{field: value})

    def test_numpy_numbers_accepted(self):
        utt = _utt(channels=np.int64(2), sample_rate=np.int32(8000), duration=np.float32(0.5))
        assert utt.channels == 2 and utt.duration == 0.5

    def test_verify_audio(self, tmp_path):
        # read_utterance checks each record against the WAV it points at.
        wav_path = tmp_path / "u1.wav"
        write_wav(wav_path, _wave(np.zeros((2, 40))))
        good = _utt("u1", channels=2, sample_rate=8000)
        assert read_utterance(tmp_path / "ok.jsonl", good).channels == 2
        # Relative paths resolve against the manifest's directory; absolute
        # paths are kept, wherever the manifest lives.
        assert resolve_audio_path(tmp_path / "ok.jsonl", "u1.wav") == wav_path
        assert resolve_audio_path("elsewhere/m.jsonl", str(wav_path)) == wav_path
        absolute = _utt("u1", audio_path=str(wav_path), channels=2, sample_rate=8000)
        assert read_utterance(tmp_path / "sub" / "abs.jsonl", absolute).n_samples == 40
        with pytest.raises(ValueError, match="'u1': manifest says channels 3, its WAV has 2"):
            read_utterance(tmp_path / "bad.jsonl", _utt("u1", channels=3, sample_rate=8000))
        with pytest.raises(ValueError,
                           match="'u1': manifest says sample_rate 16000, its WAV has 8000"):
            read_utterance(tmp_path / "bad.jsonl", _utt("u1", channels=2, sample_rate=16000))
        with pytest.raises(FileNotFoundError):
            read_utterance(tmp_path / "miss.jsonl", _utt("zz", channels=1))

    def test_write_corpus_round_trip(self, tmp_path):
        wave = Waveform(samples=0.5 * np.sin(np.arange(3 * 800) / 7.0).reshape(3, 800),
                        sample_rate=8000)
        mono = Waveform(samples=np.full((1, 400), 0.25), sample_rate=16000)
        utterances = [("u1", wave, np.array([2, 1]), "simulated"), ("u2", mono, [3], "single")]
        # The manifest beside its audio directory, then in a directory of its own: each
        # audio path is relative to the manifest's directory, and both are created.
        for manifest, audio_path in ((tmp_path / "m.jsonl", "wav/u1.wav"),
                                     (tmp_path / "lists" / "m.jsonl", "../wav/u1.wav")):
            assert write_corpus(manifest, tmp_path / "wav", iter(utterances)) == 2
            back, back_mono = load_manifest(manifest)
            assert (back.audio_path, back.channels, back.sample_rate) == (audio_path, 3, 8000)
            assert back.duration == 0.1 and back.transcript == [2, 1]
            assert back.origin == "simulated" and back.utt_id == "u1"
            assert read_utterance(manifest, back).channels == 3
            assert read_utterance(manifest, back_mono).sample_rate == 16000
            assert (back_mono.duration, back_mono.transcript) == (0.025, [3])
        np.testing.assert_array_equal(read_wav(tmp_path / "wav/u1.wav").samples,
                                      wave.samples.astype(np.float32))

    def test_write_corpus_rejects_bad_record_before_writing(self, tmp_path):
        wave = Waveform(samples=np.zeros((1, 80)), sample_rate=8000)
        with pytest.raises(ValueError, match="origin"):
            write_corpus(tmp_path / "m.jsonl", tmp_path, [("u1", wave, [1], "synthetic")])
        assert not (tmp_path / "u1.wav").exists() and not (tmp_path / "m.jsonl").exists()

    @pytest.mark.parametrize("utt_id", ["../../escaped", "a/b", "..", "."])
    def test_write_corpus_rejects_an_id_that_is_no_plain_file_name(self, tmp_path, utt_id):
        # The id becomes a file name: a path separator would write outside audio_dir.
        wave = Waveform(samples=np.zeros((1, 80)), sample_rate=8000)
        out = tmp_path / "a" / "b" / "out"
        with pytest.raises(ValueError, match=f"utterance id '{re.escape(utt_id)}'"):
            write_corpus(out / "m.jsonl", out, [("ok", wave, [1], "single"),
                                                (utt_id, wave, [1], "single")])
        assert sorted(p.name for p in tmp_path.rglob("*.wav")) == ["ok.wav"]
        assert not (out / "m.jsonl").exists()
        assert not (tmp_path / "u1.wav").exists()
