"""WAV, manifest and JSON config-file I/O.

WAV support is deliberately narrow: read_wav takes RIFF/WAVE containing
PCM 16-bit (what external corpora ship) or IEEE-float 32-bit, and write_wav
writes IEEE-float 32-bit only. Manifests are JSON-lines with a version
header so they stream and append cleanly; write_corpus, the one corpus
writer, puts a set's WAVs in one directory and then its manifest.
"""

import json
import os
import struct
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .dsp import Waveform

MANIFEST_VERSION = 1
ORIGINS = ("real", "simulated", "single")

_PCM16 = 1
_IEEE_FLOAT = 3
# Samples per block in write_wav; bounds its temporaries.
WAV_BLOCK_SAMPLES = 1 << 16


class UsageError(Exception):
    """Bad flags, bad config keys, or an unusable option combination."""


# ---------------------------------------------------------------------------
# WAV read / write
# ---------------------------------------------------------------------------


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"truncated WAV file: incomplete {what}")
    return data


def read_wav(path) -> Waveform:
    """Load a RIFF/WAVE file (PCM16 or float32), samples scaled to [-1, 1]. A bad header
    or payload is a ValueError that starts with the path."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(12)
            if len(header) < 12 or header[:4] != b"RIFF" or header[8:12] != b"WAVE":
                raise ValueError("unsupported codec: not a RIFF/WAVE file")
            fmt = data = None
            while True:
                chunk_header = fh.read(8)
                if len(chunk_header) == 0:
                    break
                if len(chunk_header) < 8:
                    raise ValueError("truncated WAV file: incomplete chunk header")
                chunk_id, size = struct.unpack("<4sI", chunk_header)
                if chunk_id == b"fmt ":
                    fmt = struct.unpack("<HHIIHH", _read_exact(fh, 16, "fmt chunk")[:16])
                    if size > 16:
                        _read_exact(fh, size - 16, "fmt extension")
                elif chunk_id == b"data":
                    data = _read_exact(fh, size, "data chunk")
                else:
                    name = chunk_id.decode(errors="replace")
                    _read_exact(fh, size + (size & 1), f"'{name}' chunk")
        if fmt is None or data is None:
            raise ValueError("truncated WAV file: missing fmt or data chunk")
        audio_format, channels, sample_rate, _, _, bits = fmt
        if audio_format == _PCM16 and bits == 16:
            raw = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
        elif audio_format == _IEEE_FLOAT and bits == 32:
            raw = np.frombuffer(data, dtype="<f4").astype(np.float64)
        else:
            raise ValueError(f"unsupported codec: format tag {audio_format}, {bits}-bit")
        if channels < 1:
            raise ValueError("unsupported codec: zero channels in header")
        if raw.size % channels != 0:
            raise ValueError("truncated WAV file: data size not a multiple of the frame size")
        samples = raw.reshape(-1, channels).T
        return Waveform(samples=samples, sample_rate=sample_rate)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_wav(path, wave: Waveform) -> int:
    """Write IEEE-float32 samples; returns the count of samples clipped to [-1, 1].

    The interleaved payload is allocated once in its on-disk type and filled
    WAV_BLOCK_SAMPLES at a time, so no full-size float64 copy is made.
    """
    samples, rate = wave.samples, wave.sample_rate
    channels, n_samples = samples.shape
    payload = np.empty((n_samples, channels), dtype="<f4")
    n_clipped = 0
    step = max(1, WAV_BLOCK_SAMPLES // channels)
    for t in range(0, n_samples, step):
        block = samples[:, t : t + step].T  # [frames, C] view
        if not np.isfinite(block).all():
            raise ValueError("waveform amplitudes must be finite")
        n_clipped += np.count_nonzero(block > 1.0) + np.count_nonzero(block < -1.0)
        np.clip(block, -1.0, 1.0, out=payload[t : t + step])

    bytes_per = payload.itemsize
    block_align = channels * bytes_per
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + payload.nbytes,
        b"WAVE",
        b"fmt ",
        16,
        _IEEE_FLOAT,
        channels,
        rate,
        rate * block_align,
        block_align,
        bytes_per * 8,
        b"data",
        payload.nbytes,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(payload))
    return int(n_clipped)


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


@dataclass
class Utterance:
    """One manifest record."""

    utt_id: str
    audio_path: str
    channels: int
    sample_rate: int
    duration: float
    transcript: list
    origin: str

    def __post_init__(self):
        # Integers only (bool is not one): int() reads "12" as [1, 2] and [1.7] as [1].
        if not all(type(t) is int or isinstance(t, np.integer) for t in self.transcript):
            raise ValueError(f"transcript must be a list of integer ids, got {self.transcript!r}")
        self.transcript = [int(t) for t in self.transcript]
        if not self.utt_id:
            raise ValueError("utterance id must be non-empty")
        if self.origin not in ORIGINS:
            raise ValueError(f"origin must be one of {ORIGINS}, got '{self.origin}'")
        if self.channels < 1:
            raise ValueError("channel count must be >= 1")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.duration < 0:
            raise ValueError("duration must be >= 0")
        if any(t < 1 for t in self.transcript):
            raise ValueError("transcript ids must be >= 1 (0 is the blank)")


@dataclass
class Manifest:
    """An ordered utterance collection with unique ids."""

    utterances: list

    def __post_init__(self):
        seen = set()
        for utt in self.utterances:
            if utt.utt_id in seen:
                raise ValueError(f"duplicate utterance id '{utt.utt_id}'")
            seen.add(utt.utt_id)

    def __iter__(self):
        return iter(self.utterances)


def write_corpus(manifest_path, audio_dir, utterances) -> int:
    """Write each (utt_id, wave, transcript, origin) as float32 audio_dir/<utt_id>.wav, then
    their manifest, its audio paths relative to its directory; returns the count. Creates
    both directories. An id that is not a plain file name is a ValueError before its write."""
    audio_dir, manifest_dir = Path(audio_dir), Path(manifest_path).parent
    for directory in (audio_dir, manifest_dir):
        directory.mkdir(parents=True, exist_ok=True)
    relative = os.path.relpath(audio_dir.resolve(), manifest_dir.resolve())
    records = []
    for utt_id, wave, transcript, origin in utterances:
        if utt_id in (".", "..") or "/" in utt_id or os.sep in utt_id:
            raise ValueError(f"utterance id '{utt_id}' is not a plain file name")
        records.append(Utterance(utt_id, str(Path(relative, f"{utt_id}.wav")), wave.channels,
                                 wave.sample_rate, wave.n_samples / wave.sample_rate,
                                 transcript, origin))
        write_wav(audio_dir / f"{utt_id}.wav", wave)
    save_manifest(Manifest(utterances=records), manifest_path)
    return len(records)


def save_manifest(manifest: Manifest, path) -> None:
    """Write JSON-lines: a version header line, then one record per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"manifest_version": MANIFEST_VERSION}) + "\n")
        for utt in manifest.utterances:
            fh.write(json.dumps(asdict(utt)) + "\n")


def resolve_audio_path(manifest_path, audio_path) -> Path:
    """A relative audio_path resolves against the manifest's own directory."""
    audio = Path(audio_path)
    if not audio.is_absolute():
        audio = Path(manifest_path).parent / audio
    return audio


def load_manifest(path) -> Manifest:
    """Read a JSON-lines manifest; its audio is not opened (see read_utterance). A
    malformed line or a duplicate id is a ValueError that starts with the path."""
    utterances = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"malformed manifest line {lineno}: {exc.msg}") from None
                if lineno == 1:
                    version = record.get("manifest_version") if isinstance(record, dict) else None
                    if version != MANIFEST_VERSION:
                        raise ValueError(
                            f"malformed manifest line 1: expected manifest_version "
                            f"{MANIFEST_VERSION}, got {version}"
                        )
                    continue
                try:
                    utterances.append(Utterance(**record))
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"malformed manifest line {lineno}: {exc}") from None
            return Manifest(utterances=utterances)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def read_utterance(manifest_path, record: Utterance) -> Waveform:
    """A record's audio, its path resolved against the manifest; the WAV must have the
    record's channel count and sample rate."""
    wave = read_wav(resolve_audio_path(manifest_path, record.audio_path))
    for key, recorded, actual in (("channels", record.channels, wave.channels),
                                  ("sample_rate", record.sample_rate, wave.sample_rate)):
        if recorded != actual:
            raise ValueError(f"utterance '{record.utt_id}': manifest says {key} "
                             f"{recorded}, its WAV has {actual}")
    return wave


# ---------------------------------------------------------------------------
# JSON config files
# ---------------------------------------------------------------------------


def _coerce_field(name: str, default, value):
    """A config-file value as its default's JSON type.

    true/false for a bool, an integral number for an int (2.0 -> 2), any
    number for a float; a None default (a path) takes a string or null.
    """
    if default is None and value is None:
        return None
    kind = str if default is None else type(default)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    ok = {int: number and value % 1 == 0, float: number}.get(kind, isinstance(value, kind))
    if not ok:
        raise UsageError(f"config key '{name}' must be {kind.__name__}, got {value!r}")
    return kind(value)


def read_config(path, defaults: dict) -> dict:
    """The keys a JSON config file sets, each typed by _coerce_field against its default."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed config file {path}: {exc.msg}") from None
    if not isinstance(file_cfg, dict):
        raise UsageError("config file must contain a JSON object")
    for key in file_cfg:
        if key not in defaults:
            raise UsageError(f"unknown config key '{key}'")
    return {key: _coerce_field(key, defaults[key], value) for key, value in file_cfg.items()}
