"""WAV, manifest and JSON config-file I/O.

WAV support is deliberately narrow: RIFF/WAVE containing PCM 16-bit or
IEEE-float 32-bit, the two codecs the rest of the package emits. Manifests
are JSON-lines with a version header so they stream and append cleanly.
"""

import json
import struct
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .dsp import Waveform

MANIFEST_VERSION = 1
ORIGINS = ("real", "simulated", "single")

_PCM16 = 1
_IEEE_FLOAT = 3


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
    """Load a RIFF/WAVE file (PCM16 or float32), samples scaled to [-1, 1]."""
    with open(path, "rb") as fh:
        header = fh.read(12)
        if len(header) < 12 or header[:4] != b"RIFF" or header[8:12] != b"WAVE":
            raise ValueError("unsupported codec: not a RIFF/WAVE file")
        fmt = None
        data = None
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
                _read_exact(fh, size + (size & 1), f"'{chunk_id.decode(errors='replace')}' chunk")
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


def write_wav(path, wave, bit_depth: int = 32, sample_rate: int | None = None) -> int:
    """Write PCM16 (bit_depth=16) or IEEE-float32 (bit_depth=32).

    Accepts a Waveform or a raw [channels, n] array (then sample_rate is
    required). Samples outside [-1, 1] are clipped; returns the count of
    clipped samples.
    """
    if isinstance(wave, Waveform):
        samples, rate = wave.samples, wave.sample_rate
    else:
        samples = np.atleast_2d(np.asarray(wave, dtype=np.float64))
        if sample_rate is None:
            raise ValueError("sample_rate is required for raw arrays")
        rate = int(sample_rate)
    if not np.all(np.isfinite(samples)):
        raise ValueError("waveform amplitudes must be finite")
    n_clipped = int(np.sum(np.abs(samples) > 1.0))
    clipped = np.clip(samples, -1.0, 1.0)
    interleaved = clipped.T.reshape(-1)

    if bit_depth == 16:
        fmt_tag, bytes_per = _PCM16, 2
        payload = (
            np.round(interleaved * 32767.0).astype("<i2").tobytes()
        )
    elif bit_depth == 32:
        fmt_tag, bytes_per = _IEEE_FLOAT, 4
        payload = interleaved.astype("<f4").tobytes()
    else:
        raise ValueError("bit_depth must be 16 or 32")

    channels = samples.shape[0]
    block_align = channels * bytes_per
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        fmt_tag,
        channels,
        rate,
        rate * block_align,
        block_align,
        bytes_per * 8,
        b"data",
        len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    return n_clipped


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

    utterances: list = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for utt in self.utterances:
            if utt.utt_id in seen:
                raise ValueError(f"duplicate utterance id '{utt.utt_id}'")
            seen.add(utt.utt_id)

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)


def write_utterance(root, audio_path: str, utt_id: str, wave: Waveform, transcript,
                    origin: str) -> Utterance:
    """Write wave as float32 to root/audio_path; return its record (audio_path as given)."""
    record = Utterance(utt_id=utt_id, audio_path=audio_path, channels=wave.channels,
                       sample_rate=wave.sample_rate, duration=wave.n_samples / wave.sample_rate,
                       transcript=transcript, origin=origin)
    write_wav(Path(root) / audio_path, wave, bit_depth=32)
    return record


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


def load_manifest(path, verify_audio: bool = False) -> Manifest:
    """Read a JSON-lines manifest.

    With verify_audio=True every audio path must exist and its header
    channel count must match the record (load-time invariant check);
    the default trusts the records, so manifests can be built before
    their audio exists.
    """
    utterances = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"malformed manifest line {lineno}: {exc.msg}") from None
            if lineno == 1:
                version = record.get("manifest_version")
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
    manifest = Manifest(utterances=utterances)
    if verify_audio:
        for utt in manifest:
            audio = resolve_audio_path(path, utt.audio_path)
            if not audio.exists():
                raise ValueError(f"audio path not resolvable: {utt.audio_path}")
            wave = read_wav(audio)
            if wave.channels != utt.channels:
                raise ValueError(
                    f"channel count mismatch for '{utt.utt_id}': manifest says "
                    f"{utt.channels}, file has {wave.channels}"
                )
    return manifest


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
