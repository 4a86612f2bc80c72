"""Image-source room impulse responses and multi-channel scene synthesis.

Shoebox rooms only. Each image source contributes a fractionally-delayed,
Hann-windowed sinc pulse with amplitude (prod of wall reflection
coefficients) / (4 pi distance); reflection coefficient per wall is
sqrt(1 - absorption). Scenes are the source convolved with each RIR channel
by numpy FFTs (rfft, product, irfft) at a 5-smooth length, the arithmetic of
scipy.signal.fftconvolve without importing scipy. Room configs are read
through the constructors: each key is checked against their parameters.
"""

import inspect
import itertools
from dataclasses import dataclass

import numpy as np

from .corpus_io import UsageError, read_config
from .dsp import Waveform

SOUND_SPEED = 343.0
# Half-width of the windowed-sinc fractional-delay kernel, in taps.
SINC_HALF_WIDTH = 40
DEFAULT_MAX_ORDER = 10
DEFAULT_ABSORPTION = 0.35
# Room-config keys, typed by their defaults; "room" and "array" have required keys. sample_rate
# is ignored (inputs render at their own rate) but older configs, perfbench's too, carry it.
ROOM_CONFIG_DEFAULTS = {"room": {}, "array": {}, "max_order": DEFAULT_MAX_ORDER,
                        "sample_rate": 16000}


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass
class RoomSpec:
    """Shoebox room geometry with a single source.

    absorption may be a scalar or 6 per-wall values ordered
    (x=0, x=Lx, y=0, y=Ly, z=0, z=Lz), each in (0, 1].
    """

    dims: np.ndarray
    source_pos: np.ndarray
    absorption: np.ndarray
    sound_speed: float = SOUND_SPEED

    def __post_init__(self):
        self.dims = _finite_reals("dims", self.dims)
        self.source_pos = _finite_reals("source_pos", self.source_pos)
        absorption = _finite_reals("absorption", self.absorption)
        if absorption.ndim == 0:
            absorption = np.full(6, float(absorption))
        if absorption.shape != (6,):
            raise ValueError("absorption must be scalar or 6 per-wall values")
        self.absorption = absorption
        if self.dims.shape != (3,) or np.any(self.dims <= 0):
            raise ValueError("room dims must be 3 positive lengths")
        if self.source_pos.shape != (3,):
            raise ValueError("source_pos must have 3 coordinates")
        if np.any(self.source_pos <= 0) or np.any(self.source_pos >= self.dims):
            raise ValueError("source must lie strictly inside the room")
        if np.any(self.absorption <= 0) or np.any(self.absorption > 1):
            raise ValueError("absorption must lie in (0, 1]")
        if _finite_reals("sound_speed", self.sound_speed).ndim or self.sound_speed <= 0:
            raise ValueError("sound_speed must be one positive number")


def _finite_reals(field: str, value) -> np.ndarray:
    """value as a float64 array; a ValueError naming the field if it holds anything but
    real numbers (a string, None, a bool) or a NaN or infinity, which every range check
    would pass."""
    array = np.asarray(value)
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{field} must be numeric, not {value!r}")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{field} must be finite, not {value!r}")
    return np.asarray(array, dtype=np.float64)


@dataclass
class MicArray:
    """Microphone positions in meters, [C, 3]."""

    positions: np.ndarray
    preset: str

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("mic positions must be [C, 3]")
        if self.positions.shape[0] < 1:
            raise ValueError("array needs at least one microphone")

    @property
    def channels(self) -> int:
        return self.positions.shape[0]


@dataclass
class RIR:
    """Room impulse responses, taps [C >= 1, n_taps >= 1] on a shared time base."""

    taps: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=np.float64)
        if self.taps.ndim != 2 or self.taps.size == 0:
            raise ValueError(f"RIR taps must be [C >= 1, n_taps >= 1], not {self.taps.shape}")
        if not np.all(np.isfinite(self.taps)):
            raise ValueError("RIR taps must be finite")


# ---------------------------------------------------------------------------
# Array presets
# ---------------------------------------------------------------------------


def array_preset(preset: str, center) -> MicArray:
    """Build a named array centered at `center`.

    chime4-6ch: 6 mics on a 10 cm-spaced rectangle (2 rows of 3), a tablet
    frame approximation. aishell4-8ch-circular: 8 mics on a 5 cm-radius
    circle. Both are documented approximations; the real challenge geometries
    are not public in coordinate form here.
    """
    center = np.asarray(center, dtype=np.float64)
    if preset == "chime4-6ch":
        offsets = [[x, y, 0.0] for y in (-0.05, 0.05) for x in (-0.1, 0.0, 0.1)]
        positions = center + np.asarray(offsets)
        return MicArray(positions=positions, preset=preset)
    if preset == "aishell4-8ch-circular":
        angles = 2.0 * np.pi * np.arange(8) / 8
        offsets = 0.05 * np.stack([np.cos(angles), np.sin(angles), np.zeros(8)], axis=1)
        return MicArray(positions=center + offsets, preset=preset)
    if preset == "desk-4ch":
        offsets = 0.05 * np.asarray(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]
        )
        return MicArray(positions=center + offsets, preset=preset)
    raise ValueError(f"unknown array preset '{preset}'")


def _from_keys(build, d: dict, where: str):
    """build(**d); a key of d that build does not take, or a parameter without a default
    that d lacks, is a UsageError naming it (where + key)."""
    params = inspect.signature(build).parameters
    required = [name for name, p in params.items() if p.default is p.empty]
    for key in [key for key in d if key not in params] + [key for key in required if key not in d]:
        raise UsageError(f"{'unknown' if key in d else 'missing'} config key '{where}{key}'")
    return build(**d)


def room_from_dict(d: dict) -> RoomSpec:
    """RoomSpec from a room config's "room" object: its fields (absorption defaulted)."""
    return _from_keys(RoomSpec, {"absorption": DEFAULT_ABSORPTION, **d}, "room.")


def array_from_dict(d: dict) -> MicArray:
    """MicArray from its fields (preset "custom" by default), else from array_preset's."""
    if "positions" in d:
        return _from_keys(MicArray, {"preset": "custom", **d}, "array.")
    return _from_keys(array_preset, d, "array.")


def load_room_config(path) -> tuple[RoomSpec, MicArray, dict]:
    """Read room/array specs from a JSON file (schema in README), typed like a --config file.
    An unknown or missing key, at any level, is a UsageError naming it ("room.dims")."""
    cfg = {**ROOM_CONFIG_DEFAULTS, **read_config(path, ROOM_CONFIG_DEFAULTS)}
    room, array = room_from_dict(cfg["room"]), array_from_dict(cfg["array"])
    return room, array, {"max_order": cfg["max_order"]}


# ---------------------------------------------------------------------------
# Image-source method
# ---------------------------------------------------------------------------


def _enumerate_images(room: RoomSpec, max_order: int):
    """All image positions and amplitudes (before 1/4pi*d) up to max_order.

    Images are indexed per axis by parity p in {0,1} and translation r in Z:
    coordinate = (1-2p)*s + 2*r*L. Wall hit counts per axis are |r - p|
    (wall at 0) and |r| (wall at L); total order is their sum over axes.
    """
    beta = np.sqrt(1.0 - room.absorption)  # amplitude reflection per wall
    r_max = (max_order + 1) // 2
    positions = []
    gains = []
    r_range = range(-r_max, r_max + 1)
    for p in itertools.product((0, 1), repeat=3):
        for r in itertools.product(r_range, repeat=3):
            n_low = [abs(r[a] - p[a]) for a in range(3)]
            n_high = [abs(r[a]) for a in range(3)]
            if sum(n_low) + sum(n_high) > max_order:
                continue
            pos = [
                (1 - 2 * p[a]) * room.source_pos[a] + 2 * r[a] * room.dims[a] for a in range(3)
            ]
            gain = 1.0
            for a in range(3):
                gain *= beta[2 * a] ** n_low[a] * beta[2 * a + 1] ** n_high[a]
            positions.append(pos)
            gains.append(gain)
    return np.asarray(positions), np.asarray(gains)


def image_source_rir(
    room: RoomSpec, array: MicArray, max_order: int, sample_rate: int
) -> RIR:
    """Image-source RIRs for every microphone, on a shared time base.

    Each image contributes gain/(4 pi d) at fractional delay d/c (in samples),
    interpolated with a +-40-tap Hann-windowed sinc.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if np.any(array.positions <= 0) or np.any(array.positions >= room.dims):
        raise ValueError("all microphones must lie strictly inside the room")
    positions, gains = _enumerate_images(room, max_order)
    dists = np.linalg.norm(positions[None, :, :] - array.positions[:, None, :], axis=2)
    delays = dists * sample_rate / room.sound_speed  # [C, K] fractional samples
    amps = gains[None, :] / (4.0 * np.pi * dists)

    n_taps = int(np.ceil(delays.max())) + SINC_HALF_WIDTH + 2
    taps = np.zeros((array.channels, n_taps + SINC_HALF_WIDTH + 1))
    offsets = np.arange(-SINC_HALF_WIDTH, SINC_HALF_WIDTH + 1)
    for c in range(array.channels):
        centers = np.round(delays[c]).astype(int)  # [K]
        idx = centers[:, None] + offsets[None, :]  # [K, 81]
        t = idx - delays[c][:, None]  # signed offset from true delay
        window = 0.5 * (1.0 + np.cos(np.pi * t / (SINC_HALF_WIDTH + 1)))
        pulse = amps[c][:, None] * np.sinc(t) * window
        valid = idx >= 0
        np.add.at(taps[c], idx[valid], pulse[valid])
    return RIR(taps=taps[:, :n_taps], sample_rate=sample_rate)


# ---------------------------------------------------------------------------
# Scene synthesis
# ---------------------------------------------------------------------------


def _fast_rfft_len(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n: scipy.fft.next_fast_len(n, real=True)."""
    best, p5 = 1 << (n - 1).bit_length(), 1  # the smallest power of two >= n
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 * 2**j, with j the smallest that reaches n
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def simulate_multichannel(source: Waveform, rir: RIR) -> Waveform:
    """Convolve a single-channel source with each RIR channel (full length).

    numpy FFT convolution: irfft(rfft(taps, n) * rfft(source, n), n), cut to
    n_taps + n_samples - 1 samples, with n the 5-smooth length of
    _fast_rfft_len; a length-1 operand scales the other. These are the
    operations of scipy.signal.fftconvolve, and the tests check its bits.
    """
    if source.channels != 1:
        raise ValueError("source must be single-channel")
    if source.sample_rate != rir.sample_rate:
        raise ValueError("sample rate mismatch between source and RIR")
    if min(rir.taps.shape[1], source.n_samples) == 1:  # a scaling: no FFT, exact products
        return Waveform(samples=rir.taps * source.samples, sample_rate=source.sample_rate)
    n_out = rir.taps.shape[1] + source.n_samples - 1
    n = _fast_rfft_len(n_out)
    out = np.fft.irfft(np.fft.rfft(rir.taps, n, axis=1) * np.fft.rfft(source.samples, n, axis=1),
                       n, axis=1)
    return Waveform(samples=np.ascontiguousarray(out[:, :n_out]), sample_rate=source.sample_rate)


def mix_at_snr(speech: Waveform, noise: Waveform, snr_db: float) -> Waveform:
    """Scale noise so the reference-channel SNR equals snr_db, then sum.

    The noise must have the speech's shape and sample rate. snr_db = +inf is a
    sentinel for a zero noise scale; NaN and -inf are errors.
    """
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ValueError(f"snr_db must be finite or +inf, got {snr_db}")
    if (noise.samples.shape, noise.sample_rate) != (speech.samples.shape, speech.sample_rate):
        raise ValueError(f"noise must match the speech's shape and sample rate: noise "
                         f"{noise.samples.shape} at {noise.sample_rate} Hz, speech "
                         f"{speech.samples.shape} at {speech.sample_rate} Hz")
    if snr_db == np.inf:
        return Waveform(samples=speech.samples.copy(), sample_rate=speech.sample_rate)
    p_speech = np.mean(speech.samples[0] ** 2)
    p_noise = np.mean(noise.samples[0] ** 2)
    if p_speech <= 0.0 or p_noise <= 0.0:
        raise ValueError("zero-power input to mix_at_snr")
    scale = np.sqrt(p_speech / (p_noise * 10.0 ** (snr_db / 10.0)))
    return Waveform(samples=speech.samples + scale * noise.samples, sample_rate=speech.sample_rate)
