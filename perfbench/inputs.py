"""Seeded inputs for every benchmark workload.

One call to `build` is one set-up pass: the toy corpus that `sched` trains
on, 16 kHz noisy/clean array scenes for `enhance`, a single-channel
manifest and room config for `simulate`, and a mask-net checkpoint. The
same seed gives byte-identical files. Training hyper-parameters, including
the parameter-init seed, are fixed elsewhere: the seed varies the data only.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from beamlab import corpus_io, dsp, pipeline, roomsim, sched

TOY_MULTI = 50
TOY_SINGLE = 100
TOY_VOCAB = 6

SAMPLE_RATE = 16000
ROOM_DIMS = (6.0, 4.5, 3.0)
ROOM_ABSORPTION = 0.35
ARRAY_CENTER = (3.0, 2.5, 1.1)
ARRAYS = {"4ch": "desk-4ch", "8ch": "aishell4-8ch-circular"}
MAX_ORDER = 2
# Lengths vary within a run but not between seeds, so every seed does the
# same amount of work.
SCENE_SECONDS = (2.5, 3.5, 4.5)
SCENE_SNR_DB = 5.0
# Sources stay this far (m) from the array centre, so every scene is a
# far-ish field scene on which the oracle-mask MVDR clears its 3 dB floor.
SOURCE_DISTANCE = (1.0, 2.5)
SIM_SECONDS = tuple(np.linspace(1.5, 3.0, 16))
SIM_ARRAY = "8ch"
SIM_SOURCE = (2.0, 2.2, 1.5)
# Enhance writes through `cli`, whose STFT defaults are 512 / 128.
ENHANCE_WINDOW = 512
ENHANCE_HOP = 128


@dataclass
class Scene:
    name: str
    array: str  # key of ARRAYS
    noisy: Path
    clean: Path
    n_samples: int

    @property
    def seconds(self) -> float:
        return self.n_samples / SAMPLE_RATE

    @property
    def enhanced_samples(self) -> int:
        """Length `istft` gives back: whole frames only, no centre padding."""
        frames = (self.n_samples - ENHANCE_WINDOW) // ENHANCE_HOP + 1
        return (frames - 1) * ENHANCE_HOP + ENHANCE_WINDOW


@dataclass
class Inputs:
    workdir: Path
    multi: list
    single: list
    scenes: list
    checkpoint: Path
    sim_manifest: Path
    room_config: Path
    sim_channels: int
    sim_samples: dict  # utt_id -> expected rendered length (n + taps - 1)


def _speech_like(rng: np.random.Generator, seconds: float) -> np.ndarray:
    """Voiced 'syllables': harmonic bursts with random pitch, gaps between."""
    n = int(seconds * SAMPLE_RATE)
    out = np.zeros(n)
    start = 0
    while start < n:
        length = int(rng.uniform(0.12, 0.30) * SAMPLE_RATE)
        f0 = rng.uniform(100.0, 250.0)
        t = np.arange(length) / SAMPLE_RATE
        envelope = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)
        voiced = sum(
            0.6 ** k * np.sin(2.0 * np.pi * f0 * (k + 1) * t + rng.uniform(0.0, 2.0 * np.pi))
            for k in range(10)
        )
        end = min(n, start + length)
        out[start:end] += (envelope * voiced)[: end - start]
        start = end + int(rng.uniform(0.03, 0.12) * SAMPLE_RATE)
    return 0.1 * out / np.max(np.abs(out))


def _source_position(rng: np.random.Generator) -> list:
    center = np.asarray(ARRAY_CENTER)
    while True:
        pos = rng.uniform([0.5, 0.5, 1.2], [5.5, 4.0, 1.8])
        if SOURCE_DISTANCE[0] <= np.linalg.norm(pos - center) <= SOURCE_DISTANCE[1]:
            return pos.tolist()


def _toy_corpus(ss: np.random.SeedSequence):
    multi, single, _ = sched.generate_toy_corpus(
        TOY_MULTI, TOY_SINGLE, TOY_VOCAB, np.random.default_rng(ss)
    )
    return multi, single


def _scenes(ss: np.random.SeedSequence, out_dir: Path) -> list:
    rng = np.random.default_rng(ss)
    scenes = []
    for key, preset in ARRAYS.items():
        array = roomsim.array_preset(preset, ARRAY_CENTER)
        for i, seconds in enumerate(SCENE_SECONDS):
            room = roomsim.RoomSpec(dims=ROOM_DIMS, source_pos=_source_position(rng),
                                    absorption=ROOM_ABSORPTION)
            rir = roomsim.image_source_rir(room, array, MAX_ORDER, SAMPLE_RATE)
            source = dsp.Waveform(samples=_speech_like(rng, seconds)[None, :],
                                  sample_rate=SAMPLE_RATE)
            clean = roomsim.simulate_multichannel(source, rir)
            noise = dsp.Waveform(samples=rng.normal(size=clean.samples.shape),
                                 sample_rate=SAMPLE_RATE)
            noisy = roomsim.mix_at_snr(clean, noise, SCENE_SNR_DB)
            name = f"{key}-{i}"
            scene = Scene(name=name, array=key, noisy=out_dir / f"{name}-noisy.wav",
                          clean=out_dir / f"{name}-clean.wav", n_samples=clean.n_samples)
            corpus_io.write_wav(scene.noisy, noisy)
            corpus_io.write_wav(scene.clean, clean)
            scenes.append(scene)
    return scenes


def _simulate_inputs(ss: np.random.SeedSequence, out_dir: Path):
    rng = np.random.default_rng(ss)
    room_config = out_dir / "room.json"
    with open(room_config, "w", encoding="utf-8") as fh:
        json.dump({
            "room": {"dims": list(ROOM_DIMS), "source_pos": list(SIM_SOURCE),
                     "absorption": ROOM_ABSORPTION},
            "array": {"preset": ARRAYS[SIM_ARRAY], "center": list(ARRAY_CENTER)},
            "max_order": MAX_ORDER,
            "sample_rate": SAMPLE_RATE,
        }, fh)
    room, array, extras = roomsim.load_room_config(room_config)
    taps = roomsim.image_source_rir(room, array, extras["max_order"], SAMPLE_RATE).taps.shape[1]

    records, expected = [], {}
    for i, seconds in enumerate(SIM_SECONDS):
        wave = dsp.Waveform(samples=_speech_like(rng, seconds)[None, :],
                            sample_rate=SAMPLE_RATE)
        utt_id = f"mono{i:02d}"
        corpus_io.write_wav(out_dir / f"{utt_id}.wav", wave)
        records.append(corpus_io.Utterance(
            utt_id=utt_id, audio_path=f"{utt_id}.wav", channels=1, sample_rate=SAMPLE_RATE,
            duration=wave.n_samples / SAMPLE_RATE, transcript=[1], origin="single",
        ))
        expected[utt_id] = wave.n_samples + taps - 1
    manifest = out_dir / "mono.jsonl"
    corpus_io.save_manifest(corpus_io.Manifest(utterances=records), manifest)
    return manifest, room_config, array.channels, expected


def _checkpoint(ss: np.random.SeedSequence, out_dir: Path) -> Path:
    state = pipeline.init_train_state(np.random.default_rng(ss), n_mels=10,
                                      vocab_size=TOY_VOCAB, am_hidden=48, mask_hidden=8)
    path = out_dir / "state.json"
    pipeline.save_checkpoint(state, path)
    return path


def build(seed: int, workdir: Path) -> Inputs:
    """One set-up pass into `workdir` (created; must not exist yet)."""
    workdir.mkdir(parents=True)
    corpus_ss, scene_ss, sim_ss, state_ss = np.random.SeedSequence(seed).spawn(4)
    multi, single = _toy_corpus(corpus_ss)
    scenes = _scenes(scene_ss, workdir)
    sim_manifest, room_config, sim_channels, sim_samples = _simulate_inputs(sim_ss, workdir)
    return Inputs(
        workdir=workdir, multi=multi, single=single, scenes=scenes,
        checkpoint=_checkpoint(state_ss, workdir), sim_manifest=sim_manifest,
        room_config=room_config, sim_channels=sim_channels, sim_samples=sim_samples,
    )
