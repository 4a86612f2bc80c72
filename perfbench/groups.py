"""The operation families, each run as one group of closed-loop calls.

Every call is timed on its own, its wall time goes to the run's
`hostspeed.HostSpeed`, and then it is checked; a call that raises, exits
with the wrong code or produces a wrong output counts as one failed
operation. Checks run after the timed call and outside its time.
"""

import contextlib
import io
import re
import struct
import traceback
from collections import defaultdict
from time import perf_counter

import numpy as np

from beamlab import cli, sched

TRAIN_EPOCHS = 2
TRAIN_PRETRAIN_EPOCHS = 1
TRAIN_BATCH = 10
TRAIN_SEED = 0
TRAIN_MODES = (("jo_only", "JO_ONLY"), ("pt", "PT"), ("ds", "DS"), ("simu", "SIMU"))
GRADCHECK_TOL = 1e-4
SNR_GAIN_FLOOR_DB = 3.0
NEGATIVE_CONTROL_EXIT = 3


class Ledger:
    """Timing samples, deterministic values and failures of one run."""

    def __init__(self):
        self.samples = defaultdict(list)
        self.values = {}
        self.reports = []
        self.attempted = 0
        self.failures = []

    def operation(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    def value(self, name: str, value: float) -> None:
        """A quantity that must repeat exactly every time its group runs."""
        if name in self.values and self.values[name] != value:
            self.failures.append(f"{name} not reproducible: {self.values[name]!r} then {value!r}")
        self.values.setdefault(name, value)


def _guarded(ledger: Ledger, what: str, fn):
    """Run one operation; an exception is a failed operation, not a crash."""
    try:
        return fn()
    except Exception:  # noqa: BLE001 - the benchmark keeps going and reports it
        ledger.operation(what, [traceback.format_exc(limit=3).strip().splitlines()[-1]])
        return None


def call_cli(argv):
    """In-process `cli.main`, output captured. Returns (code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = cli.main(argv)
        seconds = perf_counter() - start
    return code, seconds, out.getvalue(), err.getvalue()


def read_float_wav(path):
    """Independent reader for the IEEE-float32 WAVs beamlab writes.

    Returns (channels, sample_rate, samples [n, channels]).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    pos, fmt, payload = 12, None, None
    while pos + 8 <= len(data):
        chunk_id, size = struct.unpack_from("<4sI", data, pos)
        body = data[pos + 8 : pos + 8 + size]
        if chunk_id == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", body)
        elif chunk_id == b"data":
            payload = body
        pos += 8 + size + (size & 1)
    if fmt is None or payload is None:
        raise ValueError("missing fmt or data chunk")
    tag, channels, rate, _, _, bits = fmt
    if (tag, bits) != (3, 32):
        raise ValueError(f"expected float32 WAV, got format {tag}/{bits}-bit")
    return channels, rate, np.frombuffer(payload, dtype="<f4").reshape(-1, channels)


# ---------------------------------------------------------------------------
# toy-train: sched.run_training once per mode
# ---------------------------------------------------------------------------


def train_config(mode: str) -> "sched.ScheduleConfig":
    extra = {}
    if mode == "PT":
        extra["pretrain_epochs"] = TRAIN_PRETRAIN_EPOCHS
    if mode == "SIMU":
        extra["room"], extra["array"] = sched.toy_room(), sched.toy_array()
    return sched.ScheduleConfig(mode=mode, epochs=TRAIN_EPOCHS, multi_batch_size=TRAIN_BATCH,
                                seed=TRAIN_SEED, **extra)


def _train_problems(report, mode: str, n_multi: int, n_single: int) -> list:
    problems = []
    losses = report.epoch_losses + report.single_losses + report.pretrain_losses
    if len(report.epoch_losses) != TRAIN_EPOCHS or not np.all(np.isfinite(losses)):
        problems.append(f"losses not {TRAIN_EPOCHS} finite epochs: {report.epoch_losses}")
    # Table-1 counter laws.
    frontend = n_multi + (n_single if mode == "SIMU" else 0)
    single = n_single if mode == "DS" else 0
    counters = report.counters
    if counters.get("frontend_utts_per_epoch") != frontend:
        problems.append(f"frontend_utts_per_epoch {counters.get('frontend_utts_per_epoch')} "
                        f"!= {frontend}")
    if counters.get("single_utts_per_epoch") != single:
        problems.append(f"single_utts_per_epoch {counters.get('single_utts_per_epoch')} "
                        f"!= {single}")
    predicted = report.cost_model.get("predicted_epoch_seconds")
    if predicted is None or not predicted > 0:
        problems.append(f"no cost-model prediction: {predicted}")
    return problems


def train_group(inputs, ledger: Ledger, speed) -> None:
    final_losses = []
    for key, mode in TRAIN_MODES:
        cfg = train_config(mode)

        def run():
            start = perf_counter()
            report = sched.run_training(cfg, inputs.multi, inputs.single)
            return report, perf_counter() - start

        outcome = _guarded(ledger, f"run_training {mode}", run)
        if outcome is None:
            continue
        report, seconds = outcome
        speed.add(seconds)
        ledger.samples[f"train.{key}_s"].append(seconds)
        ledger.reports.append(report)
        ledger.operation(f"run_training {mode}",
                         _train_problems(report, mode, len(inputs.multi), len(inputs.single)))
        final_losses.append(report.epoch_losses[-1])
    if len(final_losses) == len(TRAIN_MODES):
        ledger.value("train.final_loss", float(np.mean(final_losses)))


# ---------------------------------------------------------------------------
# array-16k: cli simulate, then cli enhance on every scene
# ---------------------------------------------------------------------------


def _simulate_problems(inputs, code, stderr, out_dir) -> list:
    if code != 0:
        return [f"exit {code}: {stderr.strip()}"]
    problems = []
    for utt_id, expected in inputs.sim_samples.items():
        try:
            channels, _, samples = read_float_wav(out_dir / f"{utt_id}.wav")
        except (OSError, ValueError) as exc:
            problems.append(f"{utt_id}: {exc}")
            continue
        if channels != inputs.sim_channels or samples.shape[0] != expected:
            problems.append(f"{utt_id}: {channels} ch x {samples.shape[0]} samples, "
                            f"want {inputs.sim_channels} x {expected}")
        elif not np.all(np.isfinite(samples)):
            problems.append(f"{utt_id}: non-finite samples")
    return problems


def _enhance_problems(scene, code, stdout, stderr, out_path, oracle: bool):
    """Returns (problems, SNR gain in dB or None)."""
    if code != 0:
        return [f"exit {code}: {stderr.strip()}"], None
    try:
        channels, _, samples = read_float_wav(out_path)
    except (OSError, ValueError) as exc:
        return [f"output: {exc}"], None
    problems = []
    if channels != 1 or samples.shape[0] != scene.enhanced_samples:
        problems.append(f"output {channels} ch x {samples.shape[0]}, "
                        f"want 1 x {scene.enhanced_samples}")
    if not np.all(np.isfinite(samples)):
        problems.append("non-finite output")
    gain = None
    if oracle:
        match = re.search(r"SNR gain: (-?[\d.]+) dB", stdout)
        gain = float(match.group(1)) if match else None
        if gain is None or gain < SNR_GAIN_FLOOR_DB:
            problems.append(f"oracle SNR gain {gain} dB below {SNR_GAIN_FLOOR_DB} dB")
    return problems, gain


def array_group(inputs, ledger: Ledger, speed) -> None:
    sim_dir = inputs.workdir / "simulated"
    argv = ["simulate", "--manifest", str(inputs.sim_manifest),
            "--room-config", str(inputs.room_config), "--out-dir", str(sim_dir)]
    outcome = _guarded(ledger, "simulate", lambda: call_cli(argv))
    if outcome is not None:
        code, seconds, _, stderr = outcome
        speed.add(seconds)
        ledger.samples["simulate.utt_per_s"].append(len(inputs.sim_samples) / seconds)
        ledger.operation("simulate", _simulate_problems(inputs, code, stderr, sim_dir))

    gains = []
    for scene in inputs.scenes:
        runs = [("oracle", f"enhance.rtf_{scene.array}", ["--clean", str(scene.clean)])]
        if scene.array == "8ch":
            runs.append(("checkpoint", "enhance.learned_rtf_8ch",
                         ["--checkpoint", str(inputs.checkpoint)]))
        for masks, metric, extra in runs:
            out_path = inputs.workdir / f"{scene.name}-{masks}-enhanced.wav"
            argv = ["enhance", "--input", str(scene.noisy), "--out", str(out_path),
                    "--masks", masks] + extra
            what = f"enhance {scene.name} {masks}"
            outcome = _guarded(ledger, what, lambda: call_cli(argv))
            if outcome is None:
                continue
            code, seconds, stdout, stderr = outcome
            speed.add(seconds)
            ledger.samples[metric].append(seconds / scene.seconds)
            problems, gain = _enhance_problems(scene, code, stdout, stderr, out_path,
                                               masks == "oracle")
            ledger.operation(what, problems)
            if gain is not None:
                gains.append(gain)
    if len(gains) == len(inputs.scenes):
        ledger.value("enhance.snr_gain_db", float(np.mean(gains)))


# ---------------------------------------------------------------------------
# gradcheck: cli gradcheck over several instances
# ---------------------------------------------------------------------------


def gradcheck_instances(seed: int) -> list:
    """(preset, instance seed) of one round: two `default` instances, one `wide`."""
    base = 1000 * seed
    return [("default", base), ("default", base + 1), ("wide", base + 2)]


def gradcheck_group(instances, ledger: Ledger, speed) -> None:
    for preset, seed in instances:
        argv = ["gradcheck", "--preset", preset, "--seed", str(seed)]
        what = f"gradcheck {preset} seed {seed}"
        outcome = _guarded(ledger, what, lambda: call_cli(argv))
        if outcome is None:
            continue
        code, seconds, stdout, stderr = outcome
        speed.add(seconds)
        ledger.samples[f"gradcheck.{preset}_s"].append(seconds)
        match = re.search(r"max relative error: (\S+)", stdout)
        err = float(match.group(1)) if match else None
        problems = [] if code == 0 else [f"exit {code}: {stderr.strip()}"]
        if err is None or not err < GRADCHECK_TOL:
            problems.append(f"max relative error {err} not below {GRADCHECK_TOL}")
        ledger.operation(what, problems)


def negative_control(seed: int, ledger: Ledger) -> None:
    """A corrupted adjoint must fail the gradient check with exit code 3."""
    argv = ["gradcheck", "--preset", "default", "--seed", str(1000 * seed), "--corrupt-adjoint"]
    outcome = _guarded(ledger, "gradcheck --corrupt-adjoint", lambda: call_cli(argv))
    if outcome is not None:
        code = outcome[0]
        ledger.operation("gradcheck --corrupt-adjoint",
                         [] if code == NEGATIVE_CONTROL_EXIT
                         else [f"exit {code}, want {NEGATIVE_CONTROL_EXIT}"])
