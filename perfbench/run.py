"""beamlab benchmark: closed-loop workloads against the package in ./src.

    python3 perfbench/run.py --workload toy-train --seed 0 --seconds 45 --trace 0

A run builds its seeded inputs several times (the median is `setup_s`),
warms up, then repeats rounds of the workload's operations, one call at a
time, for up to `--seconds`. Set-up passes and rounds are timed in
host-normalized seconds (see hostspeed.py). It prints every metric by name and
unit and, as its last line, one JSON object with the keys "correct",
"attempted", "failed" and "metrics". With --trace 0 the metrics are the
end-to-end ones; with --trace 1 rounds alternate untraced and traced and
the metrics are the per-layer ones. The exit code is 0 only when every
output check passed. See perfbench/README.md.
"""

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from spans import counter_names, function_names, traced

# One BLAS thread: the shapes are small, and one thread keeps timings steadier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The CLI lets this variable override --seed; the benchmark owns the seed.
os.environ.pop("BEAMLAB_SEED", None)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

SETUP_REPEATS = 9
# Rounds per run at least, whatever --seconds says; doubled when tracing,
# where rounds alternate untraced and traced.
MIN_ROUNDS = 2

# The benchmark's workloads, as listed in BENCHMARK.json.
WORKLOADS = ("toy-train", "array-16k")
# Runs only when asked for: on some seeds its gradient check fails (README.md).
OPT_IN_WORKLOADS = ("gradcheck",)
MODES = ("jo_only", "pt", "ds", "simu")

# (name, unit, better). Every run reports these for its own workload.
END_TO_END = (
    ("round_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# Per-operation figures of each workload, printed and saved with the result.
OPERATION_METRICS = {
    "toy-train": (
        ("train.jo_only_s", "s", "lower"),
        ("train.pt_s", "s", "lower"),
        ("train.ds_s", "s", "lower"),
        ("train.simu_s", "s", "lower"),
        ("train.final_loss", "nats", "lower"),
    ),
    "array-16k": (
        ("simulate.utt_per_s", "utt/s", "higher"),
        ("enhance.rtf_4ch", "s/s", "lower"),
        ("enhance.rtf_8ch", "s/s", "lower"),
        ("enhance.learned_rtf_8ch", "s/s", "lower"),
        ("enhance.snr_gain_db", "dB", "higher"),
    ),
    "gradcheck": (
        ("gradcheck.default_s", "s", "lower"),
        ("gradcheck.wide_s", "s", "lower"),
    ),
}


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric; see README.md."""
    metrics = []
    for name in function_names():
        metrics.append((f"{name}.calls", "count", "lower"))
        metrics.append((f"{name}.self_s", "s", "lower"))
    metrics += [(name, unit, "lower") for name, unit in counter_names()]
    metrics += [("sched.t1_s", "s", "lower"), ("sched.t2_s", "s", "lower")]
    for mode in MODES:
        metrics.append((f"sched.predicted_epoch_s.{mode}", "s", "lower"))
        metrics.append((f"sched.measured_epoch_s.{mode}", "s", "lower"))
        metrics.append((f"sched.cost_model_ratio.{mode}", "ratio", "higher"))
    metrics += [("trace.spans", "count", "lower"), ("trace.overhead_pct", "%", "lower")]
    return metrics


def tail_percentile(samples):
    """(p, value) for the highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return None
    p = int(100 * (n - 10) / n)
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def import_beamlab():
    """Import beamlab from ./src of this checkout, never from elsewhere."""
    if not (SRC / "beamlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no beamlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import beamlab

    if Path(beamlab.__file__).resolve().parent != (SRC / "beamlab").resolve():
        raise SystemExit(f"error: imported beamlab from {beamlab.__file__}, not {SRC}")
    from beamlab import backend, beamform, cli, corpus_io, dsp, pipeline, roomsim, sched

    return {"dsp": dsp, "beamform": beamform, "roomsim": roomsim, "backend": backend,
            "pipeline": pipeline, "sched": sched, "corpus_io": corpus_io, "cli": cli}


def schedule_metrics(reports) -> dict:
    """Table-1 self-check from the run's Reports: T1, T2, and predicted vs
    measured epoch seconds per mode. 0 where the workload trains no such mode."""

    def median(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    by_mode = {mode: [r for r in reports if r.mode.lower() == mode] for mode in MODES}
    out = {
        "sched.t1_s": median(r.cost_model["t1_seconds"] for r in reports),
        "sched.t2_s": median(r.cost_model["t2_seconds"] for r in by_mode["ds"]),
    }
    for mode, mode_reports in by_mode.items():
        predicted = [r.cost_model["predicted_epoch_seconds"] for r in mode_reports]
        measured = [statistics.fmean(r.wall_clock_per_epoch) for r in mode_reports]
        out[f"sched.predicted_epoch_s.{mode}"] = median(predicted)
        out[f"sched.measured_epoch_s.{mode}"] = median(measured)
        out[f"sched.cost_model_ratio.{mode}"] = median(
            p / m for p, m in zip(predicted, measured))
    return out


def summarize(samples) -> dict:
    return {"value": statistics.median(samples), "n": len(samples),
            "tail": tail_percentile(samples)}


class Run:
    # `groups` and `inputs` import beamlab, so they load only after
    # import_beamlab() has put this checkout's src/ first on the path; numpy,
    # which `hostspeed` imports, only after the BLAS thread count is set.

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, modules: dict):
        import groups
        import hostspeed

        self.groups = groups
        self.hostspeed = hostspeed
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.modules = modules
        self.ledger = groups.Ledger()
        self.inputs = None
        self.setup_seconds = []  # normalized, per set-up pass
        self.setup_wall = []
        self.setup_round = None  # Recorder of the traced set-up pass
        self.rounds = []  # Recorder per traced round
        self.busy = {False: [], True: []}  # traced? -> normalized operation seconds per round
        self.busy_wall = {False: [], True: []}

    def one_round(self, speed) -> None:
        g = self.groups
        if self.workload == "toy-train":
            g.train_group(self.inputs, self.ledger, speed)
        elif self.workload == "array-16k":
            g.array_group(self.inputs, self.ledger, speed)
        else:
            g.gradcheck_group(g.gradcheck_instances(self.seed), self.ledger, speed)

    def set_up(self, workdir: Path) -> None:
        import inputs

        speed = self.hostspeed.HostSpeed()
        for rep in range(SETUP_REPEATS):
            # Drop the previous pass first, so peak memory and disk hold one input set.
            if self.inputs is not None:
                shutil.rmtree(self.inputs.workdir)
                self.inputs = None
            gc.collect()
            start = time.perf_counter()
            if self.trace and rep == SETUP_REPEATS - 1:
                with traced(self.modules, "setup") as self.setup_round:
                    self.inputs = inputs.build(self.seed, workdir / f"setup{rep}")
            else:
                self.inputs = inputs.build(self.seed, workdir / f"setup{rep}")
            wall, normalized = speed.totals()
            speed.add(time.perf_counter() - start)
            speed.flush()
            self.setup_wall.append(speed.wall - wall)
            self.setup_seconds.append(speed.normalized - normalized)

    def warm_up(self) -> None:
        """First-call costs (lazy imports, allocator growth) stay out of the timings."""
        self.modules["sched"].run_training(
            self.groups.train_config("JO_ONLY"), self.inputs.multi[:10], [])
        scene = self.inputs.scenes[-1]
        self.groups.call_cli(["enhance", "--input", str(scene.noisy), "--out",
                              str(self.inputs.workdir / "warm-up.wav"), "--masks", "oracle",
                              "--clean", str(scene.clean)])

    def measure(self) -> None:
        speed = self.hostspeed.HostSpeed()
        start = time.perf_counter()
        min_rounds = 2 * MIN_ROUNDS if self.trace else MIN_ROUNDS
        n = 0
        elapsed = last_round = 0.0
        # A round starts only if one more round like the last still fits.
        while n < min_rounds or elapsed + last_round <= self.seconds:
            round_start = time.perf_counter()
            traced_round = self.trace and n % 2 == 1
            wall, normalized = speed.totals()
            if traced_round:
                with traced(self.modules, f"round{n}") as recorder:
                    self.one_round(speed)
                self.rounds.append(recorder)
            else:
                self.one_round(speed)
            speed.flush()
            self.busy_wall[traced_round].append(speed.wall - wall)
            self.busy[traced_round].append(speed.normalized - normalized)
            last_round = time.perf_counter() - round_start
            elapsed = time.perf_counter() - start
            n += 1
        if self.workload == "gradcheck":
            self.groups.negative_control(self.seed, self.ledger)

    def end_to_end(self) -> dict:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "round_s": dict(summarize(self.busy[False]),
                            wall=statistics.median(self.busy_wall[False])),
            "peak_rss_mb": {"value": rss_kb / 1024.0},
            "setup_s": dict(summarize(self.setup_seconds),
                            wall=statistics.median(self.setup_wall)),
        }

    def operations(self) -> dict:
        out = {}
        for name, _, _ in OPERATION_METRICS[self.workload]:
            samples = self.ledger.samples.get(name)
            if samples:
                out[name] = summarize(samples)
            else:
                out[name] = {"value": self.ledger.values.get(name)}
        return out

    def per_layer(self) -> dict:
        """Calls and counters of one traced round plus the traced set-up pass,
        checked identical across rounds; self time of the median round."""
        summaries = [r.summary() for r in self.rounds]
        first = summaries[0]
        exact = [k for k in first if not k.endswith(".self_s")]
        for i, other in enumerate(summaries[1:], start=2):
            changed = [k for k in exact if other[k] != first[k]]
            if changed:
                self.ledger.failures.append(
                    f"traced round {i} counts differ from traced round 1: {changed[:5]}")
        setup = self.setup_round.summary()
        out = {}
        for key in first:
            if key.endswith(".self_s"):
                value = statistics.median(s[key] for s in summaries) + setup[key]
            else:
                value = first[key] + setup[key]
            out[key] = {"value": value}
        out.update({k: {"value": v} for k, v in schedule_metrics(self.ledger.reports).items()})
        out["trace.spans"] = {"value": len(self.setup_round.spans) + len(self.rounds[0].spans)}
        untraced = statistics.median(self.busy[False])
        out["trace.overhead_pct"] = {
            "value": 100.0 * (statistics.median(self.busy[True]) - untraced) / untraced}
        return out

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for recorder in [self.setup_round] + self.rounds:
                json.dump({"round": recorder.label, "spans": recorder.spans}, fh)
                fh.write("\n")


def _line(name, unit, better, m) -> str:
    value = "missing" if m["value"] is None else f"{m['value']:.6g}"
    detail = ""
    if "n" in m:
        detail = f"  (median of {m['n']}"
        if m["tail"]:
            detail += f", p{m['tail'][0]} {m['tail'][1]:.6g}"
        if "wall" in m:
            detail += f"; wall clock {m['wall']:.6g}"
        detail += ")"
    return f"{name:<42} {value:>14} {unit:<6} {better} is better{detail}"


def report(run: Run, env: dict):
    """(result object, per-operation figures, printable lines)."""
    definitions = per_layer_metrics() if run.trace else END_TO_END
    measured = run.per_layer() if run.trace else run.end_to_end()
    operations = {} if run.trace else run.operations()
    failures = run.ledger.failures
    lines = [f"env: {json.dumps(env)}"] + [f"FAILED {f}" for f in failures]
    for name, unit, better in definitions:
        lines.append(_line(name, unit, better, measured[name]))
    if operations:
        lines.append(f"per operation ({run.workload}, not gated):")
        for name, unit, better in OPERATION_METRICS[run.workload]:
            lines.append(_line(name, unit, better, operations[name]))
    result = {
        "correct": not failures,
        "attempted": run.ledger.attempted,
        "failed": len(failures),
        "metrics": {name: {"value": measured[name]["value"], "unit": unit}
                    for name, unit, _ in definitions},
    }
    return result, operations, lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + OPT_IN_WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = import_beamlab()
    env = environment(args.seed)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), modules)

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        run.set_up(workdir / "inputs")
        run.warm_up()
        run.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result, operations, lines = report(run, env)
    OUT_ROOT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_ROOT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "failures": run.ledger.failures, "operations": operations,
                   "samples": {"round_s": run.busy[False], "traced_round_s": run.busy[True],
                               "setup_s": run.setup_seconds,
                               "round_wall_s": run.busy_wall[False],
                               "traced_round_wall_s": run.busy_wall[True],
                               "setup_wall_s": run.setup_wall,
                               **run.ledger.samples},
                   **result}, fh, indent=1)
    if run.trace:
        run.write_spans(OUT_ROOT / f"{stem}-spans.jsonl.gz")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
