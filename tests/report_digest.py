"""Print one SHA-256 over training Reports and final parameters.

It covers seeds 0-4 x every mode (PT with one pretraining epoch) on the 12/24
toy split, 2 epochs, batch 4: each Report with its timing fields dropped, then
the final TrainState's step, seed and parameter bytes. A refactor that keeps
training bit-identical prints the same digest as its parent, both with the
batch helper and on one CPU, where no helper is forked:

    OMP_NUM_THREADS=1 python tests/report_digest.py
    OMP_NUM_THREADS=1 taskset -c 0 python tests/report_digest.py

It imports beamlab from the `src` beside this file, so it runs on any checkout.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from beamlab import sched  # noqa: E402

SEEDS = range(5)
TIMING_COST_KEYS = ("t1_seconds", "t2_seconds", "predicted_epoch_seconds")


def report_digest() -> str:
    rng = np.random.default_rng(np.random.SeedSequence(0))
    multi, single, _ = sched.generate_toy_corpus(12, 24, 6, rng)
    sha = hashlib.sha256()
    for mode in sched.MODES:
        for seed in SEEDS:
            scene = {"room": sched.toy_room(), "array": sched.toy_array()} if mode == "SIMU" else {}
            cfg = sched.ScheduleConfig(mode=mode, epochs=2, multi_batch_size=4, seed=seed,
                                       pretrain_epochs=1, **scene)
            report, state = sched.run_training(cfg, multi, single, return_state=True)
            record = report.to_dict()
            del record["wall_clock_per_epoch"]
            for key in TIMING_COST_KEYS:
                del record["cost_model"][key]
            sha.update(json.dumps(record, sort_keys=True).encode())
            sha.update(f"step {state.step} seed {state.seed}".encode())
            for params in (state.mask_params, state.am_params):
                for name in ("w1", "b1", "w2", "b2"):
                    sha.update(getattr(params, name).tobytes())
    return sha.hexdigest()


if __name__ == "__main__":
    print(report_digest())
