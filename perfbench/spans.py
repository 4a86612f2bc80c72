"""Span tracing of beamlab's public functions, from outside the package.

`traced(modules)` rebinds each function in LAYER_FUNCTIONS, in every
beamlab module namespace that binds it (`masked_psd` lives in both
`beamform` and `pipeline`, `stft` in `dsp`, `sched` and `cli`), to a wrapper
that records a span: function, start, end and parent span. On exit the
original bindings are restored, so untraced work runs the unmodified
package. Spans stay in memory; the caller writes them out at the end.
"""

import functools
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYER_FUNCTIONS = {
    "dsp": ("stft", "istft", "mel_filterbank"),
    "beamform": ("masked_psd", "oracle_masks", "mvdr_weights", "apply_beamformer",
                 "select_reference"),
    "roomsim": ("image_source_rir", "simulate_multichannel", "mix_at_snr"),
    "backend": ("am_forward_cached", "am_backward", "ctc_loss", "greedy_decode"),
    "pipeline": ("forward_joint", "backward_joint", "forward_backend", "backward_backend",
                 "mask_net_forward", "finite_diff_check"),
    "sched": ("run_training", "evaluate_token_error", "generate_toy_corpus"),
    "corpus_io": ("read_wav", "write_wav", "load_manifest", "save_manifest"),
    "cli": ("main",),
}


def _path_arg(args, kwargs):
    return args[0] if args else kwargs["path"]


def _count_read_wav(counts, args, kwargs, result):
    counts["corpus_io.read_wav.bytes"] += os.path.getsize(_path_arg(args, kwargs))


def _count_write_wav(counts, args, kwargs, result):
    counts["corpus_io.write_wav.bytes"] += os.path.getsize(_path_arg(args, kwargs))


def _count_masked_psd(counts, args, kwargs, result):
    """Computed, not measured: one complex multiply-add (8 flops) per
    (t, f, i, j) term of sum_t m x_i conj(x_j); bytes are the operands read
    once plus the [F, C, C] result written once."""
    bins = args[0] if args else kwargs["bins"]
    mask = args[1] if len(args) > 1 else kwargs["mask"]
    frames, n_bins, channels = bins.shape
    counts["beamform.masked_psd.gflop_computed"] += 8 * frames * n_bins * channels ** 2 / 1e9
    counts["beamform.masked_psd.mbytes_computed"] += (
        bins.nbytes + mask.nbytes + result.nbytes) / 1e6


# Counters kept at a span boundary: function -> (hook, ((metric suffix, unit), ...)).
COUNTERS = {
    "corpus_io.read_wav": (_count_read_wav, (("bytes", "B"),)),
    "corpus_io.write_wav": (_count_write_wav, (("bytes", "B"),)),
    "beamform.masked_psd": (_count_masked_psd,
                            (("gflop_computed", "GFLOP"), ("mbytes_computed", "MB"))),
}


def function_names():
    return [f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns]


def counter_names():
    return [(f"{name}.{suffix}", unit) for name, (_, pairs) in COUNTERS.items()
            for suffix, unit in pairs]


class Recorder:
    """Spans and boundary counters of one traced round."""

    def __init__(self, label: str):
        self.label = label
        self.spans = []  # (function, start, end, parent index or -1)
        self.counts = defaultdict(float)
        self._stack = []

    def wrap(self, name: str, fn):
        hook = COUNTERS.get(name, (None,))[0]

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced_call

    def summary(self) -> dict:
        """`<fn>.calls`, `<fn>.self_s` for every traced function, plus counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for name in function_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for (name, start, end, _), children in zip(self.spans, child_time):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - children
        for name, _ in counter_names():
            out[name] = self.counts.get(name, 0.0)
        return out


@contextmanager
def traced(modules: dict, label: str):
    """Trace every LAYER_FUNCTIONS entry while the block runs.

    `modules` maps layer name to the imported beamlab module.
    """
    recorder = Recorder(label)
    undo = []
    try:
        for layer, fns in LAYER_FUNCTIONS.items():
            for fn_name in fns:
                original = getattr(modules[layer], fn_name)
                wrapper = recorder.wrap(f"{layer}.{fn_name}", original)
                for module in modules.values():
                    if getattr(module, fn_name, None) is original:
                        setattr(module, fn_name, wrapper)
                        undo.append((module, fn_name, original))
        yield recorder
    finally:
        for module, fn_name, original in reversed(undo):
            setattr(module, fn_name, original)
