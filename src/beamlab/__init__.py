"""beamlab: a desk-scale laboratory for multi-channel speech front-ends.

Modules:
    dsp        STFT/iSTFT, mel filterbank, the feature chain and its adjoint.
    beamform   Mask-based MVDR beamforming.
    roomsim    Image-source room impulse responses and SNR mixing.
    backend    Tiny acoustic model, exact CTC, greedy decoding, scoring.
    pipeline   Differentiable joint front-end/back-end path (manual adjoints).
    sched      Training schemes (PT/DS/SIMU/JO_ONLY), cost model, toy corpus.
    corpus_io  WAV and JSON-lines manifest IO.
    cli        The `beamlab` command-line entry point.
"""

__version__ = "0.1.0"

__all__ = [
    "dsp",
    "beamform",
    "roomsim",
    "backend",
    "pipeline",
    "sched",
    "corpus_io",
    "cli",
]
