"""timbrekit: interpretable acoustic features and pairwise timbre comparison."""

from .audio import AudioBuffer, SynthSpec, load_audio, resample, synth, write_wav
from .diffnet import DiffNetModel, PairColumns, PairRecord, TrainConfig, train
from .features import (
    FEATURE_NAMES,
    FeatureVector,
    FrameTrack,
    MEASURE_NAMES,
    aggregate,
    extract_track,
    extract_vector,
    lfc,
    mfcc,
)
from .evaluation import ScoredColumns, accuracy, cost_report, eer

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "SynthSpec",
    "load_audio",
    "resample",
    "synth",
    "write_wav",
    "DiffNetModel",
    "PairColumns",
    "PairRecord",
    "TrainConfig",
    "train",
    "FEATURE_NAMES",
    "FeatureVector",
    "FrameTrack",
    "MEASURE_NAMES",
    "aggregate",
    "extract_track",
    "extract_vector",
    "lfc",
    "mfcc",
    "ScoredColumns",
    "accuracy",
    "cost_report",
    "eer",
    "__version__",
]
