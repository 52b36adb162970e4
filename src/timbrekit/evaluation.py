"""Accuracy, equal error rate, and the analytical FLOPs/parameter report.

EER convention: the second utterance being stronger is the positive class
and the score is its detection statistic. False-accept and false-reject
rates are swept over every distinct score; the EER is read off at their
crossing with linear interpolation between the two adjacent operating
points (the interpolation runs in rate space, so any strictly increasing
rescoring leaves the result untouched).

Cost: the curve is one sort of each class plus a binary search per
distinct score, O(N log N) in the pair count N; the EER reads one curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import HOP, INTERNAL_RATE, next_pow2
from .diffnet import DiffNetModel, STANDARD_DESCRIPTORS, TrainConfig, init_model
from .features import (
    CEPSTRAL_WINDOW, LINEAR_FFT, MEASURE_WINDOW, MEL_FFT, feature_names_for, filterbank_matrix,
)
from .formants import ANALYSIS_RATE, LPC_ORDER, WINDOW as FORMANT_WINDOW
from .noise_metrics import HARMONIC_COUNT_MAX, QUEFRENCY_CEILING
from .pitch import _LAG_OVERSAMPLE, PitchConfig


@dataclass(frozen=True)
class ScoredColumns:
    """Scored pairs as two arrays: each pair's score, and whether its label is B_STRONGER.

    accuracy, far_frr_curve and eer take this; the scores are checked here
    once rather than pair by pair.
    """

    scores: np.ndarray
    positive: np.ndarray

    def __post_init__(self):
        if self.scores.shape != self.positive.shape or self.scores.ndim != 1:
            raise ValueError("scores and positive must be 1-D arrays of equal length")
        if self.positive.dtype != bool:
            raise ValueError("positive must be a bool array")
        if self.scores.size and not (
            np.isfinite(self.scores).all() and self.scores.min() >= 0.0 and self.scores.max() <= 1.0
        ):
            raise ValueError("score must be finite in [0, 1]")

    def __len__(self) -> int:
        return self.scores.size

    def take(self, index) -> "ScoredColumns":
        return ScoredColumns(self.scores[index], self.positive[index])


def accuracy(scored: ScoredColumns) -> float:
    """Percent of pairs whose score, thresholded at 0.5, matches the label.

    Scores at or above 0.5 predict the second utterance as stronger (ties
    go to B).
    """
    if not scored:
        raise ValueError("no scored pairs")
    return float(np.mean((scored.scores >= 0.5) == scored.positive) * 100.0)


def far_frr_curve(scored: ScoredColumns) -> list[tuple[float, float, float]]:
    """(threshold, false-accept rate, false-reject rate) at each distinct score.

    A final sentinel point one above the top score has FAR 0 and FRR 1.
    """
    scores, positive = scored.scores, scored.positive
    if not positive.any() or positive.all():
        raise ValueError("both label classes are required")
    pos = np.sort(scores[positive])
    neg = np.sort(scores[~positive])
    thresholds = np.unique(scores)
    # Rates are integer counts over the class size: neg >= t accepts, pos < t rejects.
    far = (neg.size - np.searchsorted(neg, thresholds, side="left")) / neg.size
    frr = np.searchsorted(pos, thresholds, side="left") / pos.size
    out = list(zip(thresholds.tolist(), far.tolist(), frr.tolist()))
    out.append((float(thresholds[-1]) + 1.0, 0.0, 1.0))
    return out


def eer_from_curve(curve: list[tuple[float, float, float]]) -> float:
    """Equal error rate in percent at the crossing of a far_frr_curve's rates."""
    far = np.array([c[1] for c in curve])
    frr = np.array([c[2] for c in curve])
    diff = far - frr  # starts at +, ends at -, monotone nonincreasing
    cross = int(np.argmax(diff <= 0.0))
    if cross == 0:
        return float(far[0] * 100.0)
    d0, d1 = diff[cross - 1], diff[cross]
    alpha = 0.0 if d0 == d1 else d0 / (d0 - d1)
    value = far[cross - 1] + alpha * (far[cross] - far[cross - 1])
    return float(value * 100.0)


def eer(scored: ScoredColumns) -> float:
    """Equal error rate in percent (see module docstring for the convention)."""
    return eer_from_curve(far_frr_curve(scored))


# ---------------------------------------------------------------------------
# Analytical cost accounting.
#
# Conventions (also printed in every report): multiplies and adds counted
# separately; a complex FFT of size n costs 5*n*log2(n); real-input or
# real-output transforms cost half of that; a dense layer in->out costs
# 2*in*out + out; transcendental calls count as one op; root finding for a
# degree-p polynomial counts as 10*p^3. Frame rate is 1/HOP with every
# frame assumed voiced (the worst case), and per-frame harmonic band scans
# are tallied at a nominal 150 Hz f0.

_NOMINAL_F0 = 150.0

CONVENTIONS = (
    "multiplies and adds counted separately",
    "complex FFT(n) = 5*n*log2(n); real-input/output transforms = 2.5*n*log2(n)",
    "dense in->out = 2*in*out + out",
    "transcendental call = 1 op",
    "degree-p root finding = 10*p^3",
    "per-second extraction assumes every frame voiced; band scans at nominal 150 Hz f0",
)


@dataclass(frozen=True)
class CostReport:
    extraction_kind: str
    extraction_params: int
    extraction_flops_per_second: int
    dim_per_utterance: int
    extraction_breakdown: dict[str, int]
    classifier_params: int
    classifier_flops_per_pair: int
    classifier_breakdown: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "conventions": list(CONVENTIONS),
            "extraction": {
                "kind": self.extraction_kind,
                "params": self.extraction_params,
                "flops_per_second_of_audio": self.extraction_flops_per_second,
                "dim_per_utterance": self.dim_per_utterance,
                "breakdown": dict(self.extraction_breakdown),
            },
            "classifier": {
                "params": self.classifier_params,
                "flops_per_pair": self.classifier_flops_per_pair,
                "breakdown": dict(self.classifier_breakdown),
            },
        }

    def format_text(self) -> str:
        lines = [
            f"extraction ({self.extraction_kind}): params={self.extraction_params}, "
            f"flops/s={self.extraction_flops_per_second:,}, dim/utt={self.dim_per_utterance}",
        ]
        for name, flops in self.extraction_breakdown.items():
            lines.append(f"  {name}: {flops:,}")
        lines.append(
            f"classifier: params={self.classifier_params:,}, "
            f"flops/pair={self.classifier_flops_per_pair:,}"
        )
        for name, flops in self.classifier_breakdown.items():
            lines.append(f"  {name}: {flops:,}")
        lines.append("conventions: " + "; ".join(CONVENTIONS))
        return "\n".join(lines)


def _real_fft_flops(n: int) -> int:
    return int(round(2.5 * n * np.log2(n)))


def _dense_flops(n_in: int, n_out: int) -> int:
    return 2 * n_in * n_out + n_out


def _acoustic_breakdown() -> dict[str, int]:
    """Flops per second of audio for each extraction stage.

    pitch_autocorrelation and cepstral_peak count the algorithmic cost of
    their inverse transforms as full real FFTs. Extraction instead forms
    only the lags and quefrencies it reads, as products with cached cosine
    bases (audio.irfft_columns): more multiply-adds (acoustic would read
    about 150 M flops/s, not 45 M), in less time.
    """
    sr = INTERNAL_RATE
    frames = int(round(1.0 / HOP))
    slice_n = int(round(MEASURE_WINDOW * sr))
    slice_fft = next_pow2(4 * slice_n)
    slice_bins = slice_fft // 2 + 1

    config = PitchConfig()
    pitch_n = int(round(config.window * sr))
    lag_max = int(sr / config.floor)
    pitch_fft = next_pow2(pitch_n + lag_max + 2)
    pitch = (
        4 * pitch_n  # mean removal and taper
        + _real_fft_flops(pitch_fft)
        + _real_fft_flops(_LAG_OVERSAMPLE * pitch_fft)
        + 3 * (pitch_fft // 2 + 1)  # squared magnitude
        + 2 * _LAG_OVERSAMPLE * (lag_max + 2)  # lag-domain normalization
        + 3 * _LAG_OVERSAMPLE * lag_max  # peak scan
        + 24  # parabolic refinement and gating
    )

    fo_n = int(round(FORMANT_WINDOW * ANALYSIS_RATE))
    burg_stages = sum(6 * (fo_n - 1 - m) for m in range(LPC_ORDER))
    formants = fo_n + burg_stages + 10 * LPC_ORDER**3 + 6 * LPC_ORDER

    bin_hz = sr / slice_fft
    harmonic_bands = int(5 * (_NOMINAL_F0 / 2.0 / bin_hz)) * 2
    correction = 4 * 4 * 14  # up to 4 harmonics x 4 formants x closed-form term
    shr_bands = int(2 * HARMONIC_COUNT_MAX * (_NOMINAL_F0 / 4.0 / bin_hz)) * 2

    cpp_bins = int(QUEFRENCY_CEILING * sr) + 2
    cpp = 2 * slice_bins + _real_fft_flops(slice_fft) + 4 * cpp_bins + 6 * cpp_bins

    resample_taps = 2 * 10 * 16 + 1  # polyphase kaiser design for 16 k -> 11 k
    per_frame = {
        "pitch_autocorrelation": pitch,
        "slice_spectrum": 2 * slice_n + _real_fft_flops(slice_fft),
        "cepstral_peak": cpp,
        "formant_lpc": formants,
        "harmonic_amplitudes": harmonic_bands + correction,
        "subharmonic_ratio": shr_bands,
        "rms": 3 * slice_n,
    }
    breakdown = {name: flops * frames for name, flops in per_frame.items()}
    breakdown["global_peak_scan"] = 2 * sr
    breakdown["formant_rate_resample"] = int(
        2 * np.ceil(resample_taps / 11) * ANALYSIS_RATE + 2 * ANALYSIS_RATE
    )
    breakdown["pooling"] = 4 * 26 * frames
    return breakdown


def _cepstral_breakdown(kind: str) -> dict[str, int]:
    sr = INTERNAL_RATE
    frames = int(round(1.0 / HOP))
    n = int(round(CEPSTRAL_WINDOW * sr))
    nfft = MEL_FFT if kind == "mfcc" else LINEAR_FFT
    bank = filterbank_matrix(nfft, sr, "mel" if kind == "mfcc" else "linear")
    bins = nfft // 2 + 1
    per_frame = {
        "windowed_spectrum": 2 * n + _real_fft_flops(nfft) + 3 * bins,
        "filterbank": 2 * int(np.count_nonzero(bank)),
        "log_energies": 2 * bank.shape[0],
        "dct": 2 * bank.shape[0] * 13 + 13,
    }
    breakdown = {name: flops * frames for name, flops in per_frame.items()}
    breakdown["pooling"] = 2 * 13 * frames
    return breakdown


def _classifier_breakdown(model: DiffNetModel) -> dict[str, int]:
    d2 = model.input_dim
    h = model.hidden_dim
    n = len(model.descriptors)
    return {
        "z_score_and_clip": 3 * d2,
        "feature_gains": d2,
        "fc1": _dense_flops(d2, h),
        "batch_norm": 4 * h,
        "relu": h,
        "fc2": _dense_flops(h, n),
        "sigmoid": 4 * n,
    }


def cost_report(feature_kind: str, model: DiffNetModel | None = None) -> CostReport:
    """Closed-form operation tallies for extraction and the classifier.

    Nothing is measured: the acoustic tally reads the fixed extraction
    constants and costs the default 75 Hz pitch floor. When no model is
    given a default-shaped one (H=128, 18 descriptors) is costed.
    """
    names = feature_names_for(feature_kind)
    if feature_kind == "acoustic":
        breakdown = _acoustic_breakdown()
    else:
        breakdown = _cepstral_breakdown(feature_kind)
    if model is None:
        model = init_model(names, STANDARD_DESCRIPTORS, TrainConfig(), np.random.default_rng(0))
    classifier_breakdown = _classifier_breakdown(model)

    return CostReport(
        extraction_kind=feature_kind,
        extraction_params=0,
        extraction_flops_per_second=sum(breakdown.values()),
        dim_per_utterance=len(names),
        extraction_breakdown=breakdown,
        classifier_params=model.parameter_count(),
        classifier_flops_per_pair=sum(classifier_breakdown.values()),
        classifier_breakdown=classifier_breakdown,
    )
