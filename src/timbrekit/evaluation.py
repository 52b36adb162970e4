"""Accuracy, equal error rate, and the analytical FLOPs/parameter report.

EER convention: the second utterance being stronger is the positive class
and the score is its detection statistic. False-accept and false-reject
rates are swept over every distinct score; the EER is read off at their
crossing with linear interpolation between the two adjacent operating
points (the interpolation runs in rate space, so any strictly increasing
rescoring leaves the result untouched).

Cost: the curve is one stable sort of the N scores plus one cumulative
count of the positives, O(N log N); the EER reads one curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .audio import HOP, INTERNAL_RATE, filter_reach, window_samples
from .diffnet import DECISION_THRESHOLD, DiffNetModel, STANDARD_DESCRIPTORS, TrainConfig, init_model
from .features import (
    CEPSTRAL_KINDS, CEPSTRAL_NAMES, CEPSTRAL_WINDOW, FEATURE_NAMES, MEASURE_WINDOW, SchemaError,
    feature_names_for, filterbank_matrix,
)
from .formants import ANALYSIS_RATE, LPC_ORDER, MAX_FORMANTS, WINDOW_SAMPLES as FORMANT_WINDOW_SAMPLES
from .harmonics import (
    HARMONIC_HALF_BAND, TILT_CORRECTION_FORMANTS, TILT_FIXED_HZ, TILT_HARMONICS, padded_fft_size,
)
from .noise_metrics import HARMONIC_COUNT_MAX, QUEFRENCY_CEILING, SHR_HALF_BAND
from .pitch import LAG_OVERSAMPLE, PitchConfig, acf_fft_size


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
    """Percent of pairs whose score, thresholded at DECISION_THRESHOLD, matches the label.

    Scores at or above the threshold predict the second utterance as
    stronger (ties go to B).
    """
    if not scored:
        raise ValueError("no scored pairs")
    return float(np.mean((scored.scores >= DECISION_THRESHOLD) == scored.positive) * 100.0)


def far_frr_curve(scored: ScoredColumns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(thresholds, false-accept rates, false-reject rates) at each distinct score, as arrays.

    A score is read at its first rank in one stable sort, after every pair
    scoring below it. A final sentinel one above the top score has FAR 0, FRR 1.
    """
    scores, positive = scored.scores, scored.positive
    if not positive.any() or positive.all():
        raise ValueError("both label classes are required")
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    # Each distinct score's first rank, then the sentinel's rank n, and the positives ranked before it.
    first = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1], [True])))
    pos_before = np.concatenate(([0], np.cumsum(positive[order])))[first]
    n_pos, n_neg = pos_before[-1], ranked.size - pos_before[-1]
    # Rates are integer counts over the class size: neg >= t accepts, pos < t rejects.
    far = (n_neg - (first - pos_before)) / n_neg
    return np.append(ranked[first[:-1]], ranked[-1] + 1.0), far, pos_before / n_pos


def eer_from_curve(far: np.ndarray, frr: np.ndarray) -> float:
    """Equal error rate in percent at the crossing of a far_frr_curve's rates.

    The rates must be far_frr_curve's: their first point, at the lowest score,
    has FAR 1 and FRR 0, and its last is the FAR 0, FRR 1 sentinel. FAR - FRR
    falls monotonically from +1 to -1, so it first reaches 0 or below at a
    point past the first, and the crossing lies between that point and the
    one before, where it is still positive.
    """
    diff = far - frr
    cross = int(np.argmax(diff <= 0.0))
    d0, d1 = diff[cross - 1], diff[cross]
    alpha = d0 / (d0 - d1)
    value = far[cross - 1] + alpha * (far[cross] - far[cross - 1])
    return float(value * 100.0)


def eer(scored: ScoredColumns) -> float:
    """Equal error rate in percent (see module docstring for the convention)."""
    _, far, frr = far_frr_curve(scored)
    return eer_from_curve(far, frr)


# ---------------------------------------------------------------------------
# Analytical cost accounting.

_NOMINAL_F0 = 150.0
# The resonance-correction terms of a frame: H1, H2 and H4 each take the
# TILT_CORRECTION_FORMANTS lowest formants, H2kHz every one of MAX_FORMANTS.
_CORRECTION_TERMS = len(TILT_HARMONICS) * TILT_CORRECTION_FORMANTS + MAX_FORMANTS

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

    Every size, tap count and correction-term count is read from the stage
    that uses it; only the operation counts per sample, bin, tap or term
    are the tally's own.

    pitch_autocorrelation counts what runs: the nfft-point spectrum, then
    one nfft-point inverse FFT of a phase-shifted copy of it for each of
    three lag phases (pitch._oversampled).
    cepstral_peak counts its inverse transform as a full real FFT;
    extraction instead forms only the quefrencies CPP reads, as folded
    cosine products (audio.irfft_columns): more multiply-adds (acoustic
    would read about 80 M flops/s, not 41 M), in less time.
    """
    sr = INTERNAL_RATE
    frames = int(round(1.0 / HOP))
    slice_n = window_samples(MEASURE_WINDOW, sr)
    slice_fft = padded_fft_size(slice_n)
    slice_bins = slice_fft // 2 + 1

    config = PitchConfig()
    pitch_n = window_samples(config.window, sr)
    _, lag_max = config.lag_range(sr)
    pitch_fft = acf_fft_size(pitch_n, lag_max)
    pitch_bins = pitch_fft // 2 + 1
    pitch = (
        4 * pitch_n  # mean removal and taper
        + _real_fft_flops(pitch_fft)
        + 3 * pitch_bins  # squared magnitude
        + 2 * pitch_bins  # lag-0 ACF
        + (LAG_OVERSAMPLE - 1) * (2 * pitch_bins + _real_fft_flops(pitch_fft))  # the phase shifts and their inverse FFTs
        + 2 * LAG_OVERSAMPLE * (lag_max + 2)  # lag-domain normalization
        + 3 * LAG_OVERSAMPLE * lag_max  # peak scan
        + 24  # parabolic refinement and gating
    )

    fo_n = FORMANT_WINDOW_SAMPLES
    burg_stages = sum(6 * (fo_n - 1 - m) for m in range(LPC_ORDER))
    formants = fo_n + burg_stages + 10 * LPC_ORDER**3 + 6 * LPC_ORDER

    bin_hz = sr / slice_fft
    tilt_levels = len(TILT_HARMONICS) + len(TILT_FIXED_HZ)
    harmonic_bands = int(tilt_levels * (2 * HARMONIC_HALF_BAND * _NOMINAL_F0 / bin_hz)) * 2
    shr_bands = int(2 * HARMONIC_COUNT_MAX * (2 * SHR_HALF_BAND * _NOMINAL_F0 / bin_hz)) * 2

    cpp_bins = int(QUEFRENCY_CEILING * sr) + 2
    cpp = 2 * slice_bins + _real_fft_flops(slice_fft) + 4 * cpp_bins + 6 * cpp_bins

    per_frame = {
        "pitch_autocorrelation": pitch,
        "slice_spectrum": 2 * slice_n + _real_fft_flops(slice_fft),
        "cepstral_peak": cpp,
        "formant_lpc": formants,
        "harmonic_amplitudes": harmonic_bands + 14 * _CORRECTION_TERMS,  # 14 per closed-form term
        "subharmonic_ratio": shr_bands,
        "rms": 3 * slice_n,
    }
    breakdown = {name: flops * frames for name, flops in per_frame.items()}
    breakdown["global_peak_scan"] = 2 * sr
    up, down = Fraction(ANALYSIS_RATE, sr).as_integer_ratio()
    breakdown["formant_rate_resample"] = (2 * (2 * filter_reach(up, down) + 1) + 2) * ANALYSIS_RATE
    breakdown["pooling"] = 4 * len(FEATURE_NAMES) * frames
    return breakdown


def _cepstral_breakdown(scale: str, nfft: int) -> dict[str, int]:
    sr = INTERNAL_RATE
    frames = int(round(1.0 / HOP))
    n = window_samples(CEPSTRAL_WINDOW, sr)
    bank = filterbank_matrix(nfft, sr, scale)
    bins = nfft // 2 + 1
    per_frame = {
        "windowed_spectrum": 2 * n + _real_fft_flops(nfft) + 3 * bins,
        "filterbank": 2 * int(np.count_nonzero(bank)),
        "log_energies": 2 * bank.shape[0],
        "dct": 2 * bank.shape[0] * len(CEPSTRAL_NAMES) + len(CEPSTRAL_NAMES),
    }
    breakdown = {name: flops * frames for name, flops in per_frame.items()}
    breakdown["pooling"] = 2 * len(CEPSTRAL_NAMES) * frames
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
    given a default-shaped one (H=128, 18 descriptors) is costed. A given
    model must read the kind's feature names, or SchemaError is raised;
    mfcc and lfc share CEPSTRAL_NAMES, so a model of one passes as the other.
    """
    names = feature_names_for(feature_kind)
    if model is not None and model.feature_names != names:
        raise SchemaError(f"the model reads {len(model.feature_names)} features, "
                          f"not the {len(names)} {feature_kind} feature names")
    if feature_kind in CEPSTRAL_KINDS:
        breakdown = _cepstral_breakdown(*CEPSTRAL_KINDS[feature_kind])
    else:
        breakdown = _acoustic_breakdown()
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
