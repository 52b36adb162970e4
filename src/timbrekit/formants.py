"""Formant estimation: Burg LPC, root-to-resonance conversion, dispersion.

Each utterance is resampled once to twice the formant ceiling so that the
LPC search band spans exactly the analysis Nyquist range, then analyzed
with a pre-emphasized, Gaussian-tapered 25 ms window, a block of frames
at a time.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer, frame_blocks, resample, window_samples


# The fixed analysis: up to five resonances below a 5500 Hz ceiling, each
# narrower than 700 Hz, from an order-10 Burg fit of 25 ms windows
# pre-emphasized from 50 Hz, at twice the ceiling.
MAX_FORMANTS = 5
CEILING = 5500.0
PRE_EMPHASIS_FROM = 50.0
MAX_BANDWIDTH = 700.0
WINDOW = 0.025
LPC_ORDER = 2 * MAX_FORMANTS
ANALYSIS_RATE = int(round(2.0 * CEILING))
# Samples in each analysis window, as frame_blocks cuts it, and the
# exp(-12 x^2) taper of every window, rescaled to hit zero at the edges.
WINDOW_SAMPLES = window_samples(WINDOW, ANALYSIS_RATE)
_OFFSETS = (np.arange(WINDOW_SAMPLES) + 0.5) / WINDOW_SAMPLES - 0.5  # in window lengths
_TAPER = (np.exp(-12.0 * _OFFSETS * _OFFSETS) - np.exp(-12.0)) / (1.0 - np.exp(-12.0))
_TAPER.setflags(write=False)


@dataclass(frozen=True, eq=False)
class FormantTrack(Sequence):
    """Per-frame resonances as [frames x max_formants] arrays.

    Row i holds frame i's formants in ascending frequency order, NaN past
    the last one found. An int index yields that frame's found formants as
    a [k x 2] array of (frequency, bandwidth) rows; another index is a
    TypeError.
    """

    frequencies: np.ndarray
    bandwidths: np.ndarray

    def __len__(self) -> int:
        return self.frequencies.shape[0]

    def __getitem__(self, index: int) -> np.ndarray:
        index = operator.index(index)
        freqs, bws = self.frequencies[index], self.bandwidths[index]
        found = np.isfinite(freqs)
        return np.column_stack([freqs[found], bws[found]])


def burg(window_samples: np.ndarray, order: int) -> np.ndarray:
    """Burg's method: LPC coefficients a_1..a_p of the all-pole model.

    Minimizes the summed forward and backward prediction error. The
    reflection coefficients are bounded by 1 in magnitude (Cauchy-Schwarz),
    so the model polynomial 1 + sum a_k z^-k is minimum phase.

    The rows of a [frames x n] matrix (a 1-D window is one row) are fitted
    in one pass and give a [frames x order] array. Rows with no signal
    energy or with non-finite samples read NaN.
    """
    frames = np.atleast_2d(np.asarray(window_samples, dtype=np.float64))
    n = frames.shape[1]
    if n <= order:
        raise ValueError(f"window of {n} samples cannot support order {order}")
    usable = np.all(np.isfinite(frames), axis=1) & np.any(frames, axis=1)
    frames = np.where(usable[:, np.newaxis], frames, 0.0)

    rows = frames.shape[0]
    a = np.zeros((rows, order + 1))
    a[:, 0] = 1.0
    # Stage-m errors are kept aligned so f[:, i] pairs with b[:, i].
    f = frames[:, 1:]
    b = frames[:, :-1]
    for m in range(1, order + 1):
        den = np.einsum("ij,ij->i", f, f) + np.einsum("ij,ij->i", b, b)
        # Exhausted residual energy leaves k = 0, so the remaining
        # coefficients of that row stay as they are.
        live = den > 0
        k = np.where(live, -2.0 * np.einsum("ij,ij->i", f, b) / np.where(live, den, 1.0), 0.0)
        a[:, 1 : m + 1] = a[:, 1 : m + 1] + k[:, np.newaxis] * a[:, m - 1 :: -1]
        if m < order:
            f, b = f[:, 1:] + k[:, np.newaxis] * b[:, 1:], b[:, :-1] + k[:, np.newaxis] * f[:, :-1]
    a[~usable] = np.nan
    return a[:, 1:]


def roots_to_formants(lpc: np.ndarray, analysis_rate: float) -> FormantTrack:
    """Map LPC polynomial roots to (frequency, bandwidth) resonances.

    A root r*exp(i*theta) with theta in (0, pi) becomes frequency
    theta*rate/(2*pi) and bandwidth -ln(r)*rate/pi. Roots outside
    (50 Hz, CEILING - 50 Hz) or broader than MAX_BANDWIDTH are dropped,
    and the lowest MAX_FORMANTS of the rest are kept.

    A [frames x order] matrix (a 1-D coefficient vector is one row) gives
    a FormantTrack, with the roots of every row from one batched
    eigenvalue call on the stacked companion matrices; non-finite rows
    read as empty frames.
    """
    coeffs = np.atleast_2d(np.asarray(lpc, dtype=np.float64))
    finite = np.all(np.isfinite(coeffs), axis=1)
    rows, order = coeffs.shape
    companion = np.zeros((rows, order, order))
    companion[:, 0, :] = -np.where(finite[:, np.newaxis], coeffs, 0.0)
    companion[:, np.arange(1, order), np.arange(order - 1)] = 1.0
    roots = np.linalg.eigvals(companion)

    radius = np.abs(roots)
    with np.errstate(divide="ignore"):
        freq = np.angle(roots) * analysis_rate / (2.0 * np.pi)
        bandwidth = -np.log(radius) * analysis_rate / np.pi
    keep = (
        finite[:, np.newaxis]
        & (roots.imag > 0)
        & (radius > 0)
        & (radius < 1)
        & (freq > 50.0)
        & (freq < CEILING - 50.0)
        & (bandwidth > 0)
        & (bandwidth < MAX_BANDWIDTH)
    )
    freq = np.where(keep, freq, np.inf)
    ranked = np.argsort(freq, axis=1, kind="stable")[:, :MAX_FORMANTS]
    freq = np.take_along_axis(freq, ranked, axis=1)
    bandwidth = np.take_along_axis(bandwidth, ranked, axis=1)
    bandwidth[np.isinf(freq)] = np.nan
    freq[np.isinf(freq)] = np.nan
    # A repeated frequency cannot form a strictly ascending frame.
    repeated = np.any(np.diff(freq, axis=1) <= 0, axis=1)
    freq[repeated] = np.nan
    bandwidth[repeated] = np.nan
    return FormantTrack(freq, bandwidth)


def formant_track(buf: AudioBuffer, centers) -> FormantTrack:
    """Per-frame formants of the 25 ms windows centred at `centers` (s), one row per centre.

    The buffer is resampled to ANALYSIS_RATE and pre-emphasized, and each
    Gaussian-tapered window gets an order-LPC_ORDER Burg fit whose roots
    give up to MAX_FORMANTS resonances. Frames whose window falls outside
    the buffer, or where the LPC fit degenerates, are empty (all-NaN rows)
    rather than failing.
    """
    work = resample(buf, ANALYSIS_RATE)
    rate = work.sample_rate
    alpha = np.exp(-2.0 * np.pi * PRE_EMPHASIS_FROM / rate)
    emphasized = np.empty_like(work.samples)
    emphasized[0] = work.samples[0]
    emphasized[1:] = work.samples[1:] - alpha * work.samples[:-1]

    shape = (len(centers), MAX_FORMANTS)
    frequencies, bandwidths = np.full(shape, np.nan), np.full(shape, np.nan)
    for rows, frames in frame_blocks(emphasized, rate, centers, WINDOW):
        lpc = burg(frames * _TAPER, LPC_ORDER)
        found = roots_to_formants(lpc, rate)
        frequencies[rows] = found.frequencies
        bandwidths[rows] = found.bandwidths
    return FormantTrack(frequencies, bandwidths)


def dispersion(f1, f4):
    """Average spacing (f4 - f1)/3 per frame; NaN wherever F1 or F4 is NaN."""
    return (f4 - f1) / 3.0
