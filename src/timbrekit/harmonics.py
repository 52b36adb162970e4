"""Magnitude-spectrum measures on the 40 ms voiced slice.

Harmonic amplitudes are read off a Hann-windowed, zero-padded spectrum by
peak-picking near multiples of f0, corrected for the gain that vocal-tract
resonances add at those frequencies, and differenced into the four
spectral-shape measures. Amplitudes are dB re full scale; only differences
enter the feature vector, so the reference cancels.

Every measure takes slices as the rows of a [frames x window] matrix (a
1-D slice is a one-row matrix), with one f0 per row and the formant
frequencies and bandwidths as [rows x K] arrays, and returns one value per
row (tilt_measures one row of TILT_NAMES columns), NaN where a value is
missing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import hann_magnitudes, next_pow2

# Column order of tilt_measures; features.MEASURE_NAMES splices it in.
TILT_NAMES = ("h1_h2", "h2_h4", "h4_h2k", "h2k_h5k")
# The levels the tilt measures difference: harmonics 1, 2 and 4 of f0, then
# the harmonics nearest 2 and 5 kHz, each the peak within +-HARMONIC_HALF_BAND
# times f0 of its harmonic.
TILT_HARMONICS = (1, 2, 4)
TILT_FIXED_HZ = (2000.0, 5000.0)
HARMONIC_HALF_BAND = 0.25
# H1, H2 and H4 are corrected for the gain of this many lowest formants (F1
# and F2); H2kHz for every formant tracked.
TILT_CORRECTION_FORMANTS = 2

_DB_GUARD = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """One-sided linear magnitude spectra, [slices x bins]."""

    frequencies: np.ndarray
    magnitudes: np.ndarray
    sample_rate: float

    @property
    def fft_size(self) -> int:
        return 2 * (self.magnitudes.shape[1] - 1)

    @property
    def nyquist(self) -> float:
        return self.sample_rate / 2.0


def padded_fft_size(n: int) -> int:
    """The transform size of an n-sample slice: the smallest power of two >= 4n."""
    return next_pow2(4 * n)


def magnitude_spectrum(window_samples: np.ndarray, sample_rate: float) -> Spectrum:
    """Hann-windowed magnitude spectrum of each row, zero-padded to padded_fft_size."""
    x = np.atleast_2d(np.asarray(window_samples, dtype=np.float64))
    n = x.shape[1]
    if n == 0:
        raise ValueError("empty window")
    nfft = padded_fft_size(n)
    mags = hann_magnitudes(x, nfft)
    freqs = np.fft.rfftfreq(nfft, 1.0 / sample_rate)
    return Spectrum(freqs, mags, float(sample_rate))


def band_peaks(magnitudes: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Largest magnitude of each row over bins [starts, stops), stops > starts.

    magnitudes is [rows x bins]; starts and stops are [rows x bands].
    """
    width = int(np.max(stops - starts, initial=1))
    idx = starts[..., np.newaxis] + np.arange(width)
    rows = np.arange(magnitudes.shape[0])[:, np.newaxis, np.newaxis]
    values = magnitudes[rows, np.minimum(idx, magnitudes.shape[-1] - 1)]
    return np.max(np.where(idx < stops[..., np.newaxis], values, -np.inf), axis=-1)


def harmonic_levels(spec: Spectrum, targets: np.ndarray, f0: np.ndarray):
    """(peak dB, snapped harmonic) for [rows x bands] targets and one f0 per row.

    Each target snaps to the nearest harmonic of its row's f0, and the
    level is the peak within +-HARMONIC_HALF_BAND * f0 of that harmonic,
    tolerant of small f0 error while excluding the neighbors. Levels are
    NaN where the band lies beyond Nyquist.
    """
    f0 = f0[:, np.newaxis]
    harmonic = np.maximum(1.0, np.rint(targets / f0)) * f0
    half_band = f0 * HARMONIC_HALF_BAND
    starts = np.searchsorted(spec.frequencies, harmonic - half_band, side="left")
    stops = np.searchsorted(spec.frequencies, harmonic + half_band, side="right")
    ok = (targets > 0) & (targets < spec.nyquist) & (starts < spec.frequencies.size) & (stops > starts)
    peaks = band_peaks(spec.magnitudes, np.where(ok, starts, 0), np.where(ok, stops, 1))
    return np.where(ok, 20.0 * np.log10(peaks + _DB_GUARD), np.nan), harmonic


def correction_db(freq, frequencies, bandwidths, sample_rate: float):
    """Total resonance gain (dB) the formants of each row contribute at its `freq`.

    Each formant is modeled as a two-pole resonator; its term is the gain
    at freq relative to the resonator's DC gain. Terms add across formants
    and vanish as the pole radius goes to zero. freq holds one frequency per
    row; frequencies and bandwidths are [rows x K], and NaN formants
    contribute nothing.
    """
    omega = 2.0 * np.pi * freq[:, np.newaxis] / sample_rate
    r = np.exp(-np.pi * bandwidths / sample_rate)
    omega_i = 2.0 * np.pi * frequencies / sample_rate
    num = (1.0 - 2.0 * r * np.cos(omega_i) + r * r) ** 2
    den = (1.0 - 2.0 * r * np.cos(omega + omega_i) + r * r) * (
        1.0 - 2.0 * r * np.cos(omega - omega_i) + r * r
    )
    return np.nansum(10.0 * np.log10(num / den), axis=-1)


def tilt_measures(spec: Spectrum, f0, frequencies: np.ndarray, bandwidths: np.ndarray) -> np.ndarray:
    """[rows x 4] spectral-shape differences in TILT_NAMES order, one row per voiced slice.

    H1, H2, H4 sit at TILT_HARMONICS 1, 2, 4; H2kHz and H5kHz at the
    harmonics nearest TILT_FIXED_HZ, 2 and 5 kHz. All but H5kHz have the
    formant gain at their frequency removed ("starred" values: H1/H2/H4
    with the first TILT_CORRECTION_FORMANTS formants, F1 and F2, H2kHz
    with every detected formant). frequencies and bandwidths are the
    [rows x K] formant arrays, K >= TILT_CORRECTION_FORMANTS. A missing F1
    or F2 blanks all four columns of its row, h2k_h5k included; any other
    missing constituent makes the affected difference NaN.
    """
    fs = spec.sample_rate
    f0 = np.atleast_1d(np.asarray(f0, dtype=np.float64))
    targets = np.column_stack([*(k * f0 for k in TILT_HARMONICS),
                               *(np.full_like(f0, hz) for hz in TILT_FIXED_HZ)])
    levels, snapped = harmonic_levels(spec, targets, f0)

    f_low, b_low = frequencies[:, :TILT_CORRECTION_FORMANTS], bandwidths[:, :TILT_CORRECTION_FORMANTS]
    h2k = len(TILT_HARMONICS)  # the level after the harmonics of f0
    for i in range(h2k):
        levels[:, i] -= correction_db(snapped[:, i], f_low, b_low, fs)
    levels[:, h2k] -= correction_db(snapped[:, h2k], frequencies, bandwidths, fs)
    # H5kHz, the last level, stays uncorrected by convention.
    diffs = levels[:, :-1] - levels[:, 1:]
    diffs[np.isnan(f_low).any(axis=1)] = np.nan  # a correcting formant is missing
    return diffs


def rms_energy(window_samples: np.ndarray):
    """Root mean square of each row of raw slices, no taper."""
    x = np.atleast_2d(np.asarray(window_samples, dtype=np.float64))
    if x.shape[1] == 0:
        raise ValueError("empty window")
    return np.sqrt(np.mean(x * x, axis=1))
