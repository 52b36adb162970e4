"""Magnitude-spectrum measures on the 40 ms voiced slice.

Harmonic amplitudes are read off a Hann-windowed, zero-padded spectrum by
peak-picking near multiples of f0, corrected for the gain that vocal-tract
resonances add at those frequencies, and differenced into the four
spectral-shape measures. Amplitudes are dB re full scale; only differences
enter the feature vector, so the reference cancels.

Every measure takes slices as the rows of a [frames x window] matrix (a
1-D slice is a one-row matrix), with one f0 per row and a FormantTrack,
and returns one value per row, NaN where the value is missing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import next_pow2
from .formants import FormantTrack

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


@dataclass(frozen=True)
class TiltMeasures:
    """Corrected harmonic amplitude differences in dB, one per row; NaN where undefined."""

    h1_h2: np.ndarray
    h2_h4: np.ndarray
    h4_h2k: np.ndarray
    h2k_h5k: np.ndarray


def magnitude_spectrum(window_samples: np.ndarray, sample_rate: float) -> Spectrum:
    """Hann-windowed magnitude spectrum of each row, zero-padded to a power of two >= 4x."""
    x = np.atleast_2d(np.asarray(window_samples, dtype=np.float64))
    n = x.shape[1]
    if n == 0:
        raise ValueError("empty window")
    nfft = next_pow2(4 * n)
    mags = np.abs(np.fft.rfft(x * np.hanning(n), nfft))
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
    level is the peak within +-f0/4 of that harmonic, tolerant of small f0
    error while excluding the neighbors. Levels are NaN where the band lies
    beyond Nyquist.
    """
    f0 = f0[:, np.newaxis]
    harmonic = np.maximum(1.0, np.rint(targets / f0)) * f0
    starts = np.searchsorted(spec.frequencies, harmonic - f0 / 4.0, side="left")
    stops = np.searchsorted(spec.frequencies, harmonic + f0 / 4.0, side="right")
    ok = (targets > 0) & (targets < spec.nyquist) & (starts < spec.frequencies.size) & (stops > starts)
    peaks = band_peaks(spec.magnitudes, np.where(ok, starts, 0), np.where(ok, stops, 1))
    return np.where(ok, 20.0 * np.log10(peaks + _DB_GUARD), np.nan), harmonic


def correction_db(freq, formants, sample_rate: float):
    """Total resonance gain (dB) the given formants contribute at `freq`.

    Each formant is modeled as a two-pole resonator; its term is the gain
    at freq relative to the resonator's DC gain. Terms add across formants
    and vanish as the pole radius goes to zero. formants holds (frequency,
    bandwidth) pairs; for an array of freqs it is [freqs x formants x 2],
    where NaN pairs contribute nothing.
    """
    pairs = np.asarray(formants, dtype=np.float64).reshape(*np.shape(freq), -1, 2)
    omega = 2.0 * np.pi * np.asarray(freq, dtype=np.float64)[..., np.newaxis] / sample_rate
    r = np.exp(-np.pi * pairs[..., 1] / sample_rate)
    omega_i = 2.0 * np.pi * pairs[..., 0] / sample_rate
    num = (1.0 - 2.0 * r * np.cos(omega_i) + r * r) ** 2
    den = (1.0 - 2.0 * r * np.cos(omega + omega_i) + r * r) * (
        1.0 - 2.0 * r * np.cos(omega - omega_i) + r * r
    )
    return np.nansum(10.0 * np.log10(num / den), axis=-1)


def _formant_pairs(formants: FormantTrack) -> np.ndarray:
    """[rows x K x 2] (frequency, bandwidth) pairs, NaN-padded to K >= 2."""
    pairs = np.stack([formants.frequencies, formants.bandwidths], axis=-1)
    return np.pad(pairs, ((0, 0), (0, max(0, 2 - pairs.shape[1])), (0, 0)), constant_values=np.nan)


def tilt_measures(spec: Spectrum, f0, formants: FormantTrack) -> TiltMeasures:
    """The four spectral-shape differences of each voiced slice (row).

    H1, H2, H4 sit at harmonics 1, 2, 4; H2kHz and H5kHz at the harmonics
    nearest 2 and 5 kHz. All but H5kHz have the formant gain at their
    frequency removed ("starred" values: H1/H2/H4 with F1 and F2, H2kHz
    with every detected formant). Any missing constituent makes the
    affected difference NaN.
    """
    fs = spec.sample_rate
    f0 = np.atleast_1d(np.asarray(f0, dtype=np.float64))
    targets = np.column_stack([f0, 2 * f0, 4 * f0, np.full_like(f0, 2000.0), np.full_like(f0, 5000.0)])
    raw, snapped = harmonic_levels(spec, targets, f0)

    pairs = _formant_pairs(formants)
    first_two = pairs[:, :2]
    h1, h2, h4 = (raw[:, i] - correction_db(snapped[:, i], first_two, fs) for i in range(3))
    h2k = raw[:, 3] - correction_db(snapped[:, 3], pairs, fs)
    h5k = raw[:, 4]  # uncorrected by convention
    diffs = np.column_stack([h1 - h2, h2 - h4, h4 - h2k, h2k - h5k])
    diffs[np.isnan(pairs[:, 1, 0])] = np.nan  # F1 or F2 missing
    return TiltMeasures(*diffs.T)


def rms_energy(window_samples: np.ndarray):
    """Root mean square of each row of raw slices, no taper."""
    x = np.atleast_2d(np.asarray(window_samples, dtype=np.float64))
    if x.shape[1] == 0:
        raise ValueError("empty window")
    return np.sqrt(np.mean(x * x, axis=1))
