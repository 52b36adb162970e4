"""Inharmonic source metrics: cepstral peak prominence and the
subharmonic-to-harmonic ratio.

Both operate on the same Hann-windowed slice spectrum the tilt measures
use, so an extraction pass computes that spectrum once per frame. Both
take a spectrum with one row per slice (and one f0 per row) and return
one value per row, NaN where the value is missing.
"""

from __future__ import annotations

import numpy as np

from .audio import irfft_columns, parabolic_peak, row_chunks
from .harmonics import Spectrum, band_peaks

# Spectral floor relative to the peak bin before taking logs. A relative
# (not absolute) floor keeps CPP exactly invariant to amplitude scaling.
_REL_SPECTRAL_FLOOR = 1e-6
_LOG_GUARD = 1e-30

# CPP searches quefrencies 1/500 to 1/60 s (f0 of 60 to 500 Hz) for its peak
# and fits the trend line from 1 ms up; SHR sums up to 10 harmonics, each
# the peak within SHR_HALF_BAND f0s of its frequency, and reads no lower
# than -30 dB.
QUEFRENCY_FLOOR = 1.0 / 500.0
QUEFRENCY_CEILING = 1.0 / 60.0
TREND_FLOOR = 0.001
HARMONIC_COUNT_MAX = 10
SHR_HALF_BAND = 0.125
SHR_FLOOR_DB = -30.0


def cpp_from_spectrum(spec: Spectrum):
    """Cepstral peak prominence (dB) of each row of a slice spectrum.

    The dB power spectrum is inverse-transformed; the cepstrum is scanned
    for its peak over [QUEFRENCY_FLOOR, QUEFRENCY_CEILING], the peak is
    refined by 3-point parabolic interpolation, and a least-squares line
    fitted over [TREND_FLOOR, QUEFRENCY_CEILING] is subtracted at the peak
    quefrency. An all-zero row reads NaN.

    The cepstrum is real and even, so irfft_columns forms only the
    quefrency bins read here, a row_chunks chunk at a time, with no
    whole-block copy of the spectrum. Quefrency 0 soaks up the overall
    signal level, so everything past it is exactly invariant to amplitude
    scaling.
    """
    lo = int(np.ceil(QUEFRENCY_FLOOR * spec.sample_rate))
    hi = min(int(np.floor(QUEFRENCY_CEILING * spec.sample_rate)), spec.fft_size // 2 - 2)
    if hi <= lo or lo < 2:
        raise ValueError("quefrency search range is empty at this sample rate")
    t0 = max(2, int(np.ceil(TREND_FLOOR * spec.sample_rate)))
    # Column j of cep_db is quefrency bin first + j: the trend reads t0..hi
    # and the peak search lo - 1..hi + 1.
    first = min(t0, lo - 1)
    mags = spec.magnitudes
    peak = np.max(mags, axis=1, keepdims=True)
    silent = peak[:, 0] <= 0
    floor = np.where(silent[:, np.newaxis], 1.0, peak) * _REL_SPECTRAL_FLOOR
    cep_db = np.empty((mags.shape[0], hi + 2 - first))
    # A chunk's complex array is irfft_columns' half-length real FFT, n / 4 + 1 bins.
    for rows in row_chunks(mags.shape[0], 16 * (spec.fft_size // 4 + 1)):
        level = np.maximum(mags[rows], floor[rows])
        np.log10(level, out=level)  # the dB spectrum over 20; the cepstrum takes the 20 back
        irfft_columns(level, spec.fft_size, first, cep_db[rows])
    cep_db = 20.0 * np.log10(20.0 * np.abs(cep_db) + _LOG_GUARD)
    cep_db[silent] = np.nan
    i = lo - first + np.argmax(cep_db[:, lo - first : hi - first + 1], axis=1)
    pos, peak_db = parabolic_peak(cep_db, np.arange(cep_db.shape[0]), i)
    peak_q = (pos + first) / spec.sample_rate

    quefrency = np.arange(t0, hi + 1) / spec.sample_rate
    values = cep_db[:, t0 - first : hi + 1 - first]
    q_mean = quefrency.mean()
    q_centered = quefrency - q_mean
    v_mean = values.mean(axis=1)
    slope = np.einsum("rq,q->r", values - v_mean[:, np.newaxis], q_centered) / np.einsum("q,q->", q_centered, q_centered)
    intercept = v_mean - slope * q_mean
    return peak_db - (slope * peak_q + intercept)


def shr(spec: Spectrum, f0):
    """Subharmonic-to-harmonic ratio in dB, clamped at SHR_FLOOR_DB.

    Sums the peak magnitude within +-SHR_HALF_BAND * f0 of each harmonic
    k*f0 and of each half-integer multiple (k - 1/2)*f0, k = 1..K, with K
    capped both by HARMONIC_COUNT_MAX and by Nyquist. Rows with fewer than two
    harmonics below Nyquist read NaN.
    """
    f0 = np.atleast_1d(np.asarray(f0, dtype=np.float64))
    if np.any(f0 <= 0):
        raise ValueError("f0 must be positive")
    count = np.minimum(HARMONIC_COUNT_MAX, np.floor(spec.nyquist / f0))

    k = np.arange(1, HARMONIC_COUNT_MAX + 1)
    f0 = f0[:, np.newaxis]
    centers = np.concatenate([k * f0, (k - 0.5) * f0], axis=1)
    half_band = f0 * SHR_HALF_BAND
    starts = np.searchsorted(spec.frequencies, centers - half_band, side="left")
    stops = np.maximum(
        np.searchsorted(spec.frequencies, centers + half_band, side="right"), starts + 1
    )
    peaks = np.where(np.tile(k <= count[:, np.newaxis], 2), band_peaks(spec.magnitudes, starts, stops), 0.0)
    harmonic_sum, subharmonic_sum = np.split(peaks, 2, axis=1)
    ratio_db = 20.0 * np.log10(
        (subharmonic_sum.sum(axis=1) + _LOG_GUARD) / (harmonic_sum.sum(axis=1) + _LOG_GUARD)
    )
    return np.where(count >= 2, np.maximum(ratio_db, SHR_FLOOR_DB), np.nan)
