"""Fundamental frequency estimation and the voiced/unvoiced gate.

The estimator is a frame-local normalized autocorrelation (Boersma 1993,
"Accurate short-term analysis of the fundamental frequency and the
harmonics-to-noise ratio of a sampled sound"): the ACF of the
mean-subtracted, Hann-tapered frame is divided (in the lag domain) by the
ACF of the taper itself, which undoes the taper's own decay and leaves an
estimate of the signal's true periodicity in [0, 1]. Both ACFs are the
inverse transform of a power spectrum on a 4x oversampled lag grid; the
frame's is taken as three inverse FFTs of its own transform size, one per
lag phase, with no BLAS call, so its bits do not depend on the BLAS
thread count. There is no cross-frame path search; each frame picks its
own best lag.

frame_pitch takes frames as the rows of a [frames x window] matrix and
returns one f0 per row, NaN where unvoiced; pitch_track feeds it the
utterance a block of frames at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio import (
    HOP,
    INTERNAL_RATE,
    AudioBuffer,
    frame_blocks,
    frame_times,
    hann_magnitudes,
    next_pow2,
    parabolic_peak,
    row_chunks,
)

# Peaks within this normalized-strength margin of the best one count as
# ties, and the shortest lag among them wins. Without this, a perfectly
# periodic signal (ACF ~1 at every multiple of the period) would pick the
# period or an octave below it at the mercy of interpolation noise; the
# margin also decides how much subharmonic (period-doubling) energy it
# takes before the tracker accepts the doubled period as the pitch.
_SHORT_LAG_MARGIN = 0.08

# The tracker's window in periods of the floor; the window must span the hop.
_WINDOW_PERIODS = 3.0


@dataclass(frozen=True)
class PitchConfig:
    """Tracker settings; the analysis window spans three periods of the floor."""

    floor: float = 75.0
    ceiling: float = 600.0
    voicing_threshold: float = 0.45
    silence_threshold: float = 0.03

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        if not 0 < self.floor < self.ceiling:
            raise ValueError("need 0 < floor < ceiling")
        if self.window < HOP:
            raise ValueError(f"floor {self.floor:g} Hz is above {_WINDOW_PERIODS / HOP:g} Hz: its "
                             f"{_WINDOW_PERIODS:g}-period window is under the {HOP * 1000:g} ms hop")
        shortest, longest = self.lag_range(INTERNAL_RATE)
        if shortest > longest:
            raise ValueError(f"floor {self.floor:g} Hz and ceiling {self.ceiling:g} Hz leave no lag to search "
                             f"at {INTERNAL_RATE} Hz: the shortest, {shortest} samples, is above the longest, {longest}")
        if not 0 <= self.voicing_threshold <= 1:
            raise ValueError("voicing_threshold must be in [0, 1]")
        if self.silence_threshold < 0:
            raise ValueError("silence_threshold must be nonnegative")

    @property
    def window(self) -> float:
        """The analysis window in seconds: three periods of the floor."""
        return _WINDOW_PERIODS / self.floor

    def lag_range(self, sample_rate: float) -> tuple[int, int]:
        """(shortest, longest) lag in samples the peak search reads: the ceiling's and the floor's periods."""
        return max(2, int(np.ceil(sample_rate / self.ceiling))), int(np.floor(sample_rate / self.floor))


@dataclass(frozen=True)
class PitchTrack:
    """Per-frame f0 (NaN where unvoiced) and periodicity strength in [0, 1]."""

    times: np.ndarray
    f0: np.ndarray
    strength: np.ndarray

    @property
    def voiced(self) -> np.ndarray:
        return np.isfinite(self.f0)

    @property
    def voiced_count(self) -> int:
        return int(self.voiced.sum())


# The ACF is evaluated on a lag grid this many times finer than the sample
# grid (by zero-padding the power spectrum before the inverse transform,
# i.e. band-limited interpolation). Peaks of strongly harmonic signals are
# only a couple of samples wide, and a 3-point parabola on the raw sample
# grid undervalues any period that falls between samples.
LAG_OVERSAMPLE = 4


def acf_fft_size(n: int, lag_max: int) -> int:
    """ACF transform size of an n-sample frame: a power of two >= n + lag_max + 2, so no lag read wraps."""
    return next_pow2(n + lag_max + 2)


@lru_cache(maxsize=8)
def _phase_shifts(nfft: int) -> np.ndarray:
    """[3 x (nfft // 2 + 1)] factors that turn a power spectrum into the spectra of lag phases 0, 1 and 2.

    The oversampled ACF at lag 4 tau + d is sum_k c_k p_k cos(w_k tau +
    w_k d / 4) / (4 nfft), with w_k = 2 pi k / nfft, c_0 = 1 and c_k = 2
    otherwise: the nfft-point inverse FFT of p_k exp(i w_k d / 4) / 4, at
    tau. np.fft.irfft weighs the Nyquist bin once and takes it as real, so
    that bin's factor is 2 cos(pi d / 4) / 4.
    """
    k = np.arange(nfft // 2 + 1)
    shifts = np.exp(2j * np.pi * np.multiply.outer(np.arange(3), k) / (LAG_OVERSAMPLE * nfft))
    shifts[:, -1] = 2.0 * np.cos(np.pi * np.arange(3) / LAG_OVERSAMPLE)
    shifts /= LAG_OVERSAMPLE
    shifts.setflags(write=False)
    return shifts


def _oversampled(power: np.ndarray, start: int, stop: int) -> np.ndarray:
    """np.fft.irfft(power, 4 * nfft)[:, start:stop] for rows of an nfft-point power spectrum, 0 <= start < stop <= 4 * nfft.

    Lags 4 tau + d are taken as three nfft-point inverse FFTs, one per
    phase d = 0, 1, 2 (_phase_shifts); phase 3 reads phase 1 backwards, as
    the ACF is even and 4 tau + 3 = -(4 (-tau - 1) + 1).
    """
    nfft = 2 * (power.shape[1] - 1)
    first, last = start // LAG_OVERSAMPLE, -(-stop // LAG_OVERSAMPLE)
    out = np.empty((power.shape[0], last - first, LAG_OVERSAMPLE))
    for rows in row_chunks(power.shape[0], 16 * power.shape[1]):
        for d, shift in enumerate(_phase_shifts(nfft)):
            phase = np.fft.irfft(power[rows] * shift, nfft)
            out[rows, :, d] = phase[:, first:last]
            if d == 1:
                out[rows, :, 3] = phase[:, ::-1][:, first:last]
    out = out.reshape(power.shape[0], LAG_OVERSAMPLE * (last - first))
    return out[:, start - LAG_OVERSAMPLE * first : stop - LAG_OVERSAMPLE * first]


@lru_cache(maxsize=8)
def _taper_acf(n: int, nfft: int) -> np.ndarray:
    """The n-point Hann taper's ACF at every one of the 4 * nfft oversampled lags over its lag 0, from one inverse FFT."""
    # A row of ones tapers to the taper itself, bit for bit.
    ratio = np.fft.irfft(hann_magnitudes(np.ones((1, n)), nfft)[0] ** 2, LAG_OVERSAMPLE * nfft)
    ratio /= ratio[0]
    ratio.setflags(write=False)
    return ratio


def frame_pitch(
    frames: np.ndarray, config: PitchConfig, sample_rate: float, global_peak: float
) -> tuple[np.ndarray, np.ndarray]:
    """(f0, strength) for each row of a [frames x window] matrix; f0 is NaN where unvoiced.

    A 1-D window is a one-row matrix. global_peak is the absolute peak of
    the whole utterance; rows whose own peak falls below silence_threshold
    times it are gated out before any correlation is computed.

    The peaks are the local maxima of the normalized ACF at oversampled
    lags 4 lag_min..4 lag_max + 4, each refined by a parabola. The best
    one's value is the strength, and the shortest lag within
    _SHORT_LAG_MARGIN of it gives f0.
    """
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    n = frames.shape[1]
    lag_min, lag_max = config.lag_range(sample_rate)
    if n < 2 * lag_max:
        raise ValueError(
            f"window of {n} samples is under two periods of the {config.floor} Hz floor"
        )
    f0 = np.full(frames.shape[0], np.nan)
    strength = np.zeros(frames.shape[0])
    if global_peak <= 0:
        return f0, strength
    live = np.flatnonzero(np.max(np.abs(frames), axis=1) >= config.silence_threshold * global_peak)

    # Peaks are searched at oversampled lags lo..upper - 1, and the parabola
    # reads one lag either side, so lags lo - 1..upper are all that is formed.
    lo = LAG_OVERSAMPLE * lag_min
    upper = LAG_OVERSAMPLE * (lag_max + 1) + 1
    nfft = acf_fft_size(n, lag_max)
    # The live rows are copied out, so every array below is this call's own
    # and each step runs in place.
    x = frames[live]
    x -= x.mean(axis=1, keepdims=True)
    power = hann_magnitudes(x, nfft)
    np.square(power, out=power)
    zero = (2.0 * power.sum(axis=1) - power[:, 0]) / (LAG_OVERSAMPLE * nfft)  # the ACF at lag 0
    energetic = zero > 0
    live, zero, power = live[energetic], zero[energetic], power[energetic]
    r = _oversampled(power, lo - 1, upper + 1)
    r /= zero[:, np.newaxis]
    r /= _taper_acf(n, nfft)[lo - 1 : upper + 1]

    inner = r[:, 1:-1]
    row, lag = np.nonzero((inner > r[:, :-2]) & (inner >= r[:, 2:]))
    pos, value = parabolic_peak(r, row, lag + 1)
    cand_f0 = np.minimum(
        np.maximum(sample_rate * LAG_OVERSAMPLE / (pos + (lo - 1)), config.floor), config.ceiling
    )

    best = np.full(live.size, -np.inf)
    np.maximum.at(best, row, value)
    near_best = value >= best[row] - _SHORT_LAG_MARGIN
    best_f0 = np.full(live.size, -np.inf)
    np.maximum.at(best_f0, row[near_best], cand_f0[near_best])
    has_peak = np.isfinite(best)
    s = np.clip(best, 0.0, 1.0)
    strength[live[has_peak]] = s[has_peak]
    voiced = has_peak & (s >= config.voicing_threshold)
    f0[live[voiced]] = best_f0[voiced]
    return f0, strength


def pitch_track(buf: AudioBuffer, config: PitchConfig = PitchConfig()) -> PitchTrack:
    """Track f0 every 10 ms with the config's 3-period-of-floor window."""
    window = config.window
    if buf.duration < window:
        raise ValueError(
            f"buffer of {buf.duration:.3f} s is shorter than the {window:.3f} s pitch window"
        )
    global_peak = float(max(buf.samples.max(), -buf.samples.min()))  # |x| peak without a copy of x
    times = frame_times(buf, window)
    f0, strength = np.full(times.size, np.nan), np.zeros(times.size)
    for rows, frames in frame_blocks(buf.samples, buf.sample_rate, times, window):
        f0[rows], strength[rows] = frame_pitch(frames, config, buf.sample_rate, global_peak)
    return PitchTrack(times=times, f0=f0, strength=strength)
