"""Fundamental frequency estimation and the voiced/unvoiced gate.

The estimator is a frame-local normalized autocorrelation (Boersma 1993,
"Accurate short-term analysis of the fundamental frequency and the
harmonics-to-noise ratio of a sampled sound"): the ACF of the
mean-subtracted, Hann-tapered frame is divided (in the lag domain) by the
ACF of the taper itself, which undoes the taper's own decay and leaves an
estimate of the signal's true periodicity in [0, 1]. Both ACFs are the
inverse transform of a power spectrum on a 4x oversampled lag grid, formed
only at lag 0 and the lags the peak search reads. There is no cross-frame
path search; each frame picks its own best lag.

frame_pitch takes frames as the rows of a [frames x window] matrix and
returns one f0 per row, NaN where unvoiced; pitch_track feeds it the
utterance a block of frames at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio import (
    HOP,
    AudioBuffer,
    frame_blocks,
    frame_times,
    irfft_columns,
    next_pow2,
    parabolic_peak,
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
        if not 0 < self.floor < self.ceiling:
            raise ValueError("need 0 < floor < ceiling")
        if self.window < HOP:
            raise ValueError(f"floor {self.floor:g} Hz is above {_WINDOW_PERIODS / HOP:g} Hz: its "
                             f"{_WINDOW_PERIODS:g}-period window is under the {HOP * 1000:g} ms hop")
        if not 0 <= self.voicing_threshold <= 1:
            raise ValueError("voicing_threshold must be in [0, 1]")
        if self.silence_threshold < 0:
            raise ValueError("silence_threshold must be nonnegative")

    @property
    def window(self) -> float:
        """The analysis window in seconds: three periods of the floor."""
        return _WINDOW_PERIODS / self.floor


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
_LAG_OVERSAMPLE = 4


def _lag_acf(power: np.ndarray, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(ACF at lag 0, ACF at oversampled lags start..stop-1) of each row of an nfft-point power spectrum.

    Both are np.fft.irfft(power, 4 * nfft) at those lags: lag 0 is the
    weighted sum of the bins, and the others come from irfft_columns, so
    no lag the peak search does not read is formed.
    """
    m = _LAG_OVERSAMPLE * 2 * (power.shape[1] - 1)
    return (2.0 * power.sum(axis=1) - power[:, 0]) / m, irfft_columns(power, m, start, stop)


@lru_cache(maxsize=8)
def _window_and_acf(n: int, nfft: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Hann taper and its ACF at lags start..stop-1 over its ACF at lag 0."""
    w = np.hanning(n)
    zero, acf = _lag_acf(np.abs(np.fft.rfft(w, nfft))[np.newaxis] ** 2, start, stop)
    acf = acf[0] / zero[0]
    w.setflags(write=False)
    acf.setflags(write=False)
    return w, acf


def frame_pitch(
    frames: np.ndarray, config: PitchConfig, sample_rate: float, global_peak: float
) -> tuple[np.ndarray, np.ndarray]:
    """(f0, strength) for each row of a [frames x window] matrix; f0 is NaN where unvoiced.

    A 1-D window is a one-row matrix. global_peak is the absolute peak of
    the whole utterance; rows whose own peak falls below silence_threshold
    times it are gated out before any correlation is computed.
    """
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    n = frames.shape[1]
    lag_min = max(2, int(np.ceil(sample_rate / config.ceiling)))
    lag_max = int(np.floor(sample_rate / config.floor))
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
    lo = _LAG_OVERSAMPLE * lag_min
    upper = _LAG_OVERSAMPLE * (lag_max + 1) + 1
    nfft = next_pow2(n + lag_max + 2)
    w, w_acf = _window_and_acf(n, nfft, lo - 1, upper + 1)
    x = frames[live]
    xw = (x - x.mean(axis=1, keepdims=True)) * w
    zero, acf = _lag_acf(np.abs(np.fft.rfft(xw, nfft)) ** 2, lo - 1, upper + 1)
    energetic = zero > 0
    live = live[energetic]
    r = (acf[energetic] / zero[energetic, np.newaxis]) / w_acf

    inner = r[:, 1:-1]
    row, lag = np.nonzero((inner > r[:, :-2]) & (inner >= r[:, 2:]))
    pos, value = parabolic_peak(r, row, lag + 1)
    cand_f0 = np.minimum(
        np.maximum(sample_rate * _LAG_OVERSAMPLE / (pos + (lo - 1)), config.floor), config.ceiling
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
    global_peak = float(np.max(np.abs(buf.samples)))
    times = frame_times(buf, window)
    f0, strength = np.full(times.size, np.nan), np.zeros(times.size)
    for rows, frames in frame_blocks(buf.samples, buf.sample_rate, times, window):
        f0[rows], strength[rows] = frame_pitch(frames, config, buf.sample_rate, global_peak)
    return PitchTrack(times=times, f0=f0, strength=strength)
