"""Audio buffers, WAV I/O, resampling, framing, and synthetic test signals.

All processing downstream of this module runs at a fixed internal rate of
16 kHz; :func:`load_audio` resamples every file to it on read.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

INTERNAL_RATE = 16000

# The highest rate read or synthesized. Resampling taps grow with the rate:
# 0.5 s at 383999 Hz, the worst rate under it, peaks at 791 MiB (tracemalloc).
MAX_SAMPLE_RATE = 384_000
MAX_SYNTH_SAMPLES = 1 << 24

# The analysis hop in seconds: the pitch track, the measure slices around
# its frames and the cepstral baselines all step by it.
HOP = 0.010

SYNTH_KINDS = ("sine", "pulse_train", "resonated_pulses", "white_noise", "mixture")

# RIFF format tags we decode.
_FMT_PCM = 1
_FMT_FLOAT = 3
_FMT_EXTENSIBLE = 0xFFFE


class AudioError(ValueError):
    """Unreadable, unsupported, or degenerate audio input."""


@dataclass(frozen=True)
class AudioBuffer:
    """A mono signal: float64 samples (nominally in [-1, 1]) and a rate in Hz.

    Buffers are immutable after construction and safe to share across
    workers; the sample array is marked read-only.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise AudioError("AudioBuffer holds exactly one channel")
        if samples.size == 0:
            raise AudioError("zero-length audio")
        # min and max carry any NaN or infinity, with no per-sample temporary.
        if not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
            raise AudioError("samples must be finite")
        if int(self.sample_rate) <= 0:
            raise AudioError("sample rate must be positive")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a deterministic synthetic signal.

    kind selects the generator:
      sine               pure tone at f0
      pulse_train        unit impulse every 1/f0 s
      resonated_pulses   pulse train through cascaded 2-pole resonators
      white_noise        seeded uniform noise
      mixture            additive harmonic comb with optional half-integer
                         (subharmonic) comb, source tilt, noise, and the
                         resonator cascade when formants are given

    For the mixture kind the per-line amplitude of the subharmonic comb is
    exactly subharmonic_gain times the comb envelope at that frequency, so
    harmonic/subharmonic ratios are known analytically. Its lines are every
    harmonic (and, with a subharmonic gain, every half-integer multiple) of
    f0 at or below 0.45 * sample_rate; an f0 that leaves none is rejected
    by synth.

    round(duration * sample_rate) may not pass MAX_SYNTH_SAMPLES = 2**24
    (17.5 min at 16 kHz), nor sample_rate MAX_SAMPLE_RATE, so synth stays
    under 1 GB: a mixture with four formants peaks at 46-50 bytes per
    sample (tracemalloc). A spec over either is refused as it is built.

    Each formant is a (freq, bandwidth) pair with 0 < freq < sample_rate / 2:
    a resonator tuned at or past Nyquist would ring at its alias instead.

    pulse_train, resonated_pulses and mixture are one complex phasor sum,
    Re(sum of c_m * w(t)**m), evaluated by Horner's rule, where c_m is a
    line's amplitude and phase and w(t) = exp(2*pi*i*f0*t) (exp(i*pi*f0*t)
    on the half-integer grid). The samples agree with a line-by-line np.cos
    rendering to about 1e-12 of full scale.
    """

    kind: str
    f0: float = 100.0
    duration: float = 1.0
    amplitude: float = 0.8
    formants: tuple[tuple[float, float], ...] = ()
    subharmonic_gain: float = 0.0
    noise_gain: float = 0.0
    tilt_db_per_octave: float = 0.0
    seed: int = 0
    sample_rate: int = INTERNAL_RATE

    def __post_init__(self):
        if self.kind not in SYNTH_KINDS:
            raise ValueError(f"unknown synth kind {self.kind!r}")
        for name in ("f0", "duration", "amplitude", "subharmonic_gain", "noise_gain", "tilt_db_per_octave"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.sample_rate > MAX_SAMPLE_RATE:
            raise ValueError(f"sample rate {self.sample_rate} Hz is above {MAX_SAMPLE_RATE} Hz")
        # round(x) > MAX_SYNTH_SAMPLES, an even number, exactly when x > MAX_SYNTH_SAMPLES + 0.5.
        if self.duration * self.sample_rate > MAX_SYNTH_SAMPLES + 0.5:
            raise ValueError(f"duration {self.duration} s at {self.sample_rate} Hz is over "
                             f"{MAX_SYNTH_SAMPLES} samples")
        if self.kind != "white_noise" and self.f0 <= 0:
            raise ValueError("f0 must be positive")
        for freq, bandwidth in self.formants:
            if not (0 < freq < math.inf and 0 < bandwidth < math.inf):
                raise ValueError(f"formants must be positive finite freq:bw pairs, got {freq}:{bandwidth}")
            if freq >= self.sample_rate / 2:
                raise ValueError(f"formant {freq}:{bandwidth} is not below Nyquist, "
                                 f"{self.sample_rate / 2:g} Hz at {self.sample_rate} Hz")
        for name in ("subharmonic_gain", "noise_gain"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")


def load_audio(path) -> AudioBuffer:
    """Read a RIFF/WAVE file as a mono buffer at INTERNAL_RATE.

    Accepts linear PCM at 8/16/24/32 bits and IEEE float32, any channel
    count (channels are averaged). Integer samples are normalized by their
    full-scale magnitude (e.g. int16 by 32768). A rate above
    MAX_SAMPLE_RATE raises AudioError before the samples are decoded.
    """
    path = Path(path)
    try:
        raw = memoryview(path.read_bytes())  # chunk slices are views, not copies
    except OSError as exc:
        raise AudioError(f"cannot read {path}: {exc}") from exc
    fmt, data = _parse_riff(raw, path)
    audio_format, n_channels, rate, bits = fmt
    if rate > MAX_SAMPLE_RATE:
        raise AudioError(f"{path}: sample rate {rate} Hz is above {MAX_SAMPLE_RATE} Hz")
    samples = _decode_samples(data, audio_format, bits, path)
    if n_channels < 1:
        raise AudioError(f"{path}: invalid channel count {n_channels}")
    if n_channels > 1:
        usable = (samples.size // n_channels) * n_channels
        samples = samples[:usable].reshape(-1, n_channels).mean(axis=1)
    if samples.size == 0:
        raise AudioError(f"{path}: zero-length audio")
    return resample(AudioBuffer(samples, rate), INTERNAL_RATE)


def _parse_riff(raw: memoryview, path) -> tuple[tuple[int, int, int, int], memoryview]:
    if len(raw) < 44 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise AudioError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise AudioError(f"{path}: truncated fmt chunk")
            audio_format, n_channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", body, 0)
            if audio_format == _FMT_EXTENSIBLE:
                if len(body) < 26:
                    raise AudioError(f"{path}: truncated extensible fmt chunk")
                (audio_format,) = struct.unpack_from("<H", body, 24)
            fmt = (audio_format, n_channels, rate, bits)
        elif chunk_id == b"data":
            data = body
        pos += 8 + chunk_size + (chunk_size & 1)
    if fmt is None or data is None:
        raise AudioError(f"{path}: missing fmt or data chunk")
    return fmt, data


def _decode_samples(data: memoryview, audio_format: int, bits: int, path) -> np.ndarray:
    """Whole samples of the data chunk as float64; a trailing partial sample is dropped."""
    if audio_format == _FMT_FLOAT:
        if bits != 32:
            raise AudioError(f"{path}: unsupported float width {bits}")
        samples = _whole_samples(data, "<f4").astype(np.float64)
        if samples.size and not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
            raise AudioError(f"{path}: non-finite float samples")
        return samples
    if audio_format != _FMT_PCM:
        raise AudioError(f"{path}: unsupported encoding (format tag {audio_format})")
    if bits == 8:
        return (_whole_samples(data, np.uint8).astype(np.float64) - 128.0) / 128.0
    if bits == 16:
        return _whole_samples(data, "<i2").astype(np.float64) / 32768.0
    if bits == 24:
        usable = (len(data) // 3) * 3
        b = np.frombuffer(data[:usable], dtype=np.uint8).reshape(-1, 3).astype(np.int64)
        value = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        value -= (value & 0x800000) << 1  # sign extension
        return value.astype(np.float64) / 8388608.0
    if bits == 32:
        return _whole_samples(data, "<i4").astype(np.float64) / 2147483648.0
    raise AudioError(f"{path}: unsupported PCM width {bits}")


def _whole_samples(data: memoryview, dtype) -> np.ndarray:
    dtype = np.dtype(dtype)
    return np.frombuffer(data, dtype=dtype, count=len(data) // dtype.itemsize)


def write_wav(path, buf: AudioBuffer) -> None:
    """Write a buffer as 16-bit little-endian PCM, clipping to full scale.

    The samples are clipped before they are scaled, so a sample too large
    to scale in float64 is written at full scale like any other loud one.
    """
    pcm = np.rint(np.clip(buf.samples, -32768 / 32767, 1.0) * 32767.0).astype("<i2")
    payload = pcm.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, _FMT_PCM, 1, buf.sample_rate, buf.sample_rate * 2, 2, 16
    )
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Band-limited polyphase resampling; identity when rates match.

    The filter and the output grid are those of SciPy's resample_poly with
    its defaults (see _polyphase_taps): output sample o sits at input time
    o * down / up, the input is zero outside the buffer, and there are
    ceil(n * up / down) outputs. Each output phase is one matrix-vector
    product over a strided view of the input.
    """
    if target_rate <= 0:
        raise ValueError("target rate must be positive")
    if target_rate == buf.sample_rate:
        return buf
    ratio = Fraction(int(target_rate), buf.sample_rate)
    up, down = ratio.numerator, ratio.denominator
    n_out = -(-buf.samples.size * up // down)
    taps = _polyphase_taps(up, down)
    reach = taps.shape[1] // 2
    view = np.lib.stride_tricks.sliding_window_view(np.pad(buf.samples, reach), taps.shape[1])
    out = np.empty(n_out)
    for r in range(min(up, n_out)):
        phase = out[r::up]
        phase[:] = view[r * down // up :: down][: phase.size] @ taps[r]
    return AudioBuffer(out, target_rate)


def filter_half_length(up: int, down: int) -> int:
    """Half-length L of resample's prototype filter, in taps on the grid upsampled by `up`."""
    return 10 * max(up, down)


def filter_reach(up: int, down: int) -> int:
    """Reach K = L // up + 1 of resample: each output multiplies the 2K + 1 inputs centred on it."""
    return filter_half_length(up, down) // up + 1


@lru_cache(maxsize=8)
def _polyphase_taps(up: int, down: int) -> np.ndarray:
    """[up x (2K + 1)] read-only taps, one row per output phase r = o mod up, for coprime up and down.

    The prototype filter is a Kaiser-windowed sinc (beta 5) with cutoff
    1/max(up, down) of Nyquist and half-length L = filter_half_length(up,
    down) taps on the upsampled grid, scaled to a DC gain of up. Output
    o = r + j * up is taps[r] dotted with the 2K + 1 inputs centred on input
    r * down // up + j * down, where reach K = filter_reach(up, down) covers
    every tap.
    """
    half = filter_half_length(up, down)
    reach = filter_reach(up, down)
    cutoff = 1.0 / max(up, down)
    m = np.arange(-half, half + 1)
    h = cutoff * np.sinc(cutoff * m) * np.kaiser(2 * half + 1, 5.0)
    h *= up / np.sum(h)
    # Tap s of phase r weighs input centre - reach + s, at filter offset (r * down) % up + (reach - s) * up.
    offset = (np.arange(up) * down % up)[:, np.newaxis] + (reach - np.arange(2 * reach + 1)) * up
    taps = np.where(np.abs(offset) <= half, h[np.clip(offset + half, 0, 2 * half)], 0.0)
    taps.setflags(write=False)
    return taps


# Frames go through the batched measures this many at a time, so transient
# memory stays flat on long recordings. On the 2-vCPU reference VM (one BLAS
# thread), a 20 s voice extracted at 14.5, 12.8 and 13.1 ms per second of
# audio at 64, 128 and 256 rows, and peaked at 7.3, 7.2 and 10.5 MB
# (tracemalloc); the largest per-block array is then the slice spectrum's
# [rows x 2049] magnitudes, 2.1 MB, as every row-wise transform runs on
# row_chunks.
FRAME_BLOCK = 128

# Row-blocked kernels keep each chunk within this many bytes, so its arrays
# stay in cache: 32-row chunks of a 1024-point pitch ACF ran about 1.9x
# faster than the whole 128-row block.
_CHUNK_BYTES = 256 << 10


def row_chunks(rows: int, row_bytes: int):
    """Slices over range(rows), in order, of the most rows (at least one) whose [rows x row_bytes] fits _CHUNK_BYTES."""
    step = max(1, _CHUNK_BYTES // row_bytes)
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def next_pow2(n: int) -> int:
    """Smallest power of two >= n (n >= 1)."""
    return 1 << (int(n - 1)).bit_length()


def parabolic_peak(values: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position, value) of the 3-point parabolic vertex at each values[rows, cols].

    A flat or upward-curved triple has no maximum and keeps the grid point.
    """
    left, mid, right = values[rows, cols - 1], values[rows, cols], values[rows, cols + 1]
    denom = left - 2.0 * mid + right
    curved = denom < 0
    delta = 0.5 * (left - right) / np.where(curved, denom, -1.0)
    return np.where(curved, cols + delta, cols), np.where(curved, mid - 0.25 * (left - right) * delta, mid)


@lru_cache(maxsize=8)
def _dct_tables(m: int, anchor: int) -> np.ndarray:
    """Read-only [3 x (m + 1)] over m: 1/2 - sin(pi j / m) and 1/2 + sin(pi j / m), the pre-twiddle's
    weights on x_j and x_(m-j) (read at j < m), and the DCT-I's weights at q = anchor, halved at j = 0 and m.
    """
    angle = np.pi * np.arange(m + 1) / m
    tables = np.stack([0.5 - np.sin(angle), 0.5 + np.sin(angle), np.cos(np.pi * (np.arange(m + 1) * anchor % (2 * m)) / m)])
    tables[2, [0, m]] *= 0.5
    tables /= m
    tables.setflags(write=False)
    return tables


def irfft_columns(x: np.ndarray, n: int, start: int, out: np.ndarray) -> None:
    """Write np.fft.irfft(x, n)[:, start : start + width] into the [rows x width] out, through one n/2-point real FFT.

    x is [rows x (m + 1)] for an even n = 2m, and the window lies within
    columns 1..m, where output q is the DCT-I
    X_q = (x_0 + x_m (-1)^q) / 2 + sum_{0<j<m} x_j cos(pi j q / m), over m.
    The half-length algorithm (Makhoul 1980, "A fast cosine transform in
    one and two dimensions"; Numerical Recipes' cosft1): the real FFT Y of
    y_j = (x_j + x_(m-j)) / 2 - sin(pi j / m) (x_j - x_(m-j)), j < m, gives
    X_2k = Re Y_k and X_(2k+1) = X_(2k-1) - Im Y_k. The running sum starts
    at the window's first odd column, an einsum (no BLAS call, so each
    row's bits depend on that row alone), which keeps the large low
    quefrencies out of it.
    """
    bins, width = x.shape[1], out.shape[1]
    if n % 2 or bins != n // 2 + 1:
        raise ValueError(f"{bins} bins are not the full half-spectrum of an even {n}-point transform")
    m = n // 2
    if not 1 <= start < start + width <= m + 1:
        raise ValueError(f"columns {start}..{start + width - 1} are not within 1..{m}")
    first = start | 1
    head, tail, anchor = _dct_tables(m, first)
    y = np.multiply(x[:, :m], head[:m])
    y += x[:, m:0:-1] * tail[:m]
    spectrum = np.fft.rfft(y)
    last = start + width - 1
    out[:, start % 2 :: 2] = spectrum.real[:, (start + 1) // 2 : last // 2 + 1]
    odd = out[:, first - start :: 2]
    if odd.shape[1]:
        odd[:, 0] = np.einsum("rj,j->r", x, anchor)
        np.negative(spectrum.imag[:, (first + 1) // 2 : (first - 1) // 2 + odd.shape[1]], out=odd[:, 1:])
        np.cumsum(odd, axis=1, out=odd)


@lru_cache(maxsize=8)
def _hann_taper(n: int) -> np.ndarray:
    """The read-only n-point np.hanning taper."""
    taper = np.hanning(n)
    taper.setflags(write=False)
    return taper


def hann_magnitudes(frames: np.ndarray, nfft: int) -> np.ndarray:
    """np.abs(np.fft.rfft(frames * np.hanning(n), nfft)) for the rows of a [rows x n] matrix.

    The package's one Hann spectrum (pitch frames and their taper's ACF, the
    slice spectrum, the cepstral baselines); the taper is built once per n,
    and each of the row_chunks is tapered and transformed into the one
    [rows x bins] result.
    """
    taper = _hann_taper(frames.shape[1])
    out = np.empty((frames.shape[0], nfft // 2 + 1))
    for rows in row_chunks(out.shape[0], 16 * out.shape[1]):
        np.abs(np.fft.rfft(frames[rows] * taper, nfft), out=out[rows])
    return out


def window_samples(window: float, sample_rate: float) -> int:
    """Samples in a `window`-second frame: round(window * sample_rate)."""
    return int(round(window * sample_rate))


def frame_times(buf: AudioBuffer, window: float) -> np.ndarray:
    """Center times (s) of the full `window`-second windows, one every HOP seconds.

    Windows are centered: the first center sits at window/2. Windows that
    would run past the end are dropped.
    """
    win = window_samples(window, buf.sample_rate)
    hop = window_samples(HOP, buf.sample_rate)
    if win < 1 or hop < 1:
        raise ValueError("window and hop must cover at least one sample")
    n = buf.samples.size
    if n < win:
        raise ValueError(
            f"buffer of {n} samples is shorter than one {win}-sample window"
        )
    return (np.arange(0, n - win + 1, hop) + win / 2.0) / buf.sample_rate


def frame_blocks(samples: np.ndarray, sample_rate: int, times, window: float):
    """Yield (rows, frames) for the `window`-second windows centred at `times`, FRAME_BLOCK rows at a time.

    A window's first sample is round(time * sample_rate - win / 2), where
    win = window_samples(window, sample_rate). Only windows that lie inside
    the buffer are yielded: rows holds their ascending indices into `times`,
    and frames[j] is the [win] slice of the window at times[rows[j]]. A
    buffer shorter than one window yields nothing.
    """
    win = window_samples(window, sample_rate)
    starts = np.rint(np.asarray(times, dtype=np.float64) * sample_rate - win / 2.0).astype(np.intp)
    inside = np.flatnonzero((starts >= 0) & (starts + win <= samples.size))
    if inside.size == 0:
        return
    view = np.lib.stride_tricks.sliding_window_view(samples, win)
    for lo in range(0, inside.size, FRAME_BLOCK):
        rows = inside[lo : lo + FRAME_BLOCK]
        yield rows, view[starts[rows]]


def synth(spec: SynthSpec) -> AudioBuffer:
    """Render a SynthSpec. Bitwise deterministic for equal specs.

    The comb kinds (pulse_train, resonated_pulses, mixture) all go through
    one phasor kernel, _phasor_sum, and match a line-by-line np.cos
    rendering of the same lines (testkit.comb_reference) to about 1e-12 of
    full scale. Raises ValueError when f0 leaves no line below the ceiling,
    and when a finite spec renders a sample float64 cannot hold (a steep
    tilt's envelope, loud noise through a narrow resonator).
    """
    sr = spec.sample_rate
    n = int(round(spec.duration * sr))
    if n < 1:
        raise ValueError("duration too short for one sample")
    t = np.arange(n) / sr
    rng = np.random.default_rng(spec.seed)

    # An overflow leaves an infinity or a NaN in the samples, which the check below refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "sine":
            x = spec.amplitude * np.sin(2.0 * np.pi * spec.f0 * t)
        elif spec.kind == "white_noise":
            x = spec.amplitude * rng.uniform(-1.0, 1.0, n)
        elif spec.kind == "pulse_train":
            x = _pulse_train(t, spec.f0, sr) * spec.amplitude
        elif spec.kind == "resonated_pulses":
            x = _resonate(_pulse_train(t, spec.f0, sr), spec.formants, sr)
            x = _peak_normalize(x, spec.amplitude)
        else:  # mixture
            x = _comb(t, spec, rng)
            if spec.noise_gain > 0:
                x = x + spec.noise_gain * rng.uniform(-1.0, 1.0, n)
            if spec.formants:
                x = _resonate(x, spec.formants, sr)
            x = _peak_normalize(x, spec.amplitude)
    if not (np.isfinite(x.min()) and np.isfinite(x.max())):
        raise ValueError(f"the rendered {spec.kind} signal overflows float64")
    return AudioBuffer(x, sr)


def _phasor_sum(t: np.ndarray, step: float, coeffs: np.ndarray) -> np.ndarray:
    """Re(sum over m >= 1 of coeffs[m-1] * w**m) at times t, w = exp(2*pi*i*step*t).

    Horner's rule on the one phasor w: each line costs one in-place complex
    multiply-add over the samples, with no per-line cos and no
    [lines x samples] matrix. |w| = 1, so the rounding error grows only
    linearly with the line count (about 1e-12 of full scale for a few
    hundred lines).
    """
    w = np.exp(2j * np.pi * step * t)
    acc = np.full(t.size, coeffs[-1], dtype=np.complex128)
    for c in coeffs[-2::-1]:
        acc *= w
        acc += c
    acc *= w
    return acc.real


def _pulse_train(t: np.ndarray, f0: float, sr: float) -> np.ndarray:
    """Band-limited pulse train: unit-height pulses exactly every 1/f0 s.

    Built as a flat, zero-phase harmonic comb (all multiples of f0 below
    0.95 Nyquist) so the sampled signal is exactly periodic at f0; rounding
    discrete impulses onto the sample grid would alias the period for any
    f0 that does not divide the rate.
    """
    k_max = int(np.floor(0.475 * sr / f0))
    if k_max < 1:
        raise ValueError(f"f0 {f0} Hz leaves no harmonics below Nyquist at {sr} Hz")
    return _phasor_sum(t, f0, np.ones(k_max)) / k_max  # pulse peaks hit exactly 1


# Samples per block of the resonators: one [64 x 64] Toeplitz product per block.
_RESONATOR_BLOCK = 64
# Entry [j, i] is i - j. Indexing h followed by 64 zeros with it gives the
# transposed Toeplitz matrix of h: negative lags wrap around onto the zeros.
_BLOCK_LAGS = np.subtract.outer(np.arange(_RESONATOR_BLOCK), np.arange(_RESONATOR_BLOCK)).T
_BLOCK_LAGS.setflags(write=False)


def _resonate(x: np.ndarray, formants, sr: float) -> np.ndarray:
    """The cascade of two-pole resonators y[n] = x[n] + 2r*cos(w)*y[n-1] - r**2*y[n-2].

    Each resonator runs in blocks of B = 64 samples. A block's output is
    its input times the lower-triangular Toeplitz matrix of the impulse
    response h (h[0] = 1, h[1] = 2r*cos(w)), plus y[-1] * h[1:B+1] -
    r**2 * y[-2] * h[:B], the response to the last two outputs y[-1] and
    y[-2] of the previous block. Only those two carries pass from block to
    block, in a short loop on Python floats; the rest is one matrix product
    over all blocks. The samples match a direct-form filter to about 1e-14
    of the peak: only the order in which the terms are added differs.
    """
    x = np.asarray(x, dtype=np.float64)
    size, block = x.size, _RESONATOR_BLOCK
    rows = -(-size // block)
    padded = np.zeros(rows * block)
    padded[:size] = x
    # Each row holds one block's samples, then the two outputs carried into it.
    state = np.empty((rows, block + 2))
    state[:, :block] = padded.reshape(rows, block)
    for freq, bandwidth in formants:
        r = np.exp(-np.pi * bandwidth / sr)
        a1, a2 = float(2.0 * r * np.cos(2.0 * np.pi * freq / sr)), float(r * r)
        taps = [1.0, a1]
        for _ in range(block - 1):
            taps.append(a1 * taps[-1] - a2 * taps[-2])
        h = np.array(taps)
        # One block's step: the transposed Toeplitz matrix, then the carries' responses.
        step = np.empty((block + 2, block))
        step[:block] = np.concatenate([h[:block], np.zeros(block)])[_BLOCK_LAGS]
        step[block] = h[1:]
        step[block + 1] = -a2 * h[:-1]
        ends = state[:, :block] @ step[:block, -2:]  # each block's last two outputs before its carries
        # The carries y1, y2 add y1 * h[B] - y2 * r**2 * h[B-1] to a block's last output and
        # y1 * h[B-1] - y2 * r**2 * h[B-2] to the one before it.
        c11, c12 = taps[block], a2 * taps[block - 1]
        c21, c22 = taps[block - 1], a2 * taps[block - 2]
        y1 = y2 = 0.0
        carried1, carried2 = [], []
        for second_last, last in zip(*ends.T.tolist()):
            carried1.append(y1)
            carried2.append(y2)
            y1, y2 = last + y1 * c11 - y2 * c12, second_last + y1 * c21 - y2 * c22
        state[:, block] = carried1
        state[:, block + 1] = carried2
        state[:, :block] = state @ step
    return state[:, :block].ravel()[:size]


def _comb(t: np.ndarray, spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """Additive comb: harmonics of f0 plus an optional half-integer comb.

    Every line at or below 0.45 * rate is kept, with a uniform random phase
    drawn harmonics first, then subharmonics. With subharmonics the lines
    sit on the f0/2 grid: harmonic k is grid line 2k, subharmonic k is 2k - 1.
    """
    f0 = spec.f0
    top = 0.45 * spec.sample_rate  # keep components clear of Nyquist
    k = np.arange(1, int(top / f0) + 2)  # one spare; the comparisons below pick the lines
    harmonics = k * f0
    harmonics = harmonics[harmonics <= top]
    halves = (k - 0.5) * f0
    halves = halves[(halves <= top) & (spec.subharmonic_gain > 0)]
    if halves.size + harmonics.size == 0:
        raise ValueError(f"f0 {f0} Hz leaves no comb line at or below {top:g} Hz (0.45 x rate)")

    def lines(freqs, gain):
        envelope = 10.0 ** (spec.tilt_db_per_octave * np.log2(freqs / f0) / 20.0)
        return gain * envelope * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, freqs.size))

    harmonic_lines = lines(harmonics, 1.0)
    if not halves.size:
        return _phasor_sum(t, f0, harmonic_lines)
    coeffs = np.zeros(2 * halves.size, dtype=np.complex128)  # halves.size >= harmonics.size
    coeffs[1::2][: harmonics.size] = harmonic_lines
    coeffs[0::2] = lines(halves, spec.subharmonic_gain)
    return _phasor_sum(t, 0.5 * f0, coeffs)


def _peak_normalize(x: np.ndarray, amplitude: float) -> np.ndarray:
    peak = np.max(np.abs(x))
    if peak > 0:
        x = x * (amplitude / peak)
    return x
