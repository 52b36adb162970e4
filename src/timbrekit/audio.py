"""Audio buffers, WAV I/O, resampling, framing, and synthetic test signals.

All processing downstream of this module runs at a fixed internal rate of
16 kHz; :func:`load_audio` resamples on read unless told otherwise.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.signal import lfilter, resample_poly

INTERNAL_RATE = 16000

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
        if not np.all(np.isfinite(samples)):
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
class FrameSpec:
    """Analysis grid: hop and window length in seconds."""

    step: float = 0.010
    window: float = 0.040

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.window < self.step:
            raise ValueError("window must be at least one step")


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
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        if self.kind != "white_noise" and self.f0 <= 0:
            raise ValueError("f0 must be positive")
        for freq, bandwidth in self.formants:
            if freq <= 0 or bandwidth <= 0:
                raise ValueError("formant frequencies and bandwidths must be positive")
        if self.subharmonic_gain < 0 or self.noise_gain < 0:
            raise ValueError("gains must be nonnegative")


def load_audio(path, target_rate: int | None = INTERNAL_RATE) -> AudioBuffer:
    """Read a RIFF/WAVE file as a mono buffer.

    Accepts linear PCM at 8/16/24/32 bits and IEEE float32, any channel
    count (channels are averaged). Integer samples are normalized by their
    full-scale magnitude (e.g. int16 by 32768). Resamples to target_rate
    unless target_rate is None.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise AudioError(f"cannot read {path}: {exc}") from exc
    fmt, data = _parse_riff(raw, path)
    audio_format, n_channels, rate, bits = fmt
    samples = _decode_samples(data, audio_format, bits, path)
    if n_channels < 1:
        raise AudioError(f"{path}: invalid channel count {n_channels}")
    if n_channels > 1:
        usable = (samples.size // n_channels) * n_channels
        samples = samples[:usable].reshape(-1, n_channels).mean(axis=1)
    if samples.size == 0:
        raise AudioError(f"{path}: zero-length audio")
    buf = AudioBuffer(samples, rate)
    if target_rate is not None and rate != target_rate:
        buf = resample(buf, target_rate)
    return buf


def _parse_riff(raw: bytes, path) -> tuple[tuple[int, int, int, int], bytes]:
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


def _decode_samples(data: bytes, audio_format: int, bits: int, path) -> np.ndarray:
    """Whole samples of the data chunk as float64; a trailing partial sample is dropped."""
    if audio_format == _FMT_FLOAT:
        if bits != 32:
            raise AudioError(f"{path}: unsupported float width {bits}")
        samples = _whole_samples(data, "<f4").astype(np.float64)
        if not np.all(np.isfinite(samples)):
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


def _whole_samples(data: bytes, dtype) -> np.ndarray:
    dtype = np.dtype(dtype)
    return np.frombuffer(data, dtype=dtype, count=len(data) // dtype.itemsize)


def write_wav(path, buf: AudioBuffer) -> None:
    """Write a buffer as 16-bit little-endian PCM, clipping to full scale."""
    pcm = np.clip(np.rint(buf.samples * 32767.0), -32768, 32767).astype("<i2")
    payload = pcm.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, _FMT_PCM, 1, buf.sample_rate, buf.sample_rate * 2, 2, 16
    )
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Band-limited polyphase resampling; identity when rates match."""
    if target_rate <= 0:
        raise ValueError("target rate must be positive")
    if target_rate == buf.sample_rate:
        return buf
    ratio = Fraction(int(target_rate), buf.sample_rate)
    out = resample_poly(buf.samples, ratio.numerator, ratio.denominator)
    return AudioBuffer(out, target_rate)


# Frames go through the batched measures this many at a time, so transient
# memory stays flat on long recordings; 3 s of audio on the 10 ms grid is
# one block.
FRAME_BLOCK = 320


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


def frame_times(buf: AudioBuffer, spec: FrameSpec) -> np.ndarray:
    """Center times (s) of the full windows on the analysis grid.

    Windows are centered: the first center sits at window/2 and the hop is
    spec.step. Windows that would run past the end are dropped.
    """
    win = int(round(spec.window * buf.sample_rate))
    hop = int(round(spec.step * buf.sample_rate))
    if win < 1 or hop < 1:
        raise ValueError("window and step must cover at least one sample")
    n = buf.samples.size
    if n < win:
        raise ValueError(
            f"buffer of {n} samples is shorter than one {win}-sample window"
        )
    return (np.arange(0, n - win + 1, hop) + win / 2.0) / buf.sample_rate


def window_starts(times: np.ndarray, window: float, sample_rate: int) -> tuple[np.ndarray, int]:
    """(first sample, length) of the `window`-second windows centered at `times`.

    Starts may fall outside the buffer; callers decide what an edge means.
    """
    win = int(round(window * sample_rate))
    starts = np.rint(np.asarray(times, dtype=np.float64) * sample_rate - win / 2.0)
    return starts.astype(np.intp), win


def frame_blocks(samples: np.ndarray, starts: np.ndarray, win: int):
    """Yield [rows x win] frame matrices, FRAME_BLOCK rows at a time.

    Row i of the concatenated blocks is samples[starts[i] : starts[i] + win];
    every window must lie inside the buffer.
    """
    view = np.lib.stride_tricks.sliding_window_view(samples, win)
    for lo in range(0, len(starts), FRAME_BLOCK):
        yield view[starts[lo : lo + FRAME_BLOCK]]


def synth(spec: SynthSpec) -> AudioBuffer:
    """Render a SynthSpec. Bitwise deterministic for equal specs.

    The comb kinds (pulse_train, resonated_pulses, mixture) all go through
    one phasor kernel, _phasor_sum, and match a line-by-line np.cos
    rendering of the same lines (testkit.comb_reference) to about 1e-12 of
    full scale. Raises ValueError when f0 leaves no line below the ceiling.
    """
    sr = spec.sample_rate
    n = int(round(spec.duration * sr))
    if n < 1:
        raise ValueError("duration too short for one sample")
    t = np.arange(n) / sr
    rng = np.random.default_rng(spec.seed)

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


def _resonate(x: np.ndarray, formants, sr: float) -> np.ndarray:
    for freq, bandwidth in formants:
        r = np.exp(-np.pi * bandwidth / sr)
        omega = 2.0 * np.pi * freq / sr
        x = lfilter([1.0], [1.0, -2.0 * r * np.cos(omega), r * r], x)
    return x


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
