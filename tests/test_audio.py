import os
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import timbrekit
from timbrekit.audio import (
    FRAME_BLOCK,
    MAX_SAMPLE_RATE,
    MAX_SYNTH_SAMPLES,
    AudioBuffer,
    AudioError,
    SynthSpec,
    frame_blocks,
    frame_times,
    load_audio,
    resample,
    _resonate,
    synth,
    write_wav,
)
from timbrekit.testkit import comb_reference

VOICE = ((500.0, 80.0), (1500.0, 100.0), (2500.0, 150.0), (3500.0, 200.0))


def make_wav(path, payload: bytes, *, fmt=1, channels=1, rate=16000, bits=16):
    """Hand-rolled RIFF writer so load_audio is checked against raw bytes."""
    block = channels * bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, fmt, channels, rate, rate * block, block, bits)
    header += b"data" + struct.pack("<I", len(payload))
    path.write_bytes(header + payload)
    return path


class TestLoadAudio:
    def test_int16_normalization(self, tmp_path):
        path = make_wav(tmp_path / "a.wav", struct.pack("<3h", 0, 16384, -16384))
        buf = load_audio(path)
        npt.assert_array_equal(buf.samples, [0.0, 0.5, -0.5])
        assert buf.sample_rate == 16000

    def test_stereo_channels_averaged(self, tmp_path):
        frames = struct.pack("<2h", 32767, 0)  # L ~1.0, R 0.0
        path = make_wav(tmp_path / "st.wav", frames, channels=2)
        buf = load_audio(path)
        assert buf.samples.shape == (1,)
        assert abs(buf.samples[0] - 0.5) < 1e-4

    def test_float32(self, tmp_path):
        path = make_wav(tmp_path / "f.wav", struct.pack("<3f", 0.25, -1.0, 1.0), fmt=3, bits=32)
        buf = load_audio(path)
        npt.assert_allclose(buf.samples, [0.25, -1.0, 1.0])

    def test_int24(self, tmp_path):
        value = 4194304  # 2^22 -> 0.5 at 24-bit full scale
        payload = struct.pack("<i", value)[:3] + struct.pack("<i", -value)[:3]
        path = make_wav(tmp_path / "d.wav", payload, bits=24)
        buf = load_audio(path)
        npt.assert_allclose(buf.samples, [0.5, -0.5])

    def test_uint8(self, tmp_path):
        path = make_wav(tmp_path / "b.wav", bytes([128, 192, 64]), bits=8)
        buf = load_audio(path)
        npt.assert_allclose(buf.samples, [0.0, 0.5, -0.5])

    def test_extensible_format(self, tmp_path):
        payload = struct.pack("<2h", 16384, -16384)
        # 40-byte fmt chunk: extensible wrapper around plain PCM
        fmt = struct.pack("<IHHIIHH", 40, 0xFFFE, 1, 16000, 32000, 2, 16)
        fmt += struct.pack("<HHI", 22, 16, 1)  # cbSize, valid bits, channel mask
        fmt += struct.pack("<H", 1) + b"\x00" * 14  # subformat GUID starts with PCM tag
        raw = b"RIFF" + struct.pack("<I", 4 + len(fmt) + 8 + 8 + len(payload)) + b"WAVE"
        raw += b"fmt " + fmt + b"data" + struct.pack("<I", len(payload)) + payload
        path = tmp_path / "ext.wav"
        path.write_bytes(raw)
        buf = load_audio(path)
        npt.assert_array_equal(buf.samples, [0.5, -0.5])

    def test_zero_length_rejected(self, tmp_path):
        path = make_wav(tmp_path / "z.wav", b"")
        with pytest.raises(AudioError):
            load_audio(path)

    @pytest.mark.parametrize("fmt,bits,payload", [
        (1, 16, struct.pack("<2h", 16384, -16384)),
        (1, 32, struct.pack("<2i", 2**30, -(2**30))),
        (3, 32, struct.pack("<2f", 0.5, -0.5)),
    ], ids=["pcm16", "pcm32", "float32"])
    def test_trailing_partial_sample_dropped(self, tmp_path, fmt, bits, payload):
        path = make_wav(tmp_path / "cut.wav", payload[:-1], fmt=fmt, bits=bits)
        buf = load_audio(path)
        npt.assert_array_equal(buf.samples, [0.5])

    def test_not_a_wav(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"not audio at all, just bytes")
        with pytest.raises(AudioError):
            load_audio(path)

    def test_rate_above_the_bound_is_named(self, tmp_path):
        path = make_wav(tmp_path / "fast.wav", bytes(4000), rate=MAX_SAMPLE_RATE + 1)
        with pytest.raises(AudioError, match=f"sample rate {MAX_SAMPLE_RATE + 1} Hz is above {MAX_SAMPLE_RATE} Hz"):
            load_audio(path)
        assert load_audio(make_wav(tmp_path / "top.wav", bytes(4000), rate=MAX_SAMPLE_RATE)).sample_rate == 16000

    def test_auto_resample_to_internal_rate(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = (rng.uniform(-0.5, 0.5, 48000) * 32767).astype("<i2")
        path = make_wav(tmp_path / "hi.wav", samples.tobytes(), rate=48000)
        buf = load_audio(path)
        assert buf.sample_rate == 16000
        # duration preserved within one sample period
        assert abs(buf.samples.size - 48000 * 16000 / 48000) <= 1


def _fmt_chunk(tag, channels, bits, extension: bytes) -> bytes:
    block = max(channels * bits // 8, 1)
    body = struct.pack("<HHIIHH", tag, channels, 16000, 16000 * block, block, bits) + extension
    return b"fmt " + struct.pack("<I", len(body)) + body


@st.composite
def riff_files(draw, floats=False):
    """RIFF/WAVE bytes with fuzzed fmt and data chunks; the header rate stays 16 kHz.

    With floats=True the format is always IEEE float32 (plain or extensible)
    and the payload mixes finite, NaN and infinite samples.
    """
    tag = draw(st.sampled_from([3, 0xFFFE] if floats else [1, 3, 0xFFFE]))
    channels = draw(st.integers(0, 8))
    bits = 32 if floats else draw(st.sampled_from([0, 8, 12, 16, 24, 32, 64]))
    extension = b""
    if tag == 0xFFFE:  # cbSize, valid bits, mask, then a GUID cut anywhere
        subformat = 3 if floats else draw(st.sampled_from([1, 3, 0xFFFE, 7]))
        guid = struct.pack("<H", subformat) + bytes(14)
        extension = struct.pack("<HHI", 22, bits, 0) + guid[: draw(st.integers(0, 16))]
    if floats or draw(st.booleans()):
        values = draw(st.lists(st.sampled_from([0.25, -1.0, np.nan, np.inf, -np.inf]), max_size=12))
        payload = struct.pack(f"<{len(values)}f", *values)[: draw(st.integers(0, 48))]
    else:
        payload = draw(st.binary(max_size=64))
    declared = max(0, len(payload) + draw(st.sampled_from([0, 0, -1, 1, 3, 1 << 20, -len(payload)])))
    chunks = [_fmt_chunk(tag, channels, bits, extension), b"data" + struct.pack("<I", declared) + payload]
    if draw(st.booleans()):
        chunks.reverse()
    body = b"WAVE" + b"".join(chunks)[: draw(st.integers(0, 200))]
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _finite_buffer_or_audio_error(directory, raw):
    path = directory / "f.wav"
    path.write_bytes(raw)
    try:
        buf = load_audio(path)
    except AudioError:
        return
    assert buf.sample_rate == 16000
    assert buf.samples.size > 0 and np.all(np.isfinite(buf.samples))


class TestWavFuzz:
    @given(raw=riff_files())
    @settings(max_examples=300, deadline=None)
    def test_any_header(self, tmp_path_factory, raw):
        _finite_buffer_or_audio_error(tmp_path_factory.mktemp("fuzz"), raw)

    @given(raw=riff_files(floats=True))
    @settings(max_examples=150, deadline=None)
    def test_float_payloads(self, tmp_path_factory, raw):
        _finite_buffer_or_audio_error(tmp_path_factory.mktemp("fuzz"), raw)


class TestResample:
    def test_identity_is_bitwise(self):
        buf = synth(SynthSpec(kind="sine", f0=440.0, duration=0.25))
        out = resample(buf, 16000)
        assert out is buf

    def test_sine_peak_preserved(self):
        buf = synth(SynthSpec(kind="sine", f0=1000.0, duration=1.0, sample_rate=48000))
        out = resample(buf, 16000)
        assert out.sample_rate == 16000
        spectrum = np.abs(np.fft.rfft(out.samples))
        freqs = np.fft.rfftfreq(out.samples.size, 1 / 16000)
        assert abs(freqs[int(np.argmax(spectrum))] - 1000.0) <= 1.0

    def test_near_nyquist_tone_no_aliases(self):
        buf = synth(SynthSpec(kind="sine", f0=7000.0, duration=1.0, sample_rate=48000))
        out = resample(buf, 16000)
        spectrum = np.abs(np.fft.rfft(out.samples))
        freqs = np.fft.rfftfreq(out.samples.size, 1 / 16000)
        peak_idx = int(np.argmax(spectrum))
        assert abs(freqs[peak_idx] - 7000.0) <= 1.0
        away = np.abs(freqs - 7000.0) > 100.0
        leak_db = 20 * np.log10(spectrum[away].max() / spectrum[peak_idx])
        assert leak_db < -40.0

    def test_energy_preserved_for_band_limited_input(self):
        buf = synth(SynthSpec(kind="sine", f0=1000.0, duration=1.0, sample_rate=48000))
        out = resample(buf, 16000)
        power_in = np.mean(buf.samples**2)
        power_out = np.mean(out.samples[800:-800] ** 2)  # trim filter edges
        assert abs(power_out - power_in) / power_in < 0.01

    def test_bad_rate(self):
        buf = synth(SynthSpec(kind="sine", f0=440.0, duration=0.1))
        with pytest.raises(ValueError):
            resample(buf, 0)

    @pytest.mark.parametrize("rate,target", [(16000, 11025), (22050, 16000), (44100, 16000), (48000, 16000),
                                             (8000, 16000)])
    @pytest.mark.parametrize("seconds,samples", [(0, 1), (0, 2), (0, 5), (0, 441), (3, 0)])
    def test_matches_resample_poly(self, rate, target, seconds, samples):
        resample_poly = pytest.importorskip("scipy.signal").resample_poly
        n = seconds * rate + samples
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        ratio = Fraction(target, rate)
        expected = resample_poly(x, ratio.numerator, ratio.denominator)
        out = resample(AudioBuffer(x, rate), target)
        assert out.sample_rate == target
        assert out.samples.shape == expected.shape
        npt.assert_allclose(out.samples, expected, rtol=0.0, atol=1e-12)


class TestResonate:
    @pytest.mark.parametrize("rate,size", [
        *[pytest.param(rate, 2 * rate, id=str(rate)) for rate in (16000, 22050, 44100, 48000)],
        # Lengths on the edges of the 64-sample blocks.
        *[pytest.param(16000, size, id=f"16000-{size}samples") for size in (1, 63, 64, 65, 129)],
    ])
    def test_matches_lfilter(self, rate, size):
        lfilter = pytest.importorskip("scipy.signal").lfilter
        x = np.random.default_rng(rate).uniform(-1.0, 1.0, size)
        x[:: rate // 100] += 20.0  # a pulse train rings the resonators the way synth does
        expected = x
        for freq, bandwidth in VOICE:
            r = np.exp(-np.pi * bandwidth / rate)
            expected = lfilter([1.0], [1.0, -2.0 * r * np.cos(2.0 * np.pi * freq / rate), r * r], expected)
        before = x.copy()
        out = _resonate(x, VOICE, rate)
        npt.assert_array_equal(x, before)
        assert out.shape == x.shape
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_commands_run_without_scipy(tmp_path):
    """testkit imports, and every command runs, with scipy impossible to import: synth (a
    resonated mixture at 22.05 kHz), extract of acoustic and MFCC tables (resampling on
    read), train, eval, weights and flops."""
    script = """
import sys
from pathlib import Path


class NoScipy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"no module named {name!r}")


sys.meta_path.insert(0, NoScipy)
from click.testing import CliRunner
import timbrekit.cli, timbrekit.testkit

work = Path(sys.argv[1])
voices, pairs, table, model = work / "voices", work / "pairs.jsonl", work / "acoustic.csv", work / "model.json"
voices.mkdir()
lines = [("train", 0, 1), ("train", 1, 2), ("train", 2, 0), ("test", 0, 2)]
pairs.write_text("".join(
    f'{{"utt_a": "v{a}", "utt_b": "v{b}", "descriptor": "higher", "label": "{"B" if b > a else "A"}", '
    f'"split": "{split}"}}\\n' for split, a, b in lines))
commands = [["synth", "--kind", "mixture", "--f0", str(120 + 40 * i), "--dur", "0.5", "--amplitude", "0.4",
             "--tilt", "-6", "--formants", "500:80,1500:100,2500:150,3500:200", "--noise-gain", "0.005",
             "--rate", "22050", "--seed", str(i), "--out", str(voices / f"v{i}.wav")] for i in range(3)]
commands += [
    ["extract", str(voices), "--kind", "mfcc", "--out", str(work / "mfcc.csv")],
    ["extract", str(voices), "--kind", "acoustic", "--out", str(table)],
    ["train", "--manifest", str(pairs), "--features", str(table), "--out", str(model), "--epochs", "2"],
    ["eval", "--manifest", str(pairs), "--features", str(table), "--model", str(model)],
    ["weights", "--model", str(model)],
    ["flops", "--kind", "mfcc"],
    ["flops", "--kind", "acoustic", "--model", str(model)],
]
for args in commands:
    result = CliRunner().invoke(timbrekit.cli.main, args)
    assert result.exit_code == 0, (args[0], result.output, result.exception)
assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
"""
    src = str(Path(timbrekit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for table in ("mfcc.csv", "acoustic.csv"):
        assert (tmp_path / table).read_text().count("\n") == 4  # the header and three voices


def framed(samples, times, window=0.040, rate=16000):
    """The (rows, frames) blocks of frame_blocks, concatenated."""
    blocks = list(frame_blocks(samples, rate, times, window))
    return np.concatenate([r for r, _ in blocks]), np.concatenate([f for _, f in blocks])


class TestFrameSlices:
    def test_one_second_grid(self):
        buf = synth(SynthSpec(kind="sine", f0=100.0, duration=1.0))
        times = frame_times(buf, 0.040)
        rows, frames = framed(buf.samples, times, 0.040, buf.sample_rate)
        npt.assert_array_equal(rows, np.arange(97))
        assert frames.shape == (97, 640)
        npt.assert_array_equal(frames[1], buf.samples[160:800])
        assert times[0] == pytest.approx(0.020)
        assert times[1] == pytest.approx(0.030)

    def test_single_window_fit(self):
        buf = synth(SynthSpec(kind="sine", f0=100.0, duration=0.040))
        assert len(frame_times(buf, 0.040)) == 1

    def test_below_minimum_errors(self):
        buf = synth(SynthSpec(kind="sine", f0=100.0, duration=0.039))
        with pytest.raises(ValueError):
            frame_times(buf, 0.040)

    @given(duration=st.floats(min_value=0.04, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_count_formula(self, duration):
        n = int(round(duration * 16000))
        buf = AudioBuffer(np.ones(n), 16000)
        times = frame_times(buf, 0.040)
        assert len(times) == (n - 640) // 160 + 1

    def test_edge_windows_are_skipped(self):
        # 40 ms windows in a 1 s buffer: -10 ms and 990 ms run off the edges.
        samples = np.arange(16000.0)
        times = np.array([-0.010, 0.020, 0.500, 0.990, 0.980, 1.500])
        rows, frames = framed(samples, times)
        npt.assert_array_equal(rows, [1, 2, 4])
        npt.assert_array_equal(frames[:, 0], [0.0, 7680.0, 15360.0])
        assert frames[2, -1] == 15999.0

    def test_buffer_shorter_than_the_window_yields_nothing(self):
        assert list(frame_blocks(np.ones(300), 16000, np.array([0.01, 0.02]), 0.040)) == []

    def test_rows_concatenate_across_the_block_boundary(self):
        samples = np.arange(48000.0)
        starts = 160 * np.arange(-5, 306)  # off the start, through 3 s of buffer, off the end
        times = (starts + 320) / 16000
        inside = np.flatnonzero((starts >= 0) & (starts + 640 <= samples.size))
        blocks = list(frame_blocks(samples, 16000, times, 0.040))
        assert len(blocks) > 1
        assert [rows.size for rows, _ in blocks[:-1]] == [FRAME_BLOCK] * (len(blocks) - 1)
        rows = np.concatenate([r for r, _ in blocks])
        npt.assert_array_equal(rows, inside)
        npt.assert_array_equal(np.concatenate([f[:, 0] for _, f in blocks]), starts[inside])


class TestSynth:
    def test_sine_spectral_peak(self):
        buf = synth(SynthSpec(kind="sine", f0=100.0, duration=1.0))
        spectrum = np.abs(np.fft.rfft(buf.samples))
        freqs = np.fft.rfftfreq(buf.samples.size, 1 / 16000)
        assert freqs[int(np.argmax(spectrum))] == pytest.approx(100.0, abs=1.0)

    def test_pulse_spacing_exact(self):
        buf = synth(SynthSpec(kind="pulse_train", f0=125.0, duration=0.5, amplitude=1.0))
        x = buf.samples
        peaks = np.array(
            [i for i in range(1, x.size - 1) if x[i] > 0.9 and x[i] >= x[i - 1] and x[i] >= x[i + 1]]
        )
        assert set(np.diff(peaks)) == {128}

    def test_seeded_determinism_bitwise(self):
        spec = SynthSpec(kind="mixture", f0=150.0, duration=0.5, subharmonic_gain=0.1,
                         noise_gain=0.2, seed=9)
        a, b = synth(spec), synth(spec)
        npt.assert_array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("kind,f0,rate,duration,knobs", [
        ("mixture", 95.0, 16000, 3.0, dict(subharmonic_gain=0.08, noise_gain=0.005, formants=VOICE,
                                         tilt_db_per_octave=-6.0)),
        ("mixture", 173.3, 22050, 1.0, dict(tilt_db_per_octave=-3.0)),
        ("mixture", 260.0, 44100, 0.5, dict(subharmonic_gain=0.2, formants=VOICE)),
        ("mixture", 600.0, 48000, 2.0, dict(subharmonic_gain=0.05, noise_gain=0.01, tilt_db_per_octave=-9.0)),
        ("mixture", 60.0, 16000, 1.0, dict(subharmonic_gain=1.0, tilt_db_per_octave=-2.0)),
        ("mixture", 173.3, 48000, 3.0, dict(subharmonic_gain=0.1, noise_gain=0.005, formants=VOICE,
                                          tilt_db_per_octave=-6.0)),
        ("pulse_train", 60.0, 48000, 1.5, {}),
        ("pulse_train", 173.3, 22050, 0.5, {}),
        ("resonated_pulses", 95.0, 44100, 1.0, dict(formants=VOICE)),
        ("resonated_pulses", 260.0, 16000, 3.0, dict(formants=VOICE)),
        ("resonated_pulses", 600.0, 22050, 2.0, dict(formants=VOICE)),
    ])
    def test_comb_matches_line_by_line_oracle(self, kind, f0, rate, duration, knobs):
        spec = SynthSpec(kind=kind, f0=f0, duration=duration, sample_rate=rate, seed=int(f0), **knobs)
        assert np.max(np.abs(synth(spec).samples - comb_reference(spec))) <= 1e-9

    def test_pulse_train_memory_flat_in_line_count(self):
        spec = SynthSpec(kind="pulse_train", f0=60.0, duration=0.5, sample_rate=48000)  # 380 lines
        tracemalloc.start()
        try:
            synth(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_mixture_without_lines_rejected(self):
        with pytest.raises(ValueError, match=r"f0 7500.0 Hz .* 7200 Hz"):
            synth(SynthSpec(kind="mixture", f0=7500.0))
        # a subharmonic line alone (3750 Hz) still renders
        buf = synth(SynthSpec(kind="mixture", f0=7500.0, subharmonic_gain=0.5, amplitude=0.5))
        assert np.max(np.abs(buf.samples)) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(kind="sine", f0=0.0)
        with pytest.raises(ValueError):
            SynthSpec(kind="warble")
        with pytest.raises(ValueError):
            SynthSpec(kind="sine", duration=-1.0)
        with pytest.raises(ValueError):
            SynthSpec(kind="resonated_pulses", formants=((500.0, -1.0),))

    def test_sample_count_and_rate_are_bounded(self):
        """round(duration * rate) may reach MAX_SYNTH_SAMPLES and not pass it; no spec here is rendered."""
        assert SynthSpec(kind="sine", duration=(MAX_SYNTH_SAMPLES + 0.5) / 16000).duration > 0
        for duration in ((MAX_SYNTH_SAMPLES + 1) / 16000, 1e308):
            with pytest.raises(ValueError, match=f"is over {MAX_SYNTH_SAMPLES} samples"):
                SynthSpec(kind="sine", duration=duration)
        with pytest.raises(ValueError, match=f"sample rate {MAX_SAMPLE_RATE + 1} Hz is above {MAX_SAMPLE_RATE} Hz"):
            SynthSpec(kind="sine", duration=1e-3, sample_rate=MAX_SAMPLE_RATE + 1)

    def test_wav_round_trip(self, tmp_path):
        buf = synth(SynthSpec(kind="sine", f0=440.0, duration=0.2, amplitude=0.5))
        path = tmp_path / "rt.wav"
        write_wav(path, buf)
        back = load_audio(path)
        assert back.sample_rate == buf.sample_rate
        npt.assert_allclose(back.samples, buf.samples, atol=1.0 / 32000)


class TestAudioBuffer:
    def test_immutable(self):
        buf = AudioBuffer(np.zeros(4) + 0.5, 16000)
        with pytest.raises(ValueError):
            buf.samples[0] = 1.0

    def test_rejects_nonfinite(self):
        with pytest.raises(AudioError):
            AudioBuffer(np.array([0.0, np.nan]), 16000)

    def test_rejects_empty(self):
        with pytest.raises(AudioError):
            AudioBuffer(np.array([]), 16000)
