import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timbrekit.audio import (
    AudioBuffer,
    AudioError,
    FrameSpec,
    SynthSpec,
    frame_blocks,
    frame_times,
    load_audio,
    resample,
    synth,
    window_starts,
    write_wav,
)


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
        buf = load_audio(path, target_rate=None)
        npt.assert_array_equal(buf.samples, [0.0, 0.5, -0.5])
        assert buf.sample_rate == 16000

    def test_stereo_channels_averaged(self, tmp_path):
        frames = struct.pack("<2h", 32767, 0)  # L ~1.0, R 0.0
        path = make_wav(tmp_path / "st.wav", frames, channels=2)
        buf = load_audio(path, target_rate=None)
        assert buf.samples.shape == (1,)
        assert abs(buf.samples[0] - 0.5) < 1e-4

    def test_float32(self, tmp_path):
        path = make_wav(tmp_path / "f.wav", struct.pack("<3f", 0.25, -1.0, 1.0), fmt=3, bits=32)
        buf = load_audio(path, target_rate=None)
        npt.assert_allclose(buf.samples, [0.25, -1.0, 1.0])

    def test_int24(self, tmp_path):
        value = 4194304  # 2^22 -> 0.5 at 24-bit full scale
        payload = struct.pack("<i", value)[:3] + struct.pack("<i", -value)[:3]
        path = make_wav(tmp_path / "d.wav", payload, bits=24)
        buf = load_audio(path, target_rate=None)
        npt.assert_allclose(buf.samples, [0.5, -0.5])

    def test_uint8(self, tmp_path):
        path = make_wav(tmp_path / "b.wav", bytes([128, 192, 64]), bits=8)
        buf = load_audio(path, target_rate=None)
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
        buf = load_audio(path, target_rate=None)
        npt.assert_array_equal(buf.samples, [0.5, -0.5])

    def test_zero_length_rejected(self, tmp_path):
        path = make_wav(tmp_path / "z.wav", b"")
        with pytest.raises(AudioError):
            load_audio(path)

    def test_not_a_wav(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"not audio at all, just bytes")
        with pytest.raises(AudioError):
            load_audio(path)

    def test_auto_resample_to_internal_rate(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = (rng.uniform(-0.5, 0.5, 48000) * 32767).astype("<i2")
        path = make_wav(tmp_path / "hi.wav", samples.tobytes(), rate=48000)
        buf = load_audio(path)
        assert buf.sample_rate == 16000
        # duration preserved within one sample period
        assert abs(buf.samples.size - 48000 * 16000 / 48000) <= 1


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


class TestFrameSlices:
    def test_one_second_grid(self):
        buf = synth(SynthSpec(kind="sine", f0=100.0, duration=1.0))
        times = frame_times(buf, FrameSpec())
        starts, win = window_starts(times, FrameSpec().window, buf.sample_rate)
        frames = np.concatenate(list(frame_blocks(buf.samples, starts, win)))
        assert frames.shape == (97, 640)
        npt.assert_array_equal(frames[1], buf.samples[160:800])
        assert times[0] == pytest.approx(0.020)
        assert times[1] == pytest.approx(0.030)

    def test_single_window_fit(self):
        buf = synth(SynthSpec(kind="sine", f0=100.0, duration=0.040))
        assert len(frame_times(buf, FrameSpec())) == 1

    def test_below_minimum_errors(self):
        buf = synth(SynthSpec(kind="sine", f0=100.0, duration=0.039))
        with pytest.raises(ValueError):
            frame_times(buf, FrameSpec())

    @given(duration=st.floats(min_value=0.04, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_count_formula(self, duration):
        n = int(round(duration * 16000))
        buf = AudioBuffer(np.ones(n), 16000)
        times = frame_times(buf, FrameSpec())
        assert len(times) == (n - 640) // 160 + 1


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

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(kind="sine", f0=0.0)
        with pytest.raises(ValueError):
            SynthSpec(kind="warble")
        with pytest.raises(ValueError):
            SynthSpec(kind="sine", duration=-1.0)
        with pytest.raises(ValueError):
            SynthSpec(kind="resonated_pulses", formants=((500.0, -1.0),))

    def test_wav_round_trip(self, tmp_path):
        buf = synth(SynthSpec(kind="sine", f0=440.0, duration=0.2, amplitude=0.5))
        path = tmp_path / "rt.wav"
        write_wav(path, buf)
        back = load_audio(path, target_rate=None)
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
