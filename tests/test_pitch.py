import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced
from timbrekit.audio import AudioBuffer, SynthSpec, synth
from timbrekit.pitch import PitchConfig, frame_pitch, pitch_track

SR = 16000


def test_sine_frame_estimate():
    buf = synth(SynthSpec(kind="sine", f0=100.0, duration=1.0, amplitude=1.0))
    f0, strength = frame_pitch(buf.samples[:640], PitchConfig(), SR, 1.0)
    assert f0[0] == pytest.approx(100.0, abs=1.0)
    assert strength[0] > 0.95


def test_white_noise_unvoiced():
    buf = synth(SynthSpec(kind="white_noise", duration=1.0, seed=4))
    track = pitch_track(buf)
    assert track.voiced_count == 0


def test_below_floor_unvoiced():
    buf = synth(SynthSpec(kind="sine", f0=50.0, duration=1.0))
    f0, _ = frame_pitch(buf.samples[:640], PitchConfig(), SR, 1.0)
    assert np.isnan(f0[0])


@pytest.mark.parametrize("gated", [False, True], ids=["all-live", "gated-row"])
def test_read_only_frames_give_the_same_bits(gated):
    """frame_pitch writes only to arrays it allocates, with or without a gated row."""
    buf = synth(SynthSpec(kind="mixture", f0=130.0, duration=0.5, amplitude=0.5, seed=2))
    frames = np.stack([buf.samples[i * 160 : i * 160 + 640] for i in range(20)])
    if gated:
        frames[7] = 0.0
    expected = frame_pitch(frames.copy(), PitchConfig(), SR, 0.5)
    assert np.isnan(expected[0][7]) == gated
    frames.setflags(write=False)
    f0, strength = frame_pitch(frames, PitchConfig(), SR, 0.5)
    assert np.array_equal(f0, expected[0], equal_nan=True)
    assert np.array_equal(strength, expected[1])


def test_window_too_short():
    with pytest.raises(ValueError):
        frame_pitch(np.ones(200), PitchConfig(), SR, 1.0)


def test_track_too_short():
    buf = synth(SynthSpec(kind="sine", f0=100.0, duration=0.030))
    with pytest.raises(ValueError):
        pitch_track(buf)


def test_pulse_train_track():
    buf = synth(SynthSpec(kind="pulse_train", f0=150.0, duration=1.0))
    track = pitch_track(buf)
    voiced = track.voiced
    assert voiced.mean() >= 0.90
    close = np.abs(track.f0[voiced] - 150.0) <= 2.0
    assert close.mean() >= 0.90


def test_peak_memory_holds_no_copy_of_the_buffer():
    """The global peak is read without an |x| copy of the samples.

    Measured: 90 s more audio adds its 0.2 MB of result arrays to the peak;
    an |x| copy adds 11.5 MB.
    """
    rng = np.random.default_rng(5)
    peaks = []
    for seconds in (30, 120):
        buf = AudioBuffer(rng.uniform(-0.5, 0.5, seconds * SR), SR)
        peaks.append(traced(lambda: pitch_track(buf))[2])
    assert peaks[1] - peaks[0] < 1e6


def test_all_zero_buffer_unvoiced():
    track = pitch_track(AudioBuffer(np.zeros(SR) + 0.0, SR))
    assert track.voiced_count == 0


def test_silence_then_tone_boundary():
    tone = synth(SynthSpec(kind="sine", f0=200.0, duration=0.5, amplitude=0.8))
    x = np.concatenate([np.zeros(SR // 2), tone.samples])
    track = pitch_track(AudioBuffer(x, SR))
    voiced_times = track.times[track.voiced]
    assert voiced_times.size > 0
    # no voiced frame earlier than one frame before the tone starts
    assert voiced_times.min() >= 0.5 - 0.011
    assert voiced_times.min() <= 0.5 + 0.021
    second_half = track.times >= 0.53
    assert track.voiced[second_half].mean() > 0.95


@pytest.mark.parametrize("f0", [100.0, 150.0, 200.0, 300.0])
def test_octave_robustness(f0):
    buf = synth(SynthSpec(kind="pulse_train", f0=f0, duration=1.0))
    track = pitch_track(buf)
    voiced = track.voiced
    assert voiced.mean() >= 0.90
    within = np.abs(track.f0[voiced] - f0) <= 0.03 * f0
    assert within.mean() >= 0.90
    off_octave = (np.abs(track.f0[voiced] - f0 / 2) <= 0.1 * f0) | (
        np.abs(track.f0[voiced] - 2 * f0) <= 0.1 * f0
    )
    assert off_octave.mean() <= 0.10


def test_monotone_voicing_gate():
    mix = synth(SynthSpec(kind="mixture", f0=140.0, duration=1.0, noise_gain=0.6, seed=3))
    loose = pitch_track(mix, PitchConfig(voicing_threshold=0.30))
    strict = pitch_track(mix, PitchConfig(voicing_threshold=0.70))
    # raising the threshold can only unvoice frames
    assert not np.any(strict.voiced & ~loose.voiced)


@given(scale=st.floats(min_value=1e-2, max_value=1e2))
@settings(max_examples=12, deadline=None)
def test_amplitude_invariance(scale):
    buf = synth(SynthSpec(kind="pulse_train", f0=130.0, duration=0.3))
    scaled = AudioBuffer(buf.samples * scale, SR)
    a = pitch_track(buf)
    b = pitch_track(scaled)
    npt.assert_array_equal(a.voiced, b.voiced)
    npt.assert_allclose(a.f0[a.voiced], b.f0[b.voiced], rtol=1e-9)


def test_strength_bounds():
    buf = synth(SynthSpec(kind="mixture", f0=180.0, duration=0.5, noise_gain=0.1, seed=1))
    track = pitch_track(buf)
    assert np.all(track.strength >= 0.0) and np.all(track.strength <= 1.0)
    assert np.all(track.f0[track.voiced] >= 75.0)
    assert np.all(track.f0[track.voiced] <= 600.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["floor", "ceiling", "voicing_threshold", "silence_threshold"])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a finite number, got {value}$"):
        PitchConfig(**{field: value})


def test_config_validation():
    with pytest.raises(ValueError):
        PitchConfig(floor=600.0, ceiling=75.0)
    with pytest.raises(ValueError):
        PitchConfig(voicing_threshold=1.5)
    # The window spans three periods of the floor and must span the 10 ms hop.
    for floor in (400.0, 300.5):
        with pytest.raises(ValueError, match=f"floor {floor:g} Hz is above 300 Hz"):
            PitchConfig(floor=floor)
    config = PitchConfig(floor=300.0)
    assert config.window == 0.010
    track = pitch_track(synth(SynthSpec(kind="sine", f0=400.0, duration=0.5)), config)
    assert track.voiced_count > 0
    npt.assert_allclose(track.f0[track.voiced], 400.0, rtol=0.01)


@pytest.mark.parametrize("floor,ceiling,shortest,longest", [(300.0, 301.0, 54, 53), (138.0, 139.0, 116, 115)])
def test_config_refuses_an_empty_lag_range(floor, ceiling, shortest, longest):
    """A floor and ceiling between two 16 kHz lags leave the peak search no lag, which would read every frame unvoiced."""
    with pytest.raises(ValueError, match=f"^floor {floor:g} Hz and ceiling {ceiling:g} Hz leave no lag to search at "
                                         f"16000 Hz: the shortest, {shortest} samples, is above the longest, {longest}$"):
        PitchConfig(floor=floor, ceiling=ceiling)
