"""The pitch ACF and the CPP cepstrum, formed in part, against the full inverse FFTs.

testkit.acf_reference and testkit.cepstrum_reference are the whole
np.fft.irfft outputs. pitch._oversampled forms the oversampled ACF as
three inverse FFTs of the frame's transform size, one per lag phase, and
audio.irfft_columns the cepstrum only at the columns CPP reads, through
one half-length real FFT. Agreement is required within 1e-12 of each row's
largest |value| in the full transform. frame_pitch as a whole is held to
testkit.pitch_reference, which tracks one row at a time.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from timbrekit import noise_metrics
from timbrekit.audio import SynthSpec, irfft_columns, synth
from timbrekit.features import MEASURE_NAMES, extract_track
from timbrekit.harmonics import Spectrum, magnitude_spectrum
from timbrekit.noise_metrics import cpp_from_spectrum
from timbrekit.pitch import PitchConfig, _oversampled, frame_pitch
from timbrekit.testkit import (
    acf_reference,
    build_timbre_corpus,
    cepstral_peak_reference,
    cepstrum_reference,
    pitch_reference,
)

SR = 16000


def assert_columns_match(got, full, start, stop):
    """got equals full[:, start:stop] within 1e-12 of each row's largest |value| in full."""
    assert got.shape == (full.shape[0], stop - start)
    scale = np.max(np.abs(full), axis=1, keepdims=True, initial=0.0)
    assert np.all(np.abs(got - full[:, start:stop]) <= 1e-12 * scale)


def columns(x, n, start, stop):
    """irfft_columns' window start..stop - 1, written into a NaN-filled out."""
    out = np.full((x.shape[0], stop - start), np.nan)
    irfft_columns(x, n, start, out)
    return out


@st.composite
def half_spectra(draw):
    """(x, n, start, stop): rows of a full real half-spectrum of an even n, as the CPP cepstrum's dB spectrum."""
    n = 2 * draw(st.integers(1, 1100))  # n / 2 odd and even, n = 2 to 2200
    rows = draw(st.integers(0, 4))
    # No magnitude so small that a term of the transform turns subnormal and loses precision.
    elements = st.one_of(st.just(0.0), st.floats(1e-100, 1e3), st.floats(-1e3, -1e-100))
    x = draw(arrays(np.float64, (rows, n // 2 + 1), elements=elements))
    start = draw(st.integers(1, n // 2))
    stop = draw(st.integers(start + 1, n // 2 + 1))
    return x, n, start, stop


class TestCepstrum:
    @given(half_spectra())
    @settings(max_examples=60, deadline=None)
    def test_columns_match_the_inverse_fft(self, case):
        """Any window within 1..n/2, written into a preallocated out."""
        x, n, start, stop = case
        assert_columns_match(columns(x, n, start, stop), cepstrum_reference(x), start, stop)

    @pytest.mark.parametrize("n", [4096, 4098, 2, 4, 6])
    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_fft_sizes_and_block_shapes(self, n, rows):
        """n = 4096 and 4 fold a middle bin onto itself; 4098, 2 and 6 (n = 2 mod 4) do not."""
        x = np.random.default_rng(n + rows).normal(0.0, 20.0, (rows, n // 2 + 1))
        start, stop = min(16, n // 2), min(268, n // 2 + 1)
        assert_columns_match(columns(x, n, start, stop), cepstrum_reference(x), start, stop)

    @pytest.mark.parametrize("n", [4096, 4098])
    def test_all_zero_block_reads_zero(self, n):
        x = np.zeros((2, n // 2 + 1))
        npt.assert_array_equal(columns(x, n, 16, 268), 0.0)

    def test_more_bins_than_the_transform_holds_is_an_error(self):
        with pytest.raises(ValueError, match="10 bins are not the full half-spectrum of an even 16-point"):
            irfft_columns(np.zeros((1, 10)), 16, 1, np.empty((1, 4)))

    @pytest.mark.parametrize("bins, n", [(5, 16), (9, 17)])
    def test_a_part_or_odd_spectrum_is_an_error(self, bins, n):
        with pytest.raises(ValueError, match=f"{bins} bins are not the full half-spectrum of an even {n}-point"):
            irfft_columns(np.zeros((1, bins)), n, 1, np.empty((1, 4)))

    @pytest.mark.parametrize("start, width", [(0, 1), (0, 9), (8, 2), (9, 1), (1, 9), (3, 0)])
    def test_a_window_outside_1_to_n_over_2_is_an_error(self, start, width):
        """Column 0 and the columns past n/2 (the mirror of those below it) are not formed."""
        with pytest.raises(ValueError, match=r"columns .* are not within 1\.\.8"):
            irfft_columns(np.zeros((1, 9)), 16, start, np.empty((1, width)))

    def test_a_16k_block_of_cpp_quefrencies(self):
        """The columns CPP reads at 16 kHz (16..267 of a 4096-point cepstrum), on a whole 128-row block."""
        level = np.random.default_rng(1).normal(0.0, 20.0, (128, 2049))
        assert_columns_match(columns(level, 4096, 16, 268), cepstrum_reference(level), 16, 268)


class TestCpp:
    @pytest.mark.parametrize("sample_rate", [16000, 22050, 44100, 48000])
    def test_matches_the_reference_on_slices(self, sample_rate):
        """4096-, 4096-, 8192- and 8192-point slice spectra: every rate takes the one half-length transform."""
        n = int(round(0.040 * sample_rate))
        rows = []
        for f0 in (95.0, 170.0, 310.0):
            buf = synth(SynthSpec(kind="mixture", f0=f0, duration=0.2, noise_gain=0.05,
                                  tilt_db_per_octave=-6.0, seed=3, sample_rate=sample_rate))
            rows.append(buf.samples[n : 2 * n])
        rows.append(np.zeros(n))
        spec = magnitude_spectrum(np.array(rows), sample_rate)
        _, want = cepstral_peak_reference(spec)
        npt.assert_allclose(cpp_from_spectrum(spec), want, rtol=0, atol=1e-9)
        assert np.isnan(want[-1])

    def test_a_block_reads_each_row_bitwise(self):
        """A 128-row block's CPP equals its rows' one at a time: no bit depends on the rows beside it."""
        samples = synth(SynthSpec(kind="mixture", f0=140.0, duration=1.5, noise_gain=0.1, tilt_db_per_octave=-6.0,
                                  seed=5)).samples
        spec = magnitude_spectrum(np.lib.stride_tricks.sliding_window_view(samples, 640)[::80][:128], SR)
        assert spec.magnitudes.shape[0] == 128
        rows = [cpp_from_spectrum(Spectrum(spec.frequencies, mags[np.newaxis], spec.sample_rate))[0]
                for mags in spec.magnitudes]
        npt.assert_array_equal(cpp_from_spectrum(spec), rows)

    @pytest.mark.parametrize("bins", [2049, 2050, 1601])
    def test_matches_the_reference_on_hand_built_spectra(self, bins):
        """fft_size 4096, 4098 and 3200: n = 0 and 2 (mod 4)."""
        rng = np.random.default_rng(bins)
        mags = rng.lognormal(0.0, 2.0, (4, bins))
        mags[2] = 0.0
        spec = Spectrum(np.linspace(0.0, SR / 2, bins), mags, float(SR))
        _, want = cepstral_peak_reference(spec)
        npt.assert_allclose(cpp_from_spectrum(spec), want, rtol=0, atol=1e-9)


@st.composite
def power_spectra(draw):
    """(power, start, stop): rows of a power spectrum of a power-of-two nfft, and oversampled lags in it."""
    nfft = 2 ** draw(st.integers(1, 11))
    rows = draw(st.integers(0, 4))
    # No power so small that a term of the transform turns subnormal and loses precision.
    elements = st.one_of(st.just(0.0), st.floats(1e-100, 1e6))
    power = draw(arrays(np.float64, (rows, nfft // 2 + 1), elements=elements))
    start = draw(st.integers(0, 4 * nfft - 1))
    stop = draw(st.integers(start + 1, 4 * nfft))
    return power, start, stop


class TestPitchAcf:
    @given(power_spectra())
    @settings(max_examples=60, deadline=None)
    def test_lags_match_the_inverse_fft(self, case):
        power, start, stop = case
        assert_columns_match(_oversampled(power, start, stop), acf_reference(power), start, stop)

    @pytest.mark.parametrize("rows", [0, 1, 128])
    def test_the_16k_tracker_lags(self, rows):
        """Lags 107..857 of a 1024-point spectrum: the default 75 Hz floor at 16 kHz."""
        power = np.abs(np.fft.rfft(np.random.default_rng(rows).normal(size=(rows, 640)), 1024)) ** 2
        assert_columns_match(_oversampled(power, 107, 858), acf_reference(power), 107, 858)

    def test_all_zero_block_reads_zero(self):
        npt.assert_array_equal(_oversampled(np.zeros((3, 513)), 107, 858), 0.0)


def voice_frames(spec, config):
    """(frames, global peak): the config's windows of a rendered spec, one every 10 ms."""
    samples = synth(spec).samples
    n = int(round(config.window * SR))
    return np.lib.stride_tricks.sliding_window_view(samples, n)[:: SR // 100], float(np.max(np.abs(samples)))


def assert_pitch_matches(frames, global_peak, config):
    """frame_pitch against testkit.pitch_reference: the same voicing, f0 and strength within 1e-12."""
    f0, strength = frame_pitch(frames, config, SR, global_peak)
    want_f0, want_strength = pitch_reference(frames, config, SR, global_peak)
    npt.assert_array_equal(np.isnan(f0), np.isnan(want_f0))
    npt.assert_allclose(f0, want_f0, rtol=1e-12, atol=0)
    npt.assert_allclose(strength, want_strength, rtol=1e-12, atol=0)
    return f0


class TestPitch:
    """frame_pitch against the reference: every row's 4 nfft-point ACF, one row at a time."""

    @given(
        spec=st.builds(
            SynthSpec,
            kind=st.just("mixture"),
            f0=st.floats(60.0, 500.0),
            duration=st.just(0.2),
            noise_gain=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
            subharmonic_gain=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
            tilt_db_per_octave=st.one_of(st.just(0.0), st.floats(-12.0, 0.0)),
            seed=st.integers(0, 2**16),
        ),
        floor=st.sampled_from([30.0, 50.0, 75.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_mixtures_match_the_reference(self, spec, floor):
        config = PitchConfig(floor=floor)
        assert_pitch_matches(*voice_frames(spec, config), config)

    @pytest.mark.parametrize("floor", [30.0, 50.0, 75.0])
    @pytest.mark.parametrize("kind, f0", [("pulse_train", 61.0), ("pulse_train", 133.3), ("pulse_train", 300.0),
                                          ("white_noise", 100.0)])
    def test_flat_spectra_match_the_reference(self, kind, f0, floor):
        """A pulse train's ACF peaks are about a sample wide and white noise's are everywhere: the widest bounds."""
        config = PitchConfig(floor=floor)
        assert_pitch_matches(*voice_frames(SynthSpec(kind=kind, f0=f0, duration=0.2, seed=3), config), config)

    @pytest.mark.parametrize("level", [0.1, 1.0, 10.0])
    def test_energy_at_nyquist_matches_the_reference(self, level):
        """A voice under a tone at 16 kHz's Nyquist frequency: the phases weigh that bin as the 4x FFT does."""
        config = PitchConfig()
        frames, _ = voice_frames(SynthSpec(kind="mixture", f0=150.0, duration=0.2, noise_gain=0.1, seed=2), config)
        frames = frames + level * np.cos(np.pi * np.arange(frames.shape[1]))
        assert_pitch_matches(frames, float(np.max(np.abs(frames))), config)

    def test_a_thirty_hz_floor_tracks_a_low_voice(self):
        """A 30 Hz floor's 4096-point ACF phases read a 45 Hz pulse train."""
        config = PitchConfig(floor=30.0)
        frames, peak = voice_frames(SynthSpec(kind="pulse_train", f0=45.0, duration=0.5), config)
        f0 = assert_pitch_matches(frames, peak, config)
        npt.assert_allclose(f0, 45.0, atol=0.5)

    def test_gated_and_silent_rows(self):
        config = PitchConfig()
        frames, peak = voice_frames(SynthSpec(kind="mixture", f0=140.0, duration=0.2, seed=1), config)
        frames = frames.copy()
        frames[2] *= 0.01
        frames[3] = 0.0
        f0 = assert_pitch_matches(frames, peak, config)
        assert np.isnan(f0[2:4]).all() and np.isfinite(f0[4:]).all()
        assert_pitch_matches(np.zeros((2, frames.shape[1])), 0.0, config)


def test_features_match_the_fft_path(monkeypatch):
    """extract_track as shipped and with CPP's columns cut from the full inverse FFT: same voicing, measures within 1e-9."""
    voices = [synth(v.spec) for v in build_timbre_corpus(seed=4, size=8).voices]
    shipped = [extract_track(buf) for buf in voices]
    with monkeypatch.context() as patch:
        def full_fft(x, n, start, out):
            out[:] = cepstrum_reference(x)[:, start : start + out.shape[1]]

        patch.setattr(noise_metrics, "irfft_columns", full_fft)
        fft = [extract_track(buf) for buf in voices]
    for a, b in zip(shipped, fft):
        npt.assert_array_equal(a.voiced, b.voiced)
        assert a.voiced.sum() > 50
        for name, got, want in zip(MEASURE_NAMES, a.values.T, b.values.T):
            npt.assert_allclose(got, want, rtol=1e-9, atol=0, err_msg=name)
