"""The pitch ACF and the CPP cepstrum, formed as cosine products, against the full inverse FFTs.

testkit.acf_reference and testkit.cepstrum_reference are the whole
np.fft.irfft outputs; audio.irfft_columns forms only the columns the
measures read. Agreement is required within 1e-12 of each row's largest
|value| in the full transform.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from timbrekit import audio, pitch
from timbrekit.audio import SynthSpec, irfft_columns, synth
from timbrekit.features import MEASURE_NAMES, extract_track
from timbrekit.harmonics import Spectrum, magnitude_spectrum
from timbrekit.noise_metrics import cpp_from_spectrum
from timbrekit.pitch import PitchConfig, _lag_acf, frame_pitch
from timbrekit.testkit import (
    acf_reference,
    build_timbre_corpus,
    cepstral_peak_reference,
    cepstrum_reference,
)

SR = 16000


def assert_columns_match(got, full, start, stop):
    """got equals full[:, start:stop] within 1e-12 of each row's largest |value| in full."""
    assert got.shape == (full.shape[0], stop - start)
    scale = np.max(np.abs(full), axis=1, keepdims=True, initial=0.0)
    assert np.all(np.abs(got - full[:, start:stop]) <= 1e-12 * scale)


@st.composite
def half_spectra(draw, full):
    """(x, n, start, stop): rows of a real half-spectrum for an n-point inverse transform.

    With full, x spans every bin n // 2 + 1 of an even n, as the CPP
    cepstrum's dB spectrum does; otherwise x holds the nfft // 2 + 1 bins
    of a power spectrum and n = 4 * nfft, as the oversampled pitch ACF does.
    """
    if full:
        n = 2 * draw(st.integers(1, 1100))  # n / 2 odd and even, n = 2 to 2200
        bins = n // 2 + 1
    else:
        nfft = 2 * draw(st.integers(1, 300))
        bins, n = nfft // 2 + 1, 4 * nfft
    rows = draw(st.integers(0, 4))
    # No magnitude so small that a term of the transform turns subnormal and loses precision.
    elements = st.one_of(st.just(0.0), st.floats(1e-100, 1e3), st.floats(-1e3, -1e-100))
    x = draw(arrays(np.float64, (rows, bins), elements=elements))
    if not full:
        x = np.abs(x)
    start = draw(st.integers(0, n - 1))
    stop = draw(st.integers(start + 1, n))
    return x, n, start, stop


class TestCepstrum:
    @given(half_spectra(full=True))
    @settings(max_examples=60, deadline=None)
    def test_columns_match_the_inverse_fft(self, case):
        x, n, start, stop = case
        assert_columns_match(irfft_columns(x, n, start, stop), cepstrum_reference(x), start, stop)

    @pytest.mark.parametrize("n", [4096, 4098, 2, 4, 6])
    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_fft_sizes_and_block_shapes(self, n, rows):
        """n = 4096 and 4 fold a middle bin onto itself; 4098, 2 and 6 (n = 2 mod 4) do not."""
        x = np.random.default_rng(n + rows).normal(0.0, 20.0, (rows, n // 2 + 1))
        start, stop = min(16, n - 1), min(268, n)
        assert_columns_match(irfft_columns(x, n, start, stop), cepstrum_reference(x), start, stop)

    @pytest.mark.parametrize("n", [4096, 4098])
    def test_all_zero_block_reads_zero(self, n):
        x = np.zeros((2, n // 2 + 1))
        npt.assert_array_equal(irfft_columns(x, n, 16, 268), 0.0)

    def test_more_bins_than_the_transform_holds_is_an_error(self):
        with pytest.raises(ValueError, match="10 bins do not fit a 16-point real spectrum"):
            irfft_columns(np.zeros((1, 10)), 16, 0, 4)

    def test_the_16k_cepstrum_takes_the_product(self):
        audio._cosine_basis.cache_clear()
        level = np.random.default_rng(1).normal(0.0, 20.0, (5, 2049))
        assert_columns_match(irfft_columns(level, 4096, 16, 268), cepstrum_reference(level), 16, 268)
        assert audio._cosine_basis.cache_info().currsize == 2  # the even and the odd quefrencies


class TestCpp:
    @pytest.mark.parametrize("sample_rate", [16000, 22050, 44100, 48000])
    def test_matches_the_reference_on_slices(self, sample_rate):
        """The 16 and 22.05 kHz slices take the product, the 44.1 and 48 kHz ones the FFT."""
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

    @pytest.mark.parametrize("bins", [2049, 2050, 1601])
    def test_matches_the_reference_on_hand_built_spectra(self, bins):
        """fft_size 4096, 4098 and 3200: n = 0 and 2 (mod 4)."""
        rng = np.random.default_rng(bins)
        mags = rng.lognormal(0.0, 2.0, (4, bins))
        mags[2] = 0.0
        spec = Spectrum(np.linspace(0.0, SR / 2, bins), mags, float(SR))
        _, want = cepstral_peak_reference(spec)
        npt.assert_allclose(cpp_from_spectrum(spec), want, rtol=0, atol=1e-9)


class TestPitchAcf:
    @given(half_spectra(full=False))
    @settings(max_examples=60, deadline=None)
    def test_lags_match_the_inverse_fft(self, case):
        power, _, start, stop = case
        zero, acf = _lag_acf(power, start, stop)
        full = acf_reference(power)
        assert_columns_match(acf, full, start, stop)
        assert_columns_match(zero[:, np.newaxis], full, 0, 1)

    @pytest.mark.parametrize("rows", [0, 1, 128])
    def test_the_16k_tracker_lags(self, rows):
        """lags 107..857 of a 4096-point ACF: the default 75 Hz floor at 16 kHz."""
        power = np.abs(np.fft.rfft(np.random.default_rng(rows).normal(size=(rows, 640)), 1024)) ** 2
        zero, acf = _lag_acf(power, 107, 858)
        full = acf_reference(power)
        assert_columns_match(acf, full, 107, 858)
        assert_columns_match(zero[:, np.newaxis], full, 0, 1)

    def test_all_zero_block_reads_zero(self):
        zero, acf = _lag_acf(np.zeros((3, 513)), 107, 858)
        npt.assert_array_equal(zero, 0.0)
        npt.assert_array_equal(acf, 0.0)

    def test_a_thirty_hz_floor_takes_the_fft(self):
        """Its basis would be 33 MB, over the cap; the track is still right."""
        audio._cosine_basis.cache_clear()
        pitch._taper_acf.cache_clear()
        config = PitchConfig(floor=30.0)
        buf = synth(SynthSpec(kind="pulse_train", f0=45.0, duration=0.5))
        n = int(round(config.window * SR))
        f0, strength = frame_pitch(buf.samples[:n], config, SR, float(np.max(np.abs(buf.samples))))
        assert audio._cosine_basis.cache_info().currsize == 0
        assert f0[0] == pytest.approx(45.0, abs=0.5)
        assert strength[0] > 0.9
        power = np.abs(np.fft.rfft(buf.samples[np.newaxis, :n], 4096)) ** 2
        _, acf = _lag_acf(power, 107, 2138)
        assert_columns_match(acf, acf_reference(power), 107, 2138)


def test_features_match_the_fft_path(monkeypatch):
    """extract_track as shipped and with both transforms on the FFT: same voicing, measures within 1e-9."""
    voices = [synth(v.spec) for v in build_timbre_corpus(seed=4, size=8).voices]
    audio._cosine_basis.cache_clear()
    shipped = [extract_track(buf) for buf in voices]
    assert audio._cosine_basis.cache_info().currsize == 3  # the pitch basis and CPP's two
    pitch._taper_acf.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(audio, "_COSINE_BASIS_CAP", 0)
            fft = [extract_track(buf) for buf in voices]
    finally:
        pitch._taper_acf.cache_clear()
    for a, b in zip(shipped, fft):
        npt.assert_array_equal(a.voiced, b.voiced)
        assert a.voiced.sum() > 50
        for name, got, want in zip(MEASURE_NAMES, a.values.T, b.values.T):
            npt.assert_allclose(got, want, rtol=1e-9, atol=0, err_msg=name)
