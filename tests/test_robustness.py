"""Metamorphic checks of the acoustic vector: a known change to the input, and what each column does.

The voices are the 24 of build_timbre_corpus(3, 24). Every bound below was
measured on them first and is stated with its measured worst case.
"""

import numpy as np
import pytest

from timbrekit.audio import AudioBuffer, load_audio, resample, synth, write_wav
from timbrekit.features import (
    FEATURE_KINDS, FEATURE_NAMES, MEASURE_NAMES, FrameTrack, aggregate, extract_track, extract_vector, vector_for,
)
from timbrekit.testkit import build_timbre_corpus

GAIN = 0.05
RMS = FEATURE_NAMES.index("mean_rms")
N_MEANS = len(MEASURE_NAMES)


@pytest.fixture(scope="module")
def tracks():
    """(track, track of the same samples scaled by GAIN) of each voice, with no WAV round trip."""
    pairs = []
    for voice in build_timbre_corpus(3, 24).voices:
        buf = synth(voice.spec)
        quiet = AudioBuffer(buf.samples * GAIN, buf.sample_rate)
        pairs.append((extract_track(buf), extract_track(quiet)))
    return pairs


def relative(got, want):
    return np.abs(got - want) / np.abs(want)


class TestGain:
    def test_columns_but_mean_rms_do_not_move(self, tracks):
        """Measured worst: 1.8e-8 on the means (mean_h2k_h5k), 1.41e-7 on the CoVs (cov_rms).

        Not exact because of two absolute guards: harmonics._DB_GUARD under
        the tilt levels' logarithm, and features._COV_EPSILON in the CoV's
        denominator, which weighs 20x more against the quieter mean_rms.
        """
        for loud, quiet in tracks:
            assert np.array_equal(loud.voiced, quiet.voiced)
            want, got = aggregate(loud).values, aggregate(quiet).values
            means = np.delete(relative(got[:N_MEANS], want[:N_MEANS]), RMS)
            assert means.max() <= 2e-8
            assert relative(got[N_MEANS:], want[N_MEANS:]).max() <= 1.5e-7

    def test_mean_rms_scales_with_the_gain(self, tracks):
        """Measured worst: 3.9e-16 relative, under 2 ulp."""
        for loud, quiet in tracks:
            want = GAIN * aggregate(loud).values[RMS]
            assert relative(aggregate(quiet).values[RMS], want) <= 1e-15


@pytest.mark.parametrize("seed", [3, 4])
def test_polarity_inversion_is_exact(seed):
    """Negated samples give bitwise the same acoustic, mfcc and lfc vectors.

    Every stage before a product or a magnitude is linear in the samples,
    and IEEE rounding is symmetric about zero, so the sign cancels exactly.
    Measured on the 72 voices of seeds 3-5: no bit moved.
    """
    for voice in build_timbre_corpus(seed, 24).voices:
        buf = synth(voice.spec)
        inverted = AudioBuffer(-buf.samples, buf.sample_rate)
        for kind in FEATURE_KINDS:
            want, got = vector_for(kind, buf).values, vector_for(kind, inverted).values
            assert np.array_equal(got, want), (voice.utt_id, kind)


def test_aggregate_ignores_frame_order(tracks):
    """Mean and CoV pool without regard to order, so shuffled rows move only the summation's rounding.

    Measured worst over 50 shuffles of each of the 24 tracks: 8.7e-16 relative.
    """
    rng = np.random.default_rng(14)
    for track, _ in tracks:
        order = rng.permutation(len(track.times))
        shuffled = FrameTrack(times=track.times[order], values=track.values[order])
        want = aggregate(track).values
        assert relative(aggregate(shuffled).values, want).max() <= 1e-15


# The columns that hold through a 44.1 kHz WAV. Their worst drift over the
# 24 voices of each of corpus seeds 3 to 8 was 0.49 % (mean_dispersion, seed
# 4); at seed 3 it is 0.24 % (cov_f0). The other 15 columns do not hold and
# are not bounded: at seed 3, mean_cpp moved by up to 7.0 %, cov_cpp by 62 %,
# cov_h2k_h5k by 49 %, the other CoVs by 10-16 % and the tilt means by up to
# 4.8 % (mean_h4_h2k by 0.37 %, but by 1.9 % at seed 4).
RATE_HELD = ("mean_f0", "mean_f1", "mean_f2", "mean_f3", "mean_f4", "mean_dispersion", "mean_rms", "mean_shr",
             "cov_f0", "cov_rms", "cov_shr")


def test_rate_round_trip(tmp_path):
    """Each voice as a 16 kHz WAV and as a 44.1 kHz WAV, both read back by load_audio.

    Both paths go through 16-bit quantisation, so the comparison isolates the
    rate change (resample up, then load_audio's resample back down). The
    voiced frames are the same on all 24 voices; the held columns move by
    at most 1 %.
    """
    held = [FEATURE_NAMES.index(name) for name in RATE_HELD]
    for i, voice in enumerate(build_timbre_corpus(3, 24).voices):
        buf = synth(voice.spec)
        native, upsampled = tmp_path / f"{i}_16k.wav", tmp_path / f"{i}_44k.wav"
        write_wav(native, buf)
        write_wav(upsampled, resample(buf, 44100))
        want, got = extract_track(load_audio(native)), extract_track(load_audio(upsampled))
        assert np.array_equal(got.voiced, want.voiced)
        drift = relative(aggregate(got).values[held], aggregate(want).values[held])
        assert drift.max() <= 0.01, RATE_HELD[int(np.argmax(drift))]


# Absolute budget of each column under 0.1 s of digital zeros before or after
# the voice: 1.25 times the worst change over the 24 voices of each of corpus
# seeds 3 to 8 (leading and trailing alike), rounded up to two figures. The
# comment gives that worst change, where the zeros were, and the voice. No
# vector stayed bitwise equal: the frames that straddle the edge of the
# zeros are voiced and read, and the onset frames' f0 can be far off the
# voice's (seed 4 spk010 with leading zeros: 547 and 537 Hz, against 156 Hz).
SILENCE_BUDGET = {
    "mean_f0": 9.9,  # 7.89 Hz, trailing, seed 5 spk011
    "mean_f1": 3.1,  # 2.43 Hz, trailing, seed 6 spk009
    "mean_f2": 17.0,  # 13.5 Hz, trailing, seed 4 spk003
    "mean_f3": 12.0,  # 8.99 Hz, trailing, seed 5 spk011
    "mean_f4": 26.0,  # 20.2 Hz, trailing, seed 7 spk007
    "mean_dispersion": 8.3,  # 6.56 Hz, trailing, seed 7 spk007
    "mean_h1_h2": 0.29,  # 0.232 dB, leading, seed 3 spk015
    "mean_h2_h4": 0.49,  # 0.391 dB, leading, seed 6 spk018
    "mean_h4_h2k": 0.44,  # 0.347 dB, trailing, seed 4 spk019
    "mean_h2k_h5k": 1.9,  # 1.50 dB, trailing, seed 5 spk011
    "mean_cpp": 0.77,  # 0.614 dB, trailing, seed 5 spk006
    "mean_rms": 0.0027,  # 0.00215, trailing, seed 4 spk020
    "mean_shr": 0.73,  # 0.583 dB, trailing, seed 6 spk021
    "cov_f0": 0.68,  # 0.536, trailing, seed 5 spk011
    "cov_f1": 0.05,  # 0.0395, trailing, seed 6 spk009
    "cov_f2": 0.13,  # 0.101, trailing, seed 4 spk003
    "cov_f3": 0.036,  # 0.0285, trailing, seed 4 spk014
    "cov_f4": 0.071,  # 0.0562, trailing, seed 3 spk020
    "cov_dispersion": 0.084,  # 0.0667, trailing, seed 3 spk020
    "cov_h1_h2": 2.6,  # 2.04, leading, seed 3 spk015
    "cov_h2_h4": 19.0,  # 14.6, trailing, seed 6 spk011
    "cov_h4_h2k": 0.72,  # 0.575, leading, seed 3 spk015
    "cov_h2k_h5k": 0.15,  # 0.120, trailing, seed 5 spk011
    "cov_cpp": 0.12,  # 0.0900, trailing, seed 8 spk011
    "cov_rms": 0.072,  # 0.0576, trailing, seed 8 spk000
    "cov_shr": 0.15,  # 0.118, trailing, seed 4 spk002
}


@pytest.mark.parametrize("seed", [3, 4])
def test_leading_and_trailing_silence(seed):
    """0.1 s of digital zeros before or after each voice moves each column by at most its budget."""
    budget = np.array([SILENCE_BUDGET[name] for name in FEATURE_NAMES])
    for voice in build_timbre_corpus(seed, 24).voices:
        buf = synth(voice.spec)
        want = extract_vector(buf).values
        zeros = np.zeros(round(0.1 * buf.sample_rate))
        for where, samples in (("leading", (zeros, buf.samples)), ("trailing", (buf.samples, zeros))):
            got = extract_vector(AudioBuffer(np.concatenate(samples), buf.sample_rate)).values
            over = [name for name, ok in zip(FEATURE_NAMES, np.abs(got - want) <= budget) if not ok]
            assert not over, (voice.utt_id, where, over)
