import json
import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from conftest import VOICE_FORMANTS, traced
from timbrekit.audio import (
    _cosine_basis,
    FRAME_BLOCK,
    AudioBuffer,
    HOP,
    SynthSpec,
    frame_blocks,
    frame_times,
    resample,
    synth,
)
from timbrekit.features import (
    _DCT_BASIS,
    CEPSTRAL_NAMES,
    CEPSTRAL_WINDOW,
    EmptyFeatureError,
    FEATURE_NAMES,
    FeatureVector,
    FrameTrack,
    MEASURE_NAMES,
    MEASURE_WINDOW,
    MEL_FFT,
    MIN_VOICED_FRAMES,
    N_FILTERS,
    SchemaError,
    SilentUtteranceError,
    aggregate,
    extract_track,
    extract_vector,
    filterbank_matrix,
    lfc,
    mfcc,
    read_features,
    write_features,
)
from timbrekit.formants import (
    ANALYSIS_RATE,
    LPC_ORDER,
    PRE_EMPHASIS_FROM,
    WINDOW,
    FormantTrack,
    _TAPER,
    burg,
    dispersion,
    formant_track,
    roots_to_formants,
)
from timbrekit.harmonics import TILT_NAMES, magnitude_spectrum, rms_energy, tilt_measures
from timbrekit.noise_metrics import cpp_from_spectrum, shr
from timbrekit.pitch import PitchConfig, _taper_acf, frame_pitch

SR = 16000


def track_from_series(**series):
    """Build a synthetic FrameTrack; unspecified measures copy f0's mask."""
    n = len(next(iter(series.values())))
    values = np.ones((n, len(MEASURE_NAMES)))
    for name, column in series.items():
        values[:, MEASURE_NAMES.index(name)] = column
    values[~np.isfinite(values[:, 0])] = np.nan
    return FrameTrack(times=np.arange(n) * 0.01, values=values)


class TestCanonicalOrder:
    def test_names(self):
        assert len(FEATURE_NAMES) == 26
        assert FEATURE_NAMES[0] == "mean_f0"
        assert FEATURE_NAMES[11] == "mean_rms"
        assert FEATURE_NAMES[13] == "cov_f0"
        assert FEATURE_NAMES[25] == "cov_shr"
        assert len(MEASURE_NAMES) == 13


class TestExtractTrack:
    def test_synthetic_voice_coverage(self):
        buf = synth(SynthSpec(kind="resonated_pulses", f0=120.0, duration=1.0,
                              formants=VOICE_FORMANTS))
        track = extract_track(buf)
        assert track.voiced.sum() >= 80
        assert track.values.shape == (track.times.size, len(MEASURE_NAMES))
        present = np.isfinite(track.values[track.voiced]).mean(axis=0)
        for name, share in zip(MEASURE_NAMES, present):
            assert share >= 0.90, name

    def test_white_noise_mostly_unvoiced(self):
        track = extract_track(synth(SynthSpec(kind="white_noise", duration=1.0, seed=3)))
        assert track.voiced.sum() == 0

    def test_all_zero_buffer(self):
        track = extract_track(AudioBuffer(np.zeros(SR), SR))
        assert track.voiced.sum() == 0

    def test_unvoiced_frames_all_missing(self):
        buf = synth(SynthSpec(kind="white_noise", duration=1.0, seed=3))
        track = extract_track(buf)
        assert np.all(np.isnan(track.values[~track.voiced]))

    def test_peak_memory_does_not_grow_with_duration(self):
        """The measures run FRAME_BLOCK frames at a time, so a 20 s voice peaks as low as a 3 s one.

        The cached taper ACF and cosine bases are dropped first, so the
        peak counts building them. CPP's 2 MB of bases themselves sit in
        mappings of their own, which tracemalloc does not see.
        """
        buf = synth(SynthSpec(kind="mixture", f0=130.0, duration=20.0, formants=VOICE_FORMANTS,
                              tilt_db_per_octave=-6.0, noise_gain=0.004, seed=1))
        _taper_acf.cache_clear()
        _cosine_basis.cache_clear()
        track, _, peak = traced(lambda: extract_track(buf))
        assert peak < 16e6
        assert track.voiced.mean() > 0.95

    def test_determinism_bitwise(self, voiced_buffer):
        a = extract_track(voiced_buffer)
        b = extract_track(voiced_buffer)
        npt.assert_array_equal(a.voiced, b.voiced)
        npt.assert_array_equal(a.values, b.values)

    def test_timestamps_increase_by_step(self, voiced_buffer):
        track = extract_track(voiced_buffer)
        npt.assert_allclose(np.diff(track.times), 0.01, rtol=1e-9)


def bursts_and_gaps():
    """Voiced bursts between digital silence and low noise, longer than one frame block."""
    rng = np.random.default_rng(17)

    def voice(f0, duration, seed):
        return synth(SynthSpec(kind="mixture", f0=f0, duration=duration, formants=VOICE_FORMANTS,
                               tilt_db_per_octave=-6.0, noise_gain=0.004, seed=seed)).samples

    parts = [
        voice(130.0, 1.4, 1), np.zeros(4000), 0.05 * rng.uniform(-1, 1, 6000),
        voice(210.0, 1.4, 2), np.zeros(3000), 0.004 * rng.uniform(-1, 1, 5000),
        voice(160.0, 1.0, 3),
    ]
    return AudioBuffer(np.concatenate(parts), SR)


def one_window_formants(buf, centers):
    """formant_track's frames at `centers`, from one-row burg and roots_to_formants calls."""
    work = resample(buf, ANALYSIS_RATE)
    rate = work.sample_rate
    alpha = np.exp(-2.0 * np.pi * PRE_EMPHASIS_FROM / rate)
    emphasized = np.concatenate([work.samples[:1], work.samples[1:] - alpha * work.samples[:-1]])
    win = int(round(WINDOW * rate))
    rows = []
    for center in centers:
        start = int(round(center * rate - win / 2.0))
        if 0 <= start and start + win <= emphasized.size:
            lpc = burg(emphasized[start : start + win] * _TAPER, LPC_ORDER)
        else:  # the window is outside the buffer
            lpc = np.full(LPC_ORDER, np.nan)
        rows.append(roots_to_formants(lpc, rate))
    return FormantTrack(np.concatenate([r.frequencies for r in rows]),
                        np.concatenate([r.bandwidths for r in rows]))


def one_frame_track(buf, pitch):
    """extract_track's per-frame series recomputed one frame at a time, and the edge-drop count."""
    sr, x = buf.sample_rate, buf.samples
    pitch_win = int(round(3.0 / pitch.floor * sr))
    slice_win = int(round(MEASURE_WINDOW * sr))
    hop = int(round(HOP * sr))
    times = (np.arange(0, x.size - pitch_win + 1, hop) + pitch_win / 2.0) / sr
    formants = one_window_formants(buf, times)
    global_peak = float(np.max(np.abs(x)))
    voiced = np.zeros(times.size, dtype=bool)
    values = np.full((times.size, len(MEASURE_NAMES)), np.nan)
    edge_drops = 0
    for i, center in enumerate(times):
        start = int(round(center * sr - pitch_win / 2.0))
        f0, _ = frame_pitch(x[start : start + pitch_win], pitch, sr, global_peak)
        if np.isnan(f0[0]):
            continue
        start = int(round(center * sr - slice_win / 2.0))
        if start < 0 or start + slice_win > x.size:
            edge_drops += 1
            continue
        voiced[i] = True
        window = x[start : start + slice_win]
        freqs, bws = formants.frequencies[i : i + 1], formants.bandwidths[i : i + 1]
        spectrum = magnitude_spectrum(window, sr)
        row = {"f0": f0, "rms": rms_energy(window)}
        row.update({f"f{k}": freqs[:, k - 1] for k in range(1, 5)})
        row["dispersion"] = dispersion(freqs[:, 0], freqs[:, 3])
        tilt = tilt_measures(spectrum, f0, freqs, bws)
        row.update(zip(TILT_NAMES, tilt.T))
        row["shr"] = shr(spectrum, f0)
        row["cpp"] = cpp_from_spectrum(spectrum)  # NaN for an all-zero slice
        values[i] = [row[name][0] for name in MEASURE_NAMES]
    return times, voiced, values, edge_drops


class TestFrameIndependence:
    """Rows of the block-batched extraction equal one-row calls on that frame."""

    @staticmethod
    def check_rows(buf, pitch):
        """Compare extract_track with one_frame_track; returns the track and the edge-drop count."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            track = extract_track(buf, pitch)
        times, voiced, values, edge_drops = one_frame_track(buf, pitch)
        npt.assert_allclose(track.times, times, rtol=1e-12)
        npt.assert_array_equal(track.voiced, voiced)
        for name, got, want in zip(MEASURE_NAMES, track.values.T, values.T):
            npt.assert_array_equal(np.isnan(got), np.isnan(want), err_msg=name)
            npt.assert_allclose(got, want, rtol=1e-9, atol=1e-9, err_msg=name)
        return track, edge_drops

    @pytest.mark.parametrize("floor", [60.0, 75.0, 100.0])
    def test_rows_match_single_frame_calls(self, floor):
        track, edge_drops = self.check_rows(bursts_and_gaps(), PitchConfig(floor=floor))
        assert track.voiced.sum() > FRAME_BLOCK
        if floor == 100.0:
            # The 480-sample pitch window is shorter than the 640-sample
            # measure slice, so voiced frames at the buffer edges are dropped.
            assert edge_drops > 0

    def test_voiced_slice_in_digital_silence(self):
        # Below the 75 Hz floor the pitch window outgrows the measure slice:
        # the last voiced frame's window still reaches the voice while its
        # 40 ms slice is all zeros. That frame's CPP is missing; the
        # utterance still gets a vector.
        voice = synth(SynthSpec(kind="mixture", f0=130.0, duration=1.0, formants=VOICE_FORMANTS,
                                tilt_db_per_octave=-6.0, noise_gain=0.004, seed=1)).samples
        buf = AudioBuffer(np.concatenate([voice[:15700], np.zeros(4000)]), SR)
        pitch = PitchConfig(floor=60.0)
        track, _ = self.check_rows(buf, pitch)
        assert np.sum(track.voiced & np.isnan(track.values[:, MEASURE_NAMES.index("cpp")])) >= 1
        assert extract_vector(buf, pitch).frames == track.voiced.sum()

    def test_formant_grid_matches_single_windows(self):
        buf = bursts_and_gaps()
        centers = 0.0125 + 0.010 * np.arange(int((buf.duration - 0.025) / 0.010) + 1)
        frames = formant_track(buf, centers)
        assert len(frames) > FRAME_BLOCK
        want = one_window_formants(buf, centers)
        npt.assert_array_equal(np.isnan(frames.frequencies), np.isnan(want.frequencies))
        npt.assert_allclose(frames.frequencies, want.frequencies, rtol=1e-9)
        npt.assert_allclose(frames.bandwidths, want.bandwidths, rtol=1e-9)
        assert np.isnan(want.frequencies).all(axis=1).any()  # all-zero windows in the digital silence


def cov_rms(series):
    """The cov_rms entry of the vector aggregate pools from an rms series.

    Every frame is voiced, with f0 on MIN_VOICED_FRAMES frames at least;
    frames past the series have no rms value, so a short series still
    meets MIN_VOICED_FRAMES.
    """
    rms = np.full(max(len(series), MIN_VOICED_FRAMES), np.nan)
    rms[: len(series)] = series
    values = np.ones((rms.size, len(MEASURE_NAMES)))
    values[:, MEASURE_NAMES.index("rms")] = rms
    track = FrameTrack(times=np.arange(rms.size) * 0.01, values=values)
    return aggregate(track).values[FEATURE_NAMES.index("cov_rms")]


class TestCov:
    def test_constant_series(self):
        assert cov_rms([5.0, 5.0, 5.0]) == 0.0

    def test_123(self):
        # denominator carries the documented 1e-9 epsilon
        assert cov_rms([1.0, 2.0, 3.0]) == pytest.approx(np.sqrt(2.0 / 3.0) / (2.0 + 1e-9), rel=1e-12)

    def test_empty_errors(self):
        for series in ([], [np.nan, np.nan]):
            with pytest.raises(EmptyFeatureError) as err:
                cov_rms(series)
            assert err.value.feature == "rms"

    def test_scale_invariance(self):
        series = [1.0, 2.0, 4.5, 3.0]
        assert cov_rms(series) == pytest.approx(cov_rms([7 * v for v in series]), rel=1e-9)


class TestAggregate:
    def test_constant_f0(self):
        track = track_from_series(f0=np.full(20, 120.0))
        vector = aggregate(track)
        assert vector.values[0] == 120.0
        assert vector.values[13] == 0.0
        assert vector.frames == 20

    def test_alternating_f0(self):
        track = track_from_series(f0=np.array([100.0, 110.0] * 10))
        vector = aggregate(track)
        assert vector.values[0] == pytest.approx(105.0)
        assert vector.values[13] == pytest.approx(5.0 / 105.0, rel=1e-6)

    def test_silent_utterance(self):
        track = track_from_series(f0=np.full(5, np.nan))
        with pytest.raises(SilentUtteranceError):
            aggregate(track)

    def test_empty_feature_named(self):
        f0 = np.full(20, 120.0)
        f4 = np.full(20, np.nan)
        track = track_from_series(f0=f0, f4=f4)
        with pytest.raises(EmptyFeatureError) as err:
            aggregate(track)
        assert err.value.feature == "f4"
        assert "EMPTY_FEATURE:f4" == err.value.reason

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_vector_must_be_finite(self, value):
        with pytest.raises(ValueError, match="a feature vector must be finite"):
            FeatureVector(np.array([1.0, value]), 20)


class TestAmplitudeInvariance:
    def test_only_rms_mean_moves(self, voiced_buffer):
        base = extract_vector(voiced_buffer).values
        scaled_buf = AudioBuffer(voiced_buffer.samples * 0.5, SR)
        scaled = extract_vector(scaled_buf).values
        delta = np.abs(scaled - base)
        rms_mean = FEATURE_NAMES.index("mean_rms")
        assert delta[rms_mean] > 1e-3  # rms mean scales with amplitude
        others = np.delete(delta, rms_mean)
        assert np.max(others) <= 1e-6


class TestCepstral:
    def test_all_zero_buffer_degenerate(self):
        vector = mfcc(AudioBuffer(np.zeros(SR), SR))
        # flat log-floor spectrum: only the DC basis function survives
        expected_c0 = np.log(1e-10) * np.sqrt(26.0)
        assert vector.values[0] == pytest.approx(expected_c0, rel=1e-9)
        npt.assert_allclose(vector.values[1:], 0.0, atol=1e-9)
        lfc_vector = lfc(AudioBuffer(np.zeros(SR), SR))
        assert lfc_vector.values.shape == (13,)

    def test_energy_monotonicity(self):
        loud = mfcc(synth(SynthSpec(kind="sine", f0=1000.0, duration=0.5)))
        quiet = mfcc(AudioBuffer(np.zeros(SR // 2), SR))
        assert loud.values[0] > quiet.values[0]

    def test_output_length_13(self, voiced_buffer):
        assert mfcc(voiced_buffer).values.shape == (13,)
        assert lfc(voiced_buffer).values.shape == (13,)
        assert len(CEPSTRAL_NAMES) == 13

    def test_unknown_filterbank_scale(self):
        with pytest.raises(ValueError, match="unknown filterbank scale 'bark'"):
            filterbank_matrix(MEL_FFT, SR, "bark")

    def test_mfcc_differs_from_lfc(self):
        buf = synth(SynthSpec(kind="white_noise", duration=0.5, seed=9))
        assert np.linalg.norm(mfcc(buf).values - lfc(buf).values) > 0.0

    def test_dct_basis_matches_scipy(self, voiced_buffer):
        dct = pytest.importorskip("scipy.fft").dct  # the oracle; timbrekit itself imports no scipy

        def oracle(rows):
            return dct(rows, type=2, norm="ortho", axis=1)[:, : len(CEPSTRAL_NAMES)]

        random_rows = np.random.default_rng(0).uniform(-25.0, 10.0, (50, N_FILTERS))
        npt.assert_allclose(random_rows @ _DCT_BASIS, oracle(random_rows), rtol=0.0, atol=1e-12)
        # The log mel energies of a synthetic voice, framed as mfcc frames it.
        times = frame_times(voiced_buffer, CEPSTRAL_WINDOW)
        blocks = frame_blocks(voiced_buffer.samples, SR, times, CEPSTRAL_WINDOW)
        frames = np.concatenate([f for _, f in blocks])
        power = np.abs(np.fft.rfft(frames * np.hanning(frames.shape[1]), MEL_FFT)) ** 2
        log_energy = np.log(np.maximum(power @ filterbank_matrix(MEL_FFT, SR, "mel").T, 1e-10))
        npt.assert_allclose(log_energy @ _DCT_BASIS, oracle(log_energy), rtol=0.0, atol=1e-12)
        npt.assert_allclose(mfcc(voiced_buffer).values, oracle(log_energy).mean(axis=0), rtol=0.0, atol=1e-12)


class TestFeatureFiles:
    def rows(self):
        rng = np.random.default_rng(0)
        return [(f"utt{i:02d}", rng.normal(0, 1, 26), 90 + i) for i in range(4)]

    def test_csv_round_trip_exact(self, tmp_path):
        rows = self.rows()
        path = tmp_path / "features.csv"
        write_features(path, rows, "acoustic")
        table = read_features(path)
        assert sorted(table) == [r[0] for r in rows]
        for utt_id, vector, _ in rows:
            npt.assert_array_equal(table[utt_id], vector)

    def test_jsonl_round_trip_exact(self, tmp_path):
        rows = self.rows()
        path = tmp_path / "features.jsonl"
        write_features(path, rows, "acoustic")
        table = read_features(path)
        for utt_id, vector, _ in rows:
            npt.assert_array_equal(table[utt_id], vector)

    def test_rows_sorted_by_id(self, tmp_path):
        rows = list(reversed(self.rows()))
        path = tmp_path / "features.csv"
        write_features(path, rows, "acoustic")
        ids = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
        assert ids == sorted(ids)

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, suffix):
        path = tmp_path / f"features{suffix}"
        write_features(path, self.rows(), "acoustic")
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b"utt0", b"utt\xff0")
        path.write_bytes(b"\n".join(lines))
        column = lines[2].index(b"\xff") + 1
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: byte 0xff at column {column} is not UTF-8")):
            read_features(path)

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_names_come_from_the_file(self, tmp_path, suffix):
        rows = [(utt_id, vector[:13], count) for utt_id, vector, count in self.rows()]
        path = tmp_path / f"features{suffix}"
        write_features(path, rows, "mfcc")
        table = read_features(path)
        assert table.names == CEPSTRAL_NAMES
        for utt_id, vector, _ in rows:
            npt.assert_array_equal(table[utt_id], vector)

    def test_jsonl_values_read_by_name(self, tmp_path):
        ordered = tmp_path / "ordered.jsonl"
        write_features(ordered, self.rows(), "acoustic")
        rng = np.random.default_rng(3)
        lines = ordered.read_text().splitlines()
        shuffled = tmp_path / "shuffled.jsonl"
        with shuffled.open("w") as fh:
            fh.write(lines[0] + "\n")
            for line in lines[1:]:
                items = list(json.loads(line).items())
                fh.write(json.dumps(dict(items[i] for i in rng.permutation(len(items)))) + "\n")
        assert shuffled.read_text() != ordered.read_text()
        want, got = read_features(ordered), read_features(shuffled)
        assert got.names == want.names == FEATURE_NAMES
        assert sorted(got) == sorted(want)
        for utt_id in want:
            npt.assert_array_equal(got[utt_id], want[utt_id])

    def test_jsonl_record_with_other_names(self, tmp_path):
        path = tmp_path / "features.jsonl"
        write_features(path, self.rows(), "acoustic")
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace('"mean_f1"', '"mean_F1"')
        path.write_text("\n".join(lines) + "\n")
        want = r"features.jsonl:3: utt02 and the first record differ in \['mean_F1', 'mean_f1'\]"
        with pytest.raises(SchemaError, match=want):
            read_features(path)

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_repeated_utt_id(self, tmp_path, suffix):
        path = tmp_path / f"features{suffix}"
        write_features(path, self.rows(), "acoustic")
        lines = path.read_text().splitlines()
        repeated = next(line for line in lines if "utt01" in line)
        path.write_text("\n".join(lines + [repeated]) + "\n")
        with pytest.raises(SchemaError, match="utt_id utt01 is repeated"):
            read_features(path)

    def test_csv_header_repeating_a_name(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("utt_id,a,a,voiced_frames\nu1,1.0,2.0,3\n")
        with pytest.raises(SchemaError) as info:
            read_features(path)
        assert str(info.value) == f"{path}: the header repeats the name a"

    @pytest.mark.parametrize("name,repeat", [
        ("mean_f2", '"mean_f2": 7.0'), ("utt_id", '"utt_id": "utt09"'),
    ], ids=["value", "utt_id"])
    def test_jsonl_record_repeating_a_name(self, tmp_path, name, repeat):
        path = tmp_path / "features.jsonl"
        write_features(path, self.rows(), "acoustic")
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:-1] + f", {repeat}}}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as info:
            read_features(path)
        assert str(info.value) == f"{path}:3: the record repeats the name {name}"

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_write_rejects_repeated_utt_id(self, tmp_path, suffix):
        rows = self.rows()
        rows[3] = ("utt01", rows[3][1], rows[3][2])
        path = tmp_path / f"features{suffix}"
        with pytest.raises(SchemaError, match="utt_id utt01 is repeated"):
            write_features(path, rows, "acoustic")
        assert not path.exists()

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_write_rejects_other_width(self, tmp_path, suffix):
        path = tmp_path / f"features{suffix}"
        with pytest.raises(SchemaError, match="utt00 has 26 values, mfcc has 13 names"):
            write_features(path, self.rows(), "mfcc")
        assert not path.exists()

    @pytest.mark.parametrize("suffix,line", [(".csv", 3), (".jsonl", 2)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_write_rejects_a_value_that_is_not_finite(self, tmp_path, suffix, line, value):
        """The reader's rule and message, at the line the row would take, and no file."""
        rows = self.rows()
        rows[1][1][FEATURE_NAMES.index("mean_f3")] = value
        path = tmp_path / f"features{suffix}"
        with pytest.raises(SchemaError) as info:
            write_features(path, rows, "acoustic")
        assert str(info.value) == f"{path}:{line}: utt01 mean_f3 is not a finite number: {value}"
        assert not path.exists()

    @pytest.mark.parametrize("delete", [1, 26], ids=["first_value", "last_value"])
    def test_csv_row_with_a_missing_field(self, tmp_path, delete):
        path = tmp_path / "features.csv"
        write_features(path, self.rows(), "acoustic")
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        assert fields[0] == "utt01"
        lines[2] = ",".join(fields[:delete] + fields[delete + 1 :])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="features.csv:3: utt01 has 27 fields, the header has 28"):
            read_features(path)

    @pytest.mark.parametrize("line", [
        '{"mean_f0": 1.0}',
        '[1.0, 2.0]',
        '"utt01"',
    ], ids=["no_utt_id", "array", "string"])
    def test_jsonl_line_that_is_not_a_record(self, tmp_path, line):
        path = tmp_path / "features.jsonl"
        write_features(path, self.rows(), "acoustic")
        lines = path.read_text().splitlines()
        lines[1] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="features.jsonl:2: the record is not a JSON object with an utt_id"):
            read_features(path)

    def test_jsonl_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "features.jsonl"
        write_features(path, self.rows(), "acoustic")
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], "", *lines[1:], "  "]) + "\n\n")
        table = read_features(path)
        assert list(table) == [utt for utt, _, _ in self.rows()]
        for utt, vector, _ in self.rows():
            npt.assert_array_equal(table[utt], vector)

    @pytest.mark.parametrize("line,column", [("{", 2), ('{"utt_id": "utt01"} x', 21)], ids=["truncated", "extra"])
    def test_jsonl_line_that_is_not_json(self, tmp_path, line, column):
        path = tmp_path / "features.jsonl"
        write_features(path, self.rows(), "acoustic")
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], "", line, *lines[1:]]) + "\n")
        with pytest.raises(SchemaError, match=f"features.jsonl:3: the line is not JSON .* at column {column}"):
            read_features(path)

    def jsonl_with_mean_f2(self, tmp_path, value: str):
        """A JSONL table whose utt02 record, on line 3, holds the JSON text `value` as mean_f2."""
        path = tmp_path / "features.jsonl"
        write_features(path, self.rows(), "acoustic")
        lines = path.read_text().splitlines()
        written = json.dumps(json.loads(lines[2])["mean_f2"])
        lines[2] = lines[2].replace(f'"mean_f2": {written}', f'"mean_f2": {value}')
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("value,shown", [
        ("null", "null"), ("true", "true"), ('"1.5"', '"1.5"'), ('"x"', '"x"'), ("[1.0]", "[1.0]"),
        ("NaN", "nan"), ("-Infinity", "-inf"), ("1e400", "inf"),
    ], ids=["null", "bool", "numeric_string", "string", "array", "nan", "minus_infinity", "overflow"])
    def test_jsonl_value_that_is_not_a_finite_number(self, tmp_path, value, shown):
        path = self.jsonl_with_mean_f2(tmp_path, value)
        with pytest.raises(SchemaError) as info:
            read_features(path)
        assert str(info.value) == f"{path}:3: utt02 mean_f2 is not a finite number: {shown}"

    @pytest.mark.parametrize("cell,shown", [
        ("abc", "abc"), ("", ""), ("nan", "nan"), ("-inf", "-inf"), ("1e999", "inf"),
    ], ids=["word", "empty", "nan", "minus_inf", "overflow"])
    def test_csv_cell_that_is_not_a_finite_number(self, tmp_path, cell, shown):
        path = tmp_path / "features.csv"
        write_features(path, self.rows(), "acoustic")
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[1 + FEATURE_NAMES.index("mean_f2")] = cell
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as info:
            read_features(path)
        assert str(info.value) == f"{path}:4: utt02 mean_f2 is not a finite number: {shown}"

    @pytest.mark.parametrize("header", [
        "utt_id,a,b", "id,a,voiced_frames", "a,utt_id,voiced_frames", "utt_id", "voiced_frames", "",
    ], ids=["no_voiced_frames", "no_utt_id", "utt_id_not_first", "utt_id_alone", "voiced_frames_alone", "blank"])
    def test_csv_header_must_run_from_utt_id_to_voiced_frames(self, tmp_path, header):
        path = tmp_path / "features.csv"
        width = len(header.split(","))
        path.write_text(header + "\n" + ",".join(["u1"] + ["1"] * (width - 1)) + "\n")
        with pytest.raises(SchemaError) as info:
            read_features(path)
        assert str(info.value) == (f"{path}: the header must start with utt_id and end with voiced_frames, "
                                   f"got {header}")

    @pytest.mark.parametrize("cell", ["abc", "", "-1", "1.5"], ids=["word", "empty", "negative", "fraction"])
    def test_csv_voiced_frames_that_is_not_a_count(self, tmp_path, cell):
        path = tmp_path / "features.csv"
        write_features(path, self.rows(), "acoustic")
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[-1] = cell
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as info:
            read_features(path)
        assert str(info.value) == f"{path}:4: utt02 voiced_frames is not a non-negative integer: {cell!r}"

    def test_csv_voiced_frames_of_zero_is_a_count(self, tmp_path):
        path = tmp_path / "features.csv"
        write_features(path, [(utt, vector, 0) for utt, vector, _ in self.rows()], "acoustic")
        assert sorted(read_features(path)) == [utt for utt, _, _ in self.rows()]

    @pytest.mark.parametrize("value,shown", [
        ('"abc"', '"abc"'), ("-4", "-4.0"), ("3.5", "3.5"), ("true", "true"), ("null", "null"),
        ("3", None), ("0", None), (None, None),
    ], ids=["string", "negative", "fraction", "bool", "null", "three", "zero", "absent"])
    def test_jsonl_voiced_frames_must_be_a_count(self, tmp_path, value, shown):
        path = tmp_path / "features.jsonl"
        write_features(path, self.rows(), "acoustic")
        lines = path.read_text().splitlines()
        assert lines[2].endswith(', "voiced_frames": 92}')
        lines[2] = lines[2][: -len(', "voiced_frames": 92}')] + (f', "voiced_frames": {value}}}' if value else "}")
        path.write_text("\n".join(lines) + "\n")
        if shown is None:
            npt.assert_array_equal(read_features(path)["utt02"], self.rows()[2][1])
            return
        with pytest.raises(SchemaError) as info:
            read_features(path)
        assert str(info.value) == f"{path}:3: utt02 voiced_frames is not a non-negative integer: {shown}"

    def test_jsonl_integers_are_numbers(self, tmp_path):
        vector = read_features(self.jsonl_with_mean_f2(tmp_path, "3"))["utt02"]
        assert vector[FEATURE_NAMES.index("mean_f2")] == 3.0
        assert vector.dtype == np.float64

    def test_empty_csv_has_no_header(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="features.csv: the file has no header"):
            read_features(path)
