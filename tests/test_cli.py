import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import wave

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import traced
from timbrekit import cli, diffnet as dn, evaluation, features
from timbrekit.audio import SynthSpec, load_audio, synth, write_wav
from timbrekit.cli import main
from timbrekit.features import extract_vector, feature_names_for, read_features, write_features
from timbrekit.manifest import ManifestRecord, check_manifest, read_manifest, write_manifest
from timbrekit.pitch import PitchConfig


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def make_voice_dir(tmp_path, count=10, silent=0):
    directory = tmp_path / "wavs"
    directory.mkdir()
    rng = np.random.default_rng(0)
    for i in range(count):
        spec = SynthSpec(
            kind="mixture",
            f0=float(rng.uniform(100, 240)),
            duration=1.0,
            amplitude=0.4,
            formants=((500.0, 80.0), (1500.0, 100.0), (2500.0, 150.0), (3500.0, 200.0)),
            tilt_db_per_octave=-6.0,
            noise_gain=0.005,
            seed=i,
        )
        write_wav(directory / f"utt{i:02d}.wav", synth(spec))
    for i in range(silent):
        silent_buf = synth(SynthSpec(kind="sine", f0=100.0, duration=1.0, amplitude=0.0))
        write_wav(directory / f"silent{i}.wav", silent_buf)
    return directory


def separable_training_setup(tmp_path, n_train=3000, n_test=400, flip_test_labels=False):
    """Feature table + manifest for the planted dimension-0 task.

    Pairs with a dimension-0 gap under 0.1 are skipped so the task stays
    cleanly separable on held-out speakers (tiny-gap pairs are dominated
    by nuisance-dimension noise, not by the planted rule).
    """
    rng = np.random.default_rng(1)
    ids = [f"u{i:03d}" for i in range(200)]
    feats = {u: rng.normal(0, 1, 26) for u in ids}
    rows = [(u, feats[u], 97) for u in ids]
    features_path = tmp_path / "features.csv"
    write_features(features_path, rows, "acoustic")

    records = []
    for split, count in (("train", n_train), ("test", n_test)):
        pool = list(range(0, 140)) if split == "train" else list(range(140, 200))
        made = 0
        while made < count:
            a, b = rng.choice(pool, 2, replace=False)
            if abs(feats[ids[a]][0] - feats[ids[b]][0]) < 0.1:
                continue
            label = "A" if feats[ids[a]][0] > feats[ids[b]][0] else "B"
            if flip_test_labels and split == "test":
                label = rng.choice(["A", "B"])
            records.append(ManifestRecord(dn.PairRecord(ids[a], ids[b], "planted", label), split))
            made += 1
    manifest_path = tmp_path / "pairs.jsonl"
    write_manifest(manifest_path, records)
    return features_path, manifest_path


def checkpoint(tmp_path, kind):
    """An untrained checkpoint of the kind's feature names and the standard descriptors."""
    names = feature_names_for(kind)
    model = dn.init_model(names, dn.STANDARD_DESCRIPTORS, dn.TrainConfig(), np.random.default_rng(0))
    path = tmp_path / f"{kind}.json"
    dn.save_checkpoint(model, path)
    return path


def assert_refused_leaving_inputs(runner, args, inputs, detail):
    """The command fails with one INVALID_INPUT line, and every input keeps its bytes."""
    before = {path: path.read_bytes() for path in inputs}
    result = run(runner, args)
    assert (result.exit_code, result.output) == (1, f"error: INVALID_INPUT: {detail}\n")
    assert {path: path.read_bytes() for path in inputs} == before


def with_entry(payload, tensor, index, value):
    """The checkpoint payload with one entry of one tensor replaced; json.dumps writes NaN and Infinity."""
    stored = np.array(payload["tensors"][tensor])
    stored[index] = value
    return {**payload, "tensors": {**payload["tensors"], tensor: stored.tolist()}}


# Voices for the BLAS thread-count tests, with formants, tilt and noise as a corpus voice has.
THREAD_VOICES = tuple(
    SynthSpec(kind="mixture", f0=f0, duration=2.0, noise_gain=0.005, tilt_db_per_octave=-6.0, seed=seed,
              formants=((500.0, 80.0), (1500.0, 100.0), (2500.0, 150.0), (3500.0, 200.0)))
    for seed, f0 in enumerate((120.0, 160.0, 200.0))
)


def blas_env(threads):
    """The environment with BLAS pinned to `threads` threads and this checkout's package on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestSynthCommand:
    def test_writes_playable_wav(self, runner, tmp_path):
        out = tmp_path / "t.wav"
        result = run(runner, ["synth", "--kind", "pulse_train", "--f0", "100",
                              "--dur", "1.0", "--out", str(out)])
        assert result.exit_code == 0
        with wave.open(str(out)) as fh:
            assert fh.getframerate() == 16000
            assert fh.getnchannels() == 1
            assert fh.getnframes() == 16000

    def test_invalid_f0_fails_with_reason(self, runner, tmp_path):
        result = runner.invoke(main, ["synth", "--kind", "sine", "--f0", "0",
                                      "--out", str(tmp_path / "x.wav")])
        assert result.exit_code != 0
        assert "error:" in result.output

    def test_mixture_without_lines_fails_with_reason(self, runner, tmp_path):
        out = tmp_path / "x.wav"
        result = runner.invoke(main, ["synth", "--kind", "mixture", "--f0", "7500", "--out", str(out)])
        assert result.exit_code == 1
        assert "error: INVALID_INPUT: f0 7500.0 Hz" in result.output
        assert not out.exists()

    def test_allocation_failure_is_one_error_line(self, runner, tmp_path, monkeypatch):
        """A duration too long to allocate fails with one line; synth raises as numpy would."""
        def refuse(spec):
            raise MemoryError("Unable to allocate 1.16 TiB for an array with shape (160000000000,)")

        monkeypatch.setattr(cli, "synth", refuse)
        out = tmp_path / "x.wav"
        result = run(runner, ["synth", "--kind", "sine", "--dur", "1000", "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == (
            "error: INVALID_INPUT: Unable to allocate 1.16 TiB for an array with shape (160000000000,)\n"
        )
        assert not out.exists()

    def test_sample_count_over_the_bound_is_one_error_line(self, runner, tmp_path, monkeypatch):
        """One sample over 2**24 is refused as the spec is built, so synth renders nothing."""
        def render(spec):
            raise AssertionError(f"synth rendered {spec}")

        monkeypatch.setattr(cli, "synth", render)
        out = tmp_path / "x.wav"
        result = runner.invoke(main, ["synth", "--kind", "sine", "--rate", "8000",
                                      "--dur", repr((2**24 + 1) / 8000), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == "error: INVALID_INPUT: duration 2097.152125 s at 8000 Hz is over 16777216 samples\n"
        assert not out.exists()

    @pytest.mark.parametrize("args,detail", [
        (["--kind", "sine", "--dur", "inf"], "duration must be a finite number, got inf"),
        (["--kind", "sine", "--f0", "nan"], "f0 must be a finite number, got nan"),
        (["--kind", "sine", "--amplitude", "inf"], "amplitude must be a finite number, got inf"),
        (["--kind", "mixture", "--tilt", "nan"], "tilt_db_per_octave must be a finite number, got nan"),
        (["--kind", "mixture", "--noise-gain", "inf"], "noise_gain must be a finite number, got inf"),
        (["--kind", "mixture", "--subharmonic-gain", "nan"], "subharmonic_gain must be a finite number, got nan"),
        (["--kind", "mixture", "--formants", "500:nan"],
         "formants must be positive finite freq:bw pairs, got 500.0:nan"),
        (["--kind", "mixture", "--f0", "50", "--tilt", "1000"], "the rendered mixture signal overflows float64"),
        (["--kind", "mixture", "--f0", "50", "--tilt", "-7000", "--subharmonic-gain", "0.1"],
         "the rendered mixture signal overflows float64"),
        (["--kind", "mixture", "--noise-gain", "1e306", "--formants", "500:1"],
         "the rendered mixture signal overflows float64"),
        (["--kind", "sine", "--rate", "0"], "sample_rate must be positive, got 0"),
        (["--kind", "mixture", "--noise-gain", "-1"], "noise_gain must be nonnegative, got -1.0"),
        (["--kind", "sine", "--dur", "0.00001"], "duration too short for one sample"),
        (["--kind", "pulse_train", "--f0", "8000"], "f0 8000.0 Hz leaves no harmonics below Nyquist at 16000 Hz"),
        (["--kind", "mixture", "--formants", "500:80,9000:80"],
         "formant 9000.0:80.0 is not below Nyquist, 8000 Hz at 16000 Hz"),
        (["--kind", "resonated_pulses", "--rate", "8000", "--formants", "4000:100"],
         "formant 4000.0:100.0 is not below Nyquist, 4000 Hz at 8000 Hz"),
        (["--kind", "mixture", "--formants", "500"], "--formants part '500' is not freq:bw"),
        (["--kind", "mixture", "--formants", "500:"], "--formants part '500:' is not freq:bw"),
        (["--kind", "mixture", "--formants", "abc:80"], "--formants part 'abc:80' is not freq:bw"),
        (["--kind", "mixture", "--formants", "500:80,,1500:90"], "--formants part '' is not freq:bw"),
        (["--kind", "white_noise", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
    ], ids=["dur_inf", "f0_nan", "amplitude_inf", "tilt_nan", "noise_gain_inf", "subharmonic_gain_nan",
            "formant_bandwidth_nan", "tilt_overflow", "subharmonic_overflow", "resonator_overflow", "rate_0",
            "noise_gain_negative", "dur_under_one_sample", "pulse_train_f0_over_nyquist", "formant_over_nyquist",
            "formant_at_nyquist", "formants_no_bandwidth", "formants_empty_bandwidth", "formants_freq_not_a_number",
            "formants_empty_part", "seed_negative"])
    def test_non_finite_value_names_the_field(self, runner, tmp_path, recwarn, args, detail):
        """A non-finite, out-of-range or overflowing recipe fails with one line and no RuntimeWarning."""
        out = tmp_path / "x.wav"
        result = run(runner, ["synth", *args, "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == f"error: INVALID_INPUT: {detail}\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["sine", "mixture", "white_noise", "resonated_pulses"])
    def test_amplitude_near_the_float64_limit_writes_full_scale(self, runner, tmp_path, kind):
        """Samples too large to scale to 16 bits are clipped first: nothing on stderr, every sample at full scale."""
        out = tmp_path / "x.wav"
        result = run(runner, ["synth", "--kind", kind, "--amplitude", "1e308", "--formants", "500:80,1500:100",
                              "--dur", "0.1", "--out", str(out)])
        assert (result.exit_code, result.output) == (0, f"wrote {out}\n")
        buf = synth(SynthSpec(kind=kind, amplitude=1e308, formants=((500.0, 80.0), (1500.0, 100.0)), duration=0.1))
        pcm = np.frombuffer(out.read_bytes()[44:], "<i2")
        np.testing.assert_array_equal(pcm, np.where(buf.samples > 0, 32767, np.where(buf.samples < 0, -32768, 0)))

    @pytest.mark.parametrize("command,config", [("synth", SynthSpec), ("train", dn.TrainConfig)])
    def test_options_take_their_field_defaults(self, command, config):
        """Every option that maps to a field of the command's dataclass defaults to that field's default.

        --kind has no default, and --formants is text that _parse_formants turns into the field.
        """
        fields = {field.name: field.default for field in dataclasses.fields(config)}
        mapped = {param.name: param.default for param in main.commands[command].params
                  if param.name in fields and param.name not in ("kind", "formants")}
        assert len(mapped) == {"synth": 8, "train": 6}[command]
        assert mapped == {name: fields[name] for name in mapped}

    def test_seeded_noise_deterministic_bytes(self, runner, tmp_path):
        args = ["synth", "--kind", "white_noise", "--seed", "9", "--dur", "0.5"]
        run(runner, args + ["--out", str(tmp_path / "a.wav")])
        run(runner, args + ["--out", str(tmp_path / "b.wav")])
        assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()


class TestExtractCommand:
    def test_acoustic_shape(self, runner, tmp_path):
        directory = make_voice_dir(tmp_path)
        out = tmp_path / "features.csv"
        result = run(runner, ["extract", str(directory), "--out", str(out)])
        assert result.exit_code == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 11  # header + 10 utterances
        assert len(rows[0]) == 28  # utt_id + 26 dims + voiced_frames
        assert rows[0][0] == "utt_id" and rows[0][-1] == "voiced_frames"

    def test_silent_file_goes_to_skip_list(self, runner, tmp_path):
        directory = make_voice_dir(tmp_path, count=9, silent=1)
        out = tmp_path / "features.csv"
        result = run(runner, ["extract", str(directory), "--out", str(out)])
        assert result.exit_code == 0
        with out.open() as fh:
            assert len(list(csv.reader(fh))) == 10  # header + 9
        skip = [json.loads(line) for line in (tmp_path / "features.csv.skipped.jsonl").read_text().splitlines()]
        assert skip == [{"utt_id": "silent0", "reason": "SILENT_UTTERANCE"}]

    def test_mfcc_has_13_columns(self, runner, tmp_path):
        directory = make_voice_dir(tmp_path, count=2)
        out = tmp_path / "cep.csv"
        result = run(runner, ["extract", str(directory), "--kind", "mfcc", "--out", str(out)])
        assert result.exit_code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert len(header) == 15  # utt_id + 13 + voiced_frames

    def test_jobs_do_not_change_output(self, runner, tmp_path):
        directory = make_voice_dir(tmp_path, count=4)
        a, b = tmp_path / "seq.csv", tmp_path / "par.csv"
        run(runner, ["extract", str(directory), "--out", str(a)])
        run(runner, ["extract", str(directory), "--out", str(b), "--jobs", "2"])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("jobs,workers", [(2, 2), (3, 3), (4096, 3)])
    def test_pool_gets_no_more_workers_than_files(self, runner, tmp_path, monkeypatch, jobs, workers):
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        directory = make_voice_dir(tmp_path, count=3)
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        run(runner, ["extract", str(directory), "--out", str(serial)])
        assert started == []
        run(runner, ["extract", str(directory), "--out", str(pooled), "--jobs", str(jobs)])
        assert started == [workers]
        assert pooled.read_bytes() == serial.read_bytes()

    def test_import_loads_no_process_pool(self):
        """The pool, and multiprocessing under it, is imported only by an extract with two or more workers."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = ("import sys, timbrekit.cli; "
                 "print([m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent.futures.process'))])")
        result = subprocess.run([sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True)
        assert result.stdout == "[]\n"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_are_invalid_input(self, runner, tmp_path, monkeypatch, jobs):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        directory = make_voice_dir(tmp_path, count=1)
        out = tmp_path / "f.csv"
        result = runner.invoke(main, ["extract", str(directory), "--out", str(out), "--jobs", jobs])
        assert result.exit_code == 1
        assert result.output == f"error: INVALID_INPUT: --jobs must be at least 1, got {jobs}\n"
        assert not out.exists()

    def test_explicit_file_list(self, runner, tmp_path):
        directory = make_voice_dir(tmp_path, count=3)
        files = sorted(str(p) for p in directory.glob("*.wav"))[:2]
        out = tmp_path / "two.csv"
        result = run(runner, ["extract", *files, "--out", str(out)])
        assert result.exit_code == 0
        assert len(out.read_text().splitlines()) == 3  # header + 2

    def test_directory_takes_wav_suffix_in_any_case(self, runner, tmp_path):
        directory = make_voice_dir(tmp_path, count=2)
        (directory / "utt00.wav").rename(directory / "A.WAV")
        (directory / "utt01.wav").rename(directory / "b.wav")
        (directory / "notes.txt").write_text("not audio")
        out = tmp_path / "f.csv"
        result = run(runner, ["extract", str(directory), "--out", str(out)])
        assert result.output == f"wrote 2 rows to {out}\n"
        assert list(read_features(out)) == ["A", "b"]

    def test_directory_takes_files_only(self, runner, tmp_path):
        directory = make_voice_dir(tmp_path, count=1)
        (directory / "utt00.wav").rename(directory / "a.wav")
        (directory / "sub.wav").mkdir()
        out = tmp_path / "f.csv"
        result = run(runner, ["extract", str(directory), "--out", str(out)])
        assert result.output == f"wrote 1 rows to {out}\n"
        assert list(read_features(out)) == ["a"]
        assert not (tmp_path / "f.csv.skipped.jsonl").exists()

    def test_clean_extract_removes_an_earlier_skip_list(self, runner, tmp_path):
        directory = make_voice_dir(tmp_path, count=1)
        out = tmp_path / "f.csv"
        skip_path = tmp_path / "f.csv.skipped.jsonl"
        skip_path.write_text('{"utt_id": "old", "reason": "SILENT_UTTERANCE"}\n')
        result = run(runner, ["extract", str(directory), "--out", str(out)])
        assert result.exit_code == 0
        assert result.output == f"wrote 1 rows to {out}\n"
        assert not skip_path.exists()

    def test_directory_without_wav_files_is_invalid_input(self, runner, tmp_path):
        directory = tmp_path / "notes"
        directory.mkdir()
        (directory / "readme.txt").write_text("no audio here\n")
        result = runner.invoke(main, ["extract", str(directory), "--out", str(tmp_path / "f.csv")])
        assert result.exit_code == 1
        assert result.output == "error: INVALID_INPUT: no input files\n"

    @pytest.mark.parametrize("kind", ["mfcc", "lfc", "acoustic"])
    def test_cepstral_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path, kind):
        """One and two BLAS threads give the same table; only a machine with 2+ CPUs can tell them apart."""
        directory = tmp_path / "wavs"
        directory.mkdir()
        for seed, spec in enumerate(THREAD_VOICES):
            write_wav(directory / f"v{seed}.wav", synth(spec))
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"{threads}.csv"
            subprocess.run([sys.executable, "-m", "timbrekit.cli", "extract", str(directory), "--kind", kind,
                            "--out", str(out)], env=blas_env(threads), check=True, capture_output=True)
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_pitch_bytes_do_not_depend_on_the_blas_thread_count(self):
        """pitch_track's f0 and strength under one and two BLAS threads are the same bytes (2+ CPUs tell)."""
        script = (
            "import hashlib\n"
            "from timbrekit.audio import SynthSpec, synth\n"
            "from timbrekit.pitch import pitch_track\n"
            "digest = hashlib.sha256()\n"
            f"for spec in {THREAD_VOICES!r}:\n"
            "    track = pitch_track(synth(spec))\n"
            "    digest.update(track.f0.tobytes() + track.strength.tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        digests = [subprocess.run([sys.executable, "-c", script], env=blas_env(threads), check=True,
                                  capture_output=True, text=True).stdout for threads in ("1", "2")]
        assert len(digests[0]) == 65 and digests[0] == digests[1]

    def test_all_skipped_is_an_error(self, runner, tmp_path):
        directory = make_voice_dir(tmp_path, count=0, silent=2)
        result = runner.invoke(main, ["extract", str(directory), "--out", str(tmp_path / "f.csv")])
        assert result.exit_code != 0
        assert "error: ALL_SKIPPED" in result.output

    def test_all_skipped_counts_each_reason(self, runner, tmp_path):
        """The one error line counts each reason code (the text before its first colon), in code order."""
        directory = make_voice_dir(tmp_path, count=0, silent=2)
        (directory / "broken.wav").write_bytes(b"not a wav file")
        # A pure sine is voiced, but its LPC fit finds two resonances at most, so it has no F3.
        write_wav(directory / "sine.wav", synth(SynthSpec(kind="sine", f0=100.0, duration=1.0)))
        out = tmp_path / "f.csv"
        result = runner.invoke(main, ["extract", str(directory), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == ("error: ALL_SKIPPED: all 4 inputs were skipped "
                                 "(EMPTY_FEATURE 1, SILENT_UTTERANCE 2, UNREADABLE 1)\n")
        assert not out.exists() and not (tmp_path / "f.csv.skipped.jsonl").exists()

    def test_missing_out_directory_is_refused_before_extracting(self, runner, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(features, "vector_for", lambda *args: calls.append(args))
        directory = make_voice_dir(tmp_path, count=1)
        out = tmp_path / "nodir" / "f.csv"
        result = runner.invoke(main, ["extract", str(directory), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == f"error: INVALID_INPUT: {out}: the directory {out.parent} does not exist\n"
        assert calls == []

    def test_repeated_stem_across_directories(self, runner, tmp_path):
        voices = make_voice_dir(tmp_path, count=2)
        for name, source in (("a", "utt00.wav"), ("b", "utt01.wav")):
            (tmp_path / name).mkdir()
            (tmp_path / name / "x.wav").write_bytes((voices / source).read_bytes())
        out = tmp_path / "f.csv"
        result = runner.invoke(main, ["extract", str(tmp_path / "a"), str(tmp_path / "b"), "--out", str(out)])
        assert result.exit_code != 0
        assert "error: SCHEMA:" in result.output
        assert "utt_id x is repeated" in result.output
        assert not out.exists()

    def test_repeated_stem_is_refused_before_extracting(self, runner, tmp_path, monkeypatch):
        """A voiced a/x.wav and a silent b/x.wav would give x both a row and a skip line."""
        calls = []
        monkeypatch.setattr(features, "vector_for", lambda *args: calls.append(args))
        voices = make_voice_dir(tmp_path, count=1, silent=1)
        for name, source in (("a", "utt00.wav"), ("b", "silent0.wav")):
            (tmp_path / name).mkdir()
            (tmp_path / name / "x.wav").write_bytes((voices / source).read_bytes())
        out = tmp_path / "f.csv"
        result = runner.invoke(main, ["extract", str(tmp_path / "a"), str(tmp_path / "b"), "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == (f"error: SCHEMA: utt_id x is repeated: {tmp_path / 'a' / 'x.wav'} and "
                                 f"{tmp_path / 'b' / 'x.wav'}\n")
        assert not out.exists() and not (tmp_path / "f.csv.skipped.jsonl").exists()
        assert calls == []

    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "earlier_skip_list"])
    def test_failed_extract_leaves_skip_list_alone(self, runner, tmp_path, earlier):
        voices = make_voice_dir(tmp_path, count=2, silent=1)
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
        (tmp_path / "a" / "x.wav").write_bytes((voices / "utt00.wav").read_bytes())
        (tmp_path / "a" / "quiet.wav").write_bytes((voices / "silent0.wav").read_bytes())
        (tmp_path / "b" / "x.wav").write_bytes((voices / "utt01.wav").read_bytes())
        out = tmp_path / "out.csv"
        skip_path = tmp_path / "out.csv.skipped.jsonl"
        before = b'{"utt_id": "old", "reason": "SILENT_UTTERANCE"}\n'
        if earlier:
            skip_path.write_bytes(before)
        result = runner.invoke(main, ["extract", str(tmp_path / "a"), str(tmp_path / "b"), "--out", str(out)])
        assert result.exit_code == 1
        assert "error: SCHEMA:" in result.output
        assert not out.exists()
        if earlier:
            assert skip_path.read_bytes() == before
        else:
            assert not skip_path.exists()

    def test_sample_rate_over_the_bound_is_skipped_as_unreadable(self, runner, tmp_path):
        """A header rate of 2**32 - 1 Hz is refused before resampling, and the other file still gets its row.

        The bound is imported first, so that a load_audio without it fails here
        instead of building resampling taps for 4294967295 Hz.
        """
        from timbrekit.audio import MAX_SAMPLE_RATE

        directory = make_voice_dir(tmp_path, count=1)
        raw = bytearray((directory / "utt00.wav").read_bytes())
        raw[24:28] = (2**32 - 1).to_bytes(4, "little")  # the fmt chunk's sample rate
        (directory / "huge.wav").write_bytes(raw)
        out = tmp_path / "f.csv"
        result = run(runner, ["extract", str(directory), "--out", str(out)])
        assert result.output == f"wrote 1 rows to {out}, skipped 1\n"
        assert list(read_features(out)) == ["utt00"]
        skip = json.loads((tmp_path / "f.csv.skipped.jsonl").read_text())
        assert skip == {"utt_id": "huge", "reason": f"UNREADABLE:{directory / 'huge.wav'}: sample rate "
                                                    f"4294967295 Hz is above {MAX_SAMPLE_RATE} Hz"}

    def test_config_override(self, runner, tmp_path):
        directory = make_voice_dir(tmp_path, count=1)
        out = tmp_path / "f.csv"
        result = run(runner, ["extract", str(directory), "--out", str(out),
                              "--config", '{"pitch": {"floor": 60.0}}'])
        assert result.exit_code == 0

    @pytest.mark.parametrize("source", ["string", "file"])
    def test_config_sets_the_pitch_floor(self, runner, tmp_path, source):
        directory = make_voice_dir(tmp_path, count=1)
        out = tmp_path / "f.csv"
        config = '{"pitch": {"floor": 60}}'
        if source == "file":
            (tmp_path / "config.json").write_text(config)
            config = str(tmp_path / "config.json")
        run(runner, ["extract", str(directory), "--out", str(out), "--config", config])
        want = extract_vector(load_audio(directory / "utt00.wav"), PitchConfig(floor=60.0))
        assert np.array_equal(read_features(out)["utt00"], want.values)
        assert not np.array_equal(want.values, extract_vector(load_audio(directory / "utt00.wav")).values)

    def test_config_floor_of_300_hz_tracks(self, runner, tmp_path):
        """300 Hz is the highest floor whose 3-period window spans the 10 ms hop."""
        directory = tmp_path / "wavs"
        directory.mkdir()
        formants = ((500.0, 80.0), (1500.0, 100.0), (2500.0, 150.0), (3500.0, 200.0))
        write_wav(directory / "high.wav", synth(SynthSpec(kind="mixture", f0=420.0, duration=1.0, amplitude=0.4,
                                                          formants=formants, tilt_db_per_octave=-6.0, seed=3)))
        out = tmp_path / "f.csv"
        run(runner, ["extract", str(directory), "--out", str(out), "--config", '{"pitch": {"floor": 300}}'])
        want = extract_vector(load_audio(directory / "high.wav"), PitchConfig(floor=300.0))
        assert np.array_equal(read_features(out)["high"], want.values)

    @pytest.mark.parametrize("config,detail", [
        ('{"formant": {"max_formants": 3}}', "--config sets only pitch, not formant"),
        ('{"cpp": {}}', "--config sets only pitch, not cpp"),
        ('{"shr": {}}', "--config sets only pitch, not shr"),
        ('{"frame": {}}', "--config sets only pitch, not frame"),
        ('{"min_voiced_frames": 5}', "--config sets only pitch, not min_voiced_frames"),
        ('{"pitch": 5}', "--config pitch is not a JSON object: 5.0"),
        ('{"pitch": {"bogus": 1}}',
         "--config pitch has no field bogus; its fields are floor, ceiling, voicing_threshold, silence_threshold"),
        ('{"pitch": {"floor": "x"}}', '--config pitch.floor is not a finite number: "x"'),
        ('{"pitch": {"floor": 400}}', "floor 400 Hz is above 300 Hz: its 3-period window is under the 10 ms hop"),
        ('{"pitch": {"floor": 300.5}}',
         "floor 300.5 Hz is above 300 Hz: its 3-period window is under the 10 ms hop"),
        ('{"pitch": {"floor": 60, "floor": 90}}', "the record repeats the name floor"),
        ('{"pitch": {}, "pitch": {"floor": 90}}', "the record repeats the name pitch"),
        ('{"pitch": {"silence_threshold": -1}}', "silence_threshold must be nonnegative"),
    ], ids=["formant", "cpp", "shr", "frame", "min_voiced_frames", "pitch_number", "pitch_unknown_field",
            "pitch_floor_string", "pitch_floor_400", "pitch_floor_300.5", "pitch_floor_repeated",
            "pitch_repeated", "pitch_silence_threshold_negative"])
    def test_config_other_than_pitch_fields_is_invalid_input(self, runner, tmp_path, config, detail):
        directory = make_voice_dir(tmp_path, count=1)
        out = tmp_path / "f.csv"
        result = runner.invoke(main, ["extract", str(directory), "--out", str(out), "--config", config])
        assert result.exit_code == 1
        assert result.output == f"error: INVALID_INPUT: {detail}\n"
        assert not out.exists()

    def test_config_file_holding_no_object_is_invalid_input(self, runner, tmp_path):
        directory = make_voice_dir(tmp_path, count=1)
        config = tmp_path / "cfg.json"
        config.write_text("[1]\n")
        out = tmp_path / "f.csv"
        result = runner.invoke(main, ["extract", str(directory), "--out", str(out), "--config", str(config)])
        assert result.exit_code == 1
        assert result.output == "error: INVALID_INPUT: --config is not a JSON object: [1]\n"
        assert not out.exists()

    @pytest.mark.parametrize("listed,out,detail", [
        (["wavs/utt00.wav"], "wavs/utt00.wav", "wavs/utt00.wav is both --out and an input"),
        (["wavs"], "wavs/utt00.wav", "wavs/utt00.wav is both --out and an input"),
        (["wavs", "f.csv.skipped.jsonl"], "f.csv", "f.csv.skipped.jsonl is both the skip list and an input"),
    ], ids=["file", "directory", "skip_list"])
    def test_output_over_an_input_is_refused(self, runner, tmp_path, monkeypatch, listed, out, detail):
        """--out and its skip list may name no input file, listed or found in a directory."""
        monkeypatch.chdir(tmp_path)
        directory = make_voice_dir(tmp_path, count=2)
        (tmp_path / "f.csv.skipped.jsonl").write_bytes((directory / "utt01.wav").read_bytes())
        inputs = [directory / "utt00.wav", directory / "utt01.wav", tmp_path / "f.csv.skipped.jsonl"]
        assert_refused_leaving_inputs(runner, ["extract", *listed, "--out", out], inputs, detail)


class TestTrainCommand:
    def test_separable_trains_to_99(self, runner, tmp_path):
        features_path, manifest_path = separable_training_setup(tmp_path)
        model_path = tmp_path / "model.json"
        log_path = tmp_path / "log.json"
        result = run(runner, ["train", "--manifest", str(manifest_path),
                              "--features", str(features_path),
                              "--out", str(model_path), "--log", str(log_path),
                              "--lr", "0.003", "--seed", "3"])
        assert result.exit_code == 0
        log = json.loads(log_path.read_text())
        assert log["epochs"][-1]["train_accuracy"] >= 0.99

    def test_train_and_eval_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """The checkpoint and eval's report at hidden 128 and 512 are the same bytes under one and two BLAS
        threads: 4000 train and 2000 test pairs of 200 utterances, 3 epochs. Only 2+ CPUs tell them apart."""
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=4000, n_test=2000)
        inputs = ["--manifest", str(manifest_path), "--features", str(features_path)]
        digests = {}
        for hidden in ("128", "512"):
            for threads in ("1", "2"):
                model, report = (tmp_path / f"{name}_{hidden}_{threads}.json" for name in ("model", "report"))
                for args in (["train", *inputs, "--hidden", hidden, "--epochs", "3", "--out", str(model)],
                             ["eval", *inputs, "--model", str(model), "--out", str(report)]):
                    subprocess.run([sys.executable, "-m", "timbrekit.cli", *args], env=blas_env(threads),
                                   check=True, capture_output=True)
                digests[hidden, threads] = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (model, report)]
            assert digests[hidden, "1"] == digests[hidden, "2"], hidden

    def test_manifest_without_a_train_split_is_invalid_input(self, runner, tmp_path):
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=0, n_test=20)
        result = runner.invoke(main, ["train", "--manifest", str(manifest_path), "--features", str(features_path),
                                      "--out", str(tmp_path / "model.json")])
        assert result.exit_code == 1
        assert [line for line in result.output.splitlines() if line.startswith("error:")] == [
            "error: INVALID_INPUT: manifest has no train split"]
        assert not (tmp_path / "model.json").exists()

    def test_one_train_pair_is_invalid_input(self, runner, tmp_path):
        """Training needs two pairs, the least that fills one batch with nonzero batch-norm variance."""
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=1, n_test=5)
        result = runner.invoke(main, ["train", "--manifest", str(manifest_path), "--features", str(features_path),
                                      "--out", str(tmp_path / "model.json")])
        assert result.exit_code == 1
        assert [line for line in result.output.splitlines() if line.startswith("error:")] == [
            "error: INVALID_INPUT: training needs at least 2 pairs, got 1"]
        assert not (tmp_path / "model.json").exists()

    def test_unknown_id_is_named(self, runner, tmp_path):
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=20, n_test=5)
        records = list(read_manifest(manifest_path))
        records.append(ManifestRecord(dn.PairRecord("ghost", "u000", "planted", "A"), "train"))
        write_manifest(manifest_path, records)
        result = runner.invoke(main, ["train", "--manifest", str(manifest_path),
                                      "--features", str(features_path),
                                      "--out", str(tmp_path / "m.json")])
        assert result.exit_code != 0
        assert "error: COVERAGE" in result.output
        assert "ghost" in result.output

    @pytest.mark.parametrize("option,value,field", [
        ("--epochs", "0", "epochs"), ("--batch-size", "0", "batch_size"), ("--batch-size", "-5", "batch_size"),
        ("--hidden", "0", "hidden_dim"),
    ])
    def test_loop_sizes_below_one_are_invalid_input(self, runner, tmp_path, option, value, field):
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=20, n_test=5)
        out = tmp_path / "m.json"
        result = runner.invoke(main, ["train", "--manifest", str(manifest_path), "--features", str(features_path),
                                      "--out", str(out), option, value])
        least = 2 if field == "batch_size" else 1
        assert result.exit_code == 1
        assert result.output == f"error: INVALID_INPUT: {field} must be at least {least}, got {value}\n"
        assert not out.exists()

    def test_negative_seed_is_refused_before_any_file_is_read(self, runner, tmp_path, monkeypatch):
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=20, n_test=5)

        def read(path):
            raise AssertionError(f"train read {path}")

        monkeypatch.setattr(cli.manifest, "read_manifest", read)
        monkeypatch.setattr(cli.features, "read_features", read)
        out = tmp_path / "m.json"
        result = runner.invoke(main, ["train", "--manifest", str(manifest_path), "--features", str(features_path),
                                      "--out", str(out), "--seed", "-3"])
        assert result.exit_code == 1
        assert result.output == "error: INVALID_INPUT: seed must be a non-negative integer, got -3\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1", "-0.1"])
    def test_dropout_outside_unit_interval_is_invalid_input(self, runner, tmp_path, value):
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=20, n_test=5)
        out = tmp_path / "m.json"
        result = runner.invoke(main, ["train", "--manifest", str(manifest_path), "--features", str(features_path),
                                      "--out", str(out), "--dropout", value])
        assert result.exit_code == 1
        assert result.output == f"error: INVALID_INPUT: dropout must be in [0, 1), got {float(value)}\n"
        assert not out.exists()

    def test_batch_size_of_one_is_invalid_input(self, runner, tmp_path):
        """A one-pair batch has zero batch-norm variance, so training on it is refused."""
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=20, n_test=5)
        out = tmp_path / "m.json"
        result = runner.invoke(main, ["train", "--manifest", str(manifest_path), "--features", str(features_path),
                                      "--out", str(out), "--batch-size", "1"])
        assert result.exit_code == 1
        assert result.output == "error: INVALID_INPUT: batch_size must be at least 2, got 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--out", "--log"])
    def test_missing_output_directory_is_refused_before_training(self, runner, tmp_path, option):
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=20, n_test=5)
        missing = tmp_path / "nodir" / "x.json"
        paths = {"--out": tmp_path / "m.json", "--log": tmp_path / "log.json", option: missing}
        result = runner.invoke(main, ["train", "--manifest", str(manifest_path), "--features", str(features_path),
                                      "--epochs", "1", *[str(a) for item in paths.items() for a in item]])
        assert result.exit_code == 1
        assert result.output == f"error: INVALID_INPUT: {missing}: the directory {missing.parent} does not exist\n"
        assert not any(path.exists() for path in paths.values())

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.5"])
    def test_learning_rate_must_be_finite_and_positive(self, runner, tmp_path, value):
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=20, n_test=5)
        out = tmp_path / "m.json"
        result = runner.invoke(main, ["train", "--manifest", str(manifest_path), "--features", str(features_path),
                                      "--out", str(out), "--lr", value])
        assert result.exit_code == 1
        assert result.output == (f"error: INVALID_INPUT: learning_rate must be a finite positive number, "
                                 f"got {float(value)}\n")
        assert not out.exists()

    def test_diverging_run_is_one_error_line_and_no_checkpoint(self, runner, tmp_path):
        """Weights that overflow fail in their epoch without a numpy warning, with or without --log.

        A huge finite run still trains.
        """
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=300, n_test=5)
        out = tmp_path / "m.json"
        args = ["train", "--manifest", str(manifest_path), "--features", str(features_path), "--out", str(out),
                "--epochs", "3"]
        for logged in ([], ["--log", str(tmp_path / "log.json")]):
            result = runner.invoke(main, [*args, *logged, "--lr", "1e300"])
            assert result.exit_code == 1
            assert [line for line in result.output.splitlines() if line.startswith("error:")] == [
                "error: INVALID_INPUT: training diverged in epoch 1: the loss or a parameter is not a finite "
                "number (learning rate 1e+300)"], logged
            assert not out.exists()
            assert not (tmp_path / "log.json").exists()
        assert run(runner, [*args, "--lr", "1e12"]).exit_code == 0
        assert out.exists()

    def test_log_changes_neither_the_checkpoint_nor_stdout(self, runner, tmp_path):
        """Without --log only the last epoch is scored; the --log file still holds every epoch."""
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=700, n_test=5)
        args = ["train", "--manifest", str(manifest_path), "--features", str(features_path), "--epochs", "4",
                "--seed", "5"]
        log_path = tmp_path / "log.json"
        plain = run(runner, [*args, "--out", str(tmp_path / "plain.json")])
        logged = run(runner, [*args, "--out", str(tmp_path / "logged.json"), "--log", str(log_path)])
        assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "logged.json").read_bytes()
        assert plain.output == logged.output
        log = json.loads(log_path.read_text())
        assert [entry["epoch"] for entry in log["epochs"]] == [1, 2, 3, 4]
        final = log["epochs"][-1]
        assert plain.output.splitlines()[-1] == (f"trained 4 epochs on 700 pairs; final loss {final['loss']:.4f}, "
                                                 f"train acc {final['train_accuracy'] * 100:.2f}%")

    def test_same_seed_identical_checkpoints(self, runner, tmp_path):
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=300, n_test=50)
        paths = [tmp_path / "m1.json", tmp_path / "m2.json"]
        for path in paths:
            run(runner, ["train", "--manifest", str(manifest_path),
                         "--features", str(features_path), "--out", str(path),
                         "--epochs", "3", "--seed", "7"])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("outputs,detail", [
        (["--out", "model.json", "--log", "model.json"], "model.json is both --log and --out"),
        (["--out", "features.csv"], "features.csv is both --out and --features"),
        (["--out", "model.json", "--log", "pairs.jsonl"], "pairs.jsonl is both --log and --manifest"),
    ], ids=["log_over_out", "out_over_features", "log_over_manifest"])
    def test_output_over_an_input_or_the_other_output_is_refused(self, runner, tmp_path, monkeypatch, outputs,
                                                                  detail):
        monkeypatch.chdir(tmp_path)
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=20, n_test=0)
        args = ["train", "--manifest", "pairs.jsonl", "--features", "features.csv", *outputs]
        assert_refused_leaving_inputs(runner, args, [features_path, manifest_path], detail)
        assert not (tmp_path / "model.json").exists()


class TestPrecomputedEmbeddings:
    def test_train_eval_on_external_embedding_table(self, runner, tmp_path):
        """Any-width feature tables (e.g. exported DNN embeddings) train fine."""
        rng = np.random.default_rng(5)
        ids = [f"emb{i:03d}" for i in range(60)]
        feats = {u: rng.normal(0, 1, 192) for u in ids}
        # external embeddings arrive in the same JSONL schema, written by
        # whatever exported them rather than by our extractor
        features_path = tmp_path / "embeddings.jsonl"
        with features_path.open("w") as fh:
            for u in ids:
                record = {"utt_id": u}
                record.update({f"dim_{i:03d}": float(v) for i, v in enumerate(feats[u])})
                record["voiced_frames"] = 1
                fh.write(json.dumps(record) + "\n")

        records = []
        for split, pool in (("train", ids[:40]), ("test", ids[40:])):
            made = 0
            while made < (400 if split == "train" else 100):
                a, b = rng.choice(pool, 2, replace=False)
                if abs(feats[a][0] - feats[b][0]) < 0.2:
                    continue
                label = "A" if feats[a][0] > feats[b][0] else "B"
                records.append(ManifestRecord(dn.PairRecord(a, b, "planted", label), split))
                made += 1
        manifest_path = tmp_path / "pairs.jsonl"
        write_manifest(manifest_path, records)

        model_path = tmp_path / "model.json"
        result = run(runner, ["train", "--manifest", str(manifest_path),
                              "--features", str(features_path),
                              "--out", str(model_path), "--lr", "0.003", "--seed", "1"])
        assert result.exit_code == 0
        result = run(runner, ["eval", "--manifest", str(manifest_path),
                              "--features", str(features_path), "--model", str(model_path)])
        assert result.exit_code == 0
        assert "accuracy" in result.output
        loaded = dn.load_checkpoint(model_path)
        assert len(loaded.feature_names) == 192


class TestFeatureTableSchema:
    """Names travel from the feature table to the checkpoint; mismatches fail as SCHEMA."""

    def train(self, runner, tmp_path, features_path, manifest_path):
        model_path = tmp_path / "model.json"
        result = runner.invoke(main, ["train", "--manifest", str(manifest_path),
                                      "--features", str(features_path), "--out", str(model_path),
                                      "--epochs", "3", "--seed", "1"])
        return result, model_path

    def test_jsonl_names_reach_the_weights(self, runner, tmp_path):
        csv_path, manifest_path = separable_training_setup(tmp_path, n_train=200, n_test=20)
        names = [f"e{i:02d}" for i in range(26)]
        features_path = tmp_path / "external.jsonl"
        with csv_path.open() as src, features_path.open("w") as fh:
            for row in list(csv.reader(src))[1:]:
                record = {"utt_id": row[0], **dict(zip(names, map(float, row[1:-1])))}
                fh.write(json.dumps(record) + "\n")
        result, model_path = self.train(runner, tmp_path, features_path, manifest_path)
        assert result.exit_code == 0, result.output
        assert dn.load_checkpoint(model_path).feature_names == tuple(names)
        result = run(runner, ["weights", "--model", str(model_path)])
        assert sorted(line.split("\t")[0] for line in result.output.splitlines()) == names

    def test_eval_rejects_other_feature_names(self, runner, tmp_path):
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=200, n_test=20)
        _, model_path = self.train(runner, tmp_path, features_path, manifest_path)
        renamed = tmp_path / "renamed.csv"
        renamed.write_text(features_path.read_text().replace("mean_f0,", "mean_pitch,", 1))
        result = runner.invoke(main, ["eval", "--manifest", str(manifest_path),
                                      "--features", str(renamed), "--model", str(model_path)])
        assert result.exit_code != 0
        assert "error: SCHEMA:" in result.output
        assert "feature names differ in ['mean_f0', 'mean_pitch']" in result.output

    def test_repeated_utt_id(self, runner, tmp_path):
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=200, n_test=20)
        lines = features_path.read_text().splitlines()
        features_path.write_text("\n".join(lines + [lines[1]]) + "\n")
        result, _ = self.train(runner, tmp_path, features_path, manifest_path)
        assert result.exit_code != 0
        assert "error: SCHEMA:" in result.output
        assert "utt_id u000 is repeated" in result.output

    def test_jsonl_record_with_other_names(self, runner, tmp_path):
        features_path = tmp_path / "external.jsonl"
        with features_path.open("w") as fh:
            for i, names in enumerate([("a", "b"), ("a", "b"), ("a", "c")]):
                fh.write(json.dumps({"utt_id": f"u{i:03d}", **dict.fromkeys(names, float(i))}) + "\n")
        records = [ManifestRecord(dn.PairRecord("u000", "u001", "planted", "A"), "train")]
        manifest_path = tmp_path / "pairs.jsonl"
        write_manifest(manifest_path, records)
        result, _ = self.train(runner, tmp_path, features_path, manifest_path)
        assert result.exit_code != 0
        assert "error: SCHEMA:" in result.output
        assert "u002 and the first record differ in ['b', 'c']" in result.output

    def test_eval_rejects_a_ragged_csv_row(self, runner, tmp_path):
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=200, n_test=20)
        _, model_path = self.train(runner, tmp_path, features_path, manifest_path)
        lines = features_path.read_text().splitlines()
        fields = lines[2].split(",")
        lines[2] = ",".join(fields[:5] + fields[6:])
        features_path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["eval", "--manifest", str(manifest_path),
                                      "--features", str(features_path), "--model", str(model_path)])
        assert result.exit_code == 1
        assert result.output == (f"error: SCHEMA: {features_path}:3: {fields[0]} has 27 fields, "
                                 "the header has 28\n")

    @pytest.mark.parametrize("line", ['{"a": 1.0, "b": 1.0}', "[1.0, 1.0]"], ids=["no_utt_id", "array"])
    def test_jsonl_line_that_is_not_a_record(self, runner, tmp_path, line):
        features_path = tmp_path / "external.jsonl"
        features_path.write_text("\n".join(['{"utt_id": "u000", "a": 0.0, "b": 0.0}', line]) + "\n")
        manifest_path = tmp_path / "pairs.jsonl"
        write_manifest(manifest_path, [ManifestRecord(dn.PairRecord("u000", "u001", "planted", "A"), "train")])
        result, _ = self.train(runner, tmp_path, features_path, manifest_path)
        assert result.exit_code == 1
        assert result.output.splitlines()[-1] == (f"error: SCHEMA: {features_path}:2: the record is not "
                                                  "a JSON object with an utt_id")

    def test_jsonl_table_with_a_trailing_blank_line(self, runner, tmp_path):
        csv_path, manifest_path = separable_training_setup(tmp_path, n_train=200, n_test=20)
        features_path = tmp_path / "external.jsonl"
        table = read_features(csv_path)
        write_features(features_path, [(utt, vector, 1) for utt, vector in table.items()], "acoustic")
        features_path.write_text(features_path.read_text() + "\n")
        result, model_path = self.train(runner, tmp_path, features_path, manifest_path)
        assert result.exit_code == 0, result.output
        assert dn.load_checkpoint(model_path).feature_names == table.names

    def test_jsonl_line_that_is_not_json(self, runner, tmp_path):
        features_path = tmp_path / "external.jsonl"
        features_path.write_text('{"utt_id": "u000", "a": 0.0}\n\n{"utt_id": "u001", "a": }\n')
        manifest_path = tmp_path / "pairs.jsonl"
        write_manifest(manifest_path, [ManifestRecord(dn.PairRecord("u000", "u001", "planted", "A"), "train")])
        result, _ = self.train(runner, tmp_path, features_path, manifest_path)
        assert result.exit_code == 1
        assert result.output.splitlines()[-1] == (f"error: SCHEMA: {features_path}:3: the line is not JSON "
                                                  "(Expecting value at column 25)")

    def test_train_rejects_a_nan_cell(self, runner, tmp_path):
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=200, n_test=20)
        lines = features_path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[3] = "nan"
        lines[2] = ",".join(fields)
        features_path.write_text("\n".join(lines) + "\n")
        result, model_path = self.train(runner, tmp_path, features_path, manifest_path)
        assert result.exit_code == 1
        assert result.output.splitlines()[-1] == (f"error: SCHEMA: {features_path}:3: {fields[0]} mean_f2 "
                                                  "is not a finite number: nan")
        assert not model_path.exists()

    def test_empty_csv_table(self, runner, tmp_path):
        _, manifest_path = separable_training_setup(tmp_path, n_train=200, n_test=20)
        features_path = tmp_path / "empty.csv"
        features_path.write_text("")
        result, _ = self.train(runner, tmp_path, features_path, manifest_path)
        assert result.exit_code == 1
        assert result.output.splitlines()[-1] == f"error: SCHEMA: {features_path}: the file has no header"


class TestEvalCommand:
    def train_model(self, runner, tmp_path, **kwargs):
        features_path, manifest_path = separable_training_setup(tmp_path, **kwargs)
        model_path = tmp_path / "model.json"
        run(runner, ["train", "--manifest", str(manifest_path),
                     "--features", str(features_path), "--out", str(model_path),
                     "--lr", "0.003", "--seed", "3"])
        return features_path, manifest_path, model_path

    def test_separable_eval(self, runner, tmp_path):
        features_path, manifest_path, model_path = self.train_model(tmp_path=tmp_path, runner=runner)
        report_path = tmp_path / "report.json"
        result = run(runner, ["eval", "--manifest", str(manifest_path),
                              "--features", str(features_path),
                              "--model", str(model_path), "--out", str(report_path)])
        assert result.exit_code == 0
        report = json.loads(report_path.read_text())
        assert report["accuracy"] >= 99.0
        assert report["eer"] <= 1.0
        assert report["per_descriptor"]["planted"]["pairs"] == report["pairs"]
        assert len(report["far_frr"]) > 0

    def test_random_labels_near_chance(self, runner, tmp_path):
        features_path, manifest_path, model_path = self.train_model(
            tmp_path=tmp_path, runner=runner, n_test=1200, flip_test_labels=True
        )
        report_path = tmp_path / "report.json"
        run(runner, ["eval", "--manifest", str(manifest_path),
                     "--features", str(features_path),
                     "--model", str(model_path), "--out", str(report_path)])
        report = json.loads(report_path.read_text())
        assert 45.0 <= report["accuracy"] <= 55.0

    def test_single_class_split_reports_na(self, runner, tmp_path):
        features_path, manifest_path, model_path = self.train_model(
            tmp_path=tmp_path, runner=runner, n_train=200, n_test=0
        )
        records = list(read_manifest(manifest_path))
        records.append(ManifestRecord(dn.PairRecord("u000", "u001", "planted", "A"), "test"))
        records.append(ManifestRecord(dn.PairRecord("u002", "u003", "planted", "A"), "test"))
        write_manifest(manifest_path, records)
        result = run(runner, ["eval", "--manifest", str(manifest_path),
                              "--features", str(features_path), "--model", str(model_path)])
        assert result.exit_code == 0
        assert "EER is N/A" in result.output or "N/A" in result.output

    def test_manifest_without_a_test_split_is_invalid_input(self, runner, tmp_path):
        features_path, manifest_path, model_path = self.train_model(
            tmp_path=tmp_path, runner=runner, n_train=200, n_test=0
        )
        result = runner.invoke(main, ["eval", "--manifest", str(manifest_path), "--features", str(features_path),
                                      "--model", str(model_path), "--out", str(tmp_path / "report.json")])
        assert result.exit_code == 1
        assert result.output == "error: INVALID_INPUT: manifest has no test split\n"
        assert not (tmp_path / "report.json").exists()

    def test_one_curve_per_eer(self, runner, tmp_path, monkeypatch):
        """The overall curve serves the overall EER and the report; each descriptor adds one."""
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=300, n_test=60)
        descriptors = ("planted", "second", "third")
        # Test labels alternate within each descriptor, so every descriptor holds both.
        records = [
            ManifestRecord(dn.PairRecord(e.record.utt_a, e.record.utt_b, descriptors[i % 3],
                                         "AB"[i // 3 % 2] if e.split == "test" else e.record.label), e.split)
            for i, e in enumerate(read_manifest(manifest_path))
        ]
        write_manifest(manifest_path, records)
        model_path = tmp_path / "model.json"
        run(runner, ["train", "--manifest", str(manifest_path), "--features", str(features_path),
                     "--out", str(model_path), "--epochs", "2"])
        calls = []
        real = evaluation.far_frr_curve

        def counting(scored):
            calls.append(len(scored))
            return real(scored)

        monkeypatch.setattr(evaluation, "far_frr_curve", counting)
        report_path = tmp_path / "report.json"
        result = run(runner, ["eval", "--manifest", str(manifest_path), "--features", str(features_path),
                              "--model", str(model_path), "--out", str(report_path)])
        assert result.exit_code == 0, result.output
        report = json.loads(report_path.read_text())
        assert all(report["per_descriptor"][d]["eer"] is not None for d in descriptors)
        assert sorted(calls) == [20] * len(descriptors) + [60]  # 1 + k calls
        assert len(report["far_frr"]) > 0

    def test_train_and_eval_build_no_per_pair_objects(self, runner, tmp_path, monkeypatch):
        """Pairs travel as columns from the manifest file to the report."""
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=240, n_test=60)
        assert len(manifest_path.read_text().splitlines()) == 300
        built = []
        for cls in (dn.PairRecord, ManifestRecord):
            real = cls.__post_init__

            def counting(self, real=real):
                built.append(type(self).__name__)
                real(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        model_path, report_path = tmp_path / "model.json", tmp_path / "report.json"
        result = run(runner, ["train", "--manifest", str(manifest_path), "--features", str(features_path),
                              "--out", str(model_path), "--epochs", "2"])
        assert result.exit_code == 0, result.output
        result = run(runner, ["eval", "--manifest", str(manifest_path), "--features", str(features_path),
                              "--model", str(model_path), "--out", str(report_path)])
        assert result.exit_code == 0, result.output
        assert json.loads(report_path.read_text())["pairs"] == 60
        assert built == []

    @pytest.mark.parametrize("tensor,mutate,expected", [
        ("w2", lambda t: [row + [0.0] for row in t], "has shape [128, 2], expected [128, 1]"),
        ("w2", lambda t: [row[:-1] for row in t], "has shape [128, 0], expected [128, 1]"),
        ("b2", lambda t: t[:-1], "has shape [0], expected [1]"),
        ("beta", None, None),
    ], ids=["w2_extra_column", "w2_short_column", "b2_short", "beta_missing"])
    def test_misshapen_checkpoint_is_invalid_input(self, runner, tmp_path, tensor, mutate, expected):
        features_path, manifest_path, model_path = self.train_model(
            tmp_path=tmp_path, runner=runner, n_train=200, n_test=40
        )
        payload = json.loads(model_path.read_text())
        if mutate is None:
            del payload["tensors"][tensor]
        else:
            payload["tensors"][tensor] = mutate(payload["tensors"][tensor])
        model_path.write_text(json.dumps(payload))
        result = run(runner, ["eval", "--manifest", str(manifest_path), "--features", str(features_path),
                              "--model", str(model_path)])
        assert result.exit_code == 1
        detail = f"checkpoint tensor '{tensor}' {expected}" if expected else f"checkpoint has no tensor '{tensor}'"
        assert result.output == f"error: INVALID_INPUT: {detail}\n"

    @pytest.mark.parametrize("payload,detail", [
        (lambda p: [p], "checkpoint is not a JSON object"),
        (lambda p: {k: v for k, v in p.items() if k != "dropout"}, "checkpoint has no field 'dropout'"),
        (lambda p: {**p, "feature_names": 5}, "checkpoint field 'feature_names' is not a list of strings"),
        (lambda p: {**p, "descriptors": None}, "checkpoint field 'descriptors' is not a list of strings"),
        (lambda p: {**p, "bn_epsilon": "x"}, "checkpoint field 'bn_epsilon' is 'x', not a finite number"),
        (lambda p: {**p, "dropout": "x"}, "checkpoint field 'dropout' is 'x', not a finite number"),
        (lambda p: {**p, "tensors": []}, "checkpoint field 'tensors' is not an object"),
        (lambda p: with_entry(p, "w1", (5, 2), float("nan")),
         "checkpoint tensor 'w1' holds nan at [5, 2], not a finite number"),
        (lambda p: with_entry(p, "norm_std", (7,), float("inf")),
         "checkpoint tensor 'norm_std' holds inf at [7], not a finite number"),
        (lambda p: {**p, "bn_epsilon": -1}, "checkpoint field 'bn_epsilon' is -1, not 1e-05"),
        (lambda p: with_entry(p, "running_var", (0,), -5.0),
         "checkpoint tensor 'running_var' holds -5.0 at [0], not a non-negative number"),
        (lambda p: with_entry(p, "norm_std", (0,), 0.0),
         "checkpoint tensor 'norm_std' holds 0.0 at [0], not a positive number"),
        (lambda p: with_entry(p, "norm_std", (0,), -1.0),
         "checkpoint tensor 'norm_std' holds -1.0 at [0], not a positive number"),
        (lambda p: {**p, "tensors": {**p["tensors"], "extra": [0.0], "bias": [1.0]}},
         "checkpoint has unknown tensors: bias, extra"),
        (lambda p: {**p, "dropuot": 0.9}, "checkpoint has unknown fields: dropuot"),
        (lambda p: {**p, "format_version": True}, "unsupported checkpoint version True"),
        (lambda p: {**p, "format_version": 1.0}, "unsupported checkpoint version 1.0"),
        (lambda p: {**p, "feature_names": [p["feature_names"][0], *p["feature_names"][:-1]]},
         "checkpoint field 'feature_names' repeats the name mean_f0"),
        (lambda p: {**p, "descriptors": p["descriptors"] * 2, "tensors": {
            **p["tensors"], "w2": [row * 2 for row in p["tensors"]["w2"]], "b2": p["tensors"]["b2"] * 2}},
         "checkpoint field 'descriptors' repeats the name planted"),
    ], ids=["array", "dropout_missing", "feature_names_number", "descriptors_null", "bn_epsilon_string",
            "dropout_string", "tensors_array", "w1_nan", "norm_std_inf", "bn_epsilon_negative",
            "running_var_negative", "norm_std_zero", "norm_std_negative", "tensors_unknown", "fields_unknown",
            "version_true", "version_float", "feature_names_repeated", "descriptors_repeated"])
    def test_malformed_checkpoint_is_invalid_input(self, runner, tmp_path, payload, detail):
        features_path, manifest_path, model_path = self.train_model(
            tmp_path=tmp_path, runner=runner, n_train=200, n_test=40
        )
        model_path.write_text(json.dumps(payload(json.loads(model_path.read_text()))))
        for args in (["eval", "--manifest", str(manifest_path), "--features", str(features_path)], ["weights"]):
            result = run(runner, [*args, "--model", str(model_path)])
            assert result.exit_code == 1
            assert result.output == f"error: INVALID_INPUT: {detail}\n"

    def test_checkpoint_that_repeats_a_name_is_invalid_input(self, runner, tmp_path):
        features_path, manifest_path, model_path = self.train_model(
            tmp_path=tmp_path, runner=runner, n_train=200, n_test=40
        )
        text = model_path.read_text()
        assert text.count('"dropout": 0.3, ') == 1
        model_path.write_text(text.replace('"dropout": 0.3, ', '"dropout": 0.3, "dropout": 0.9, '))
        for args in (["eval", "--manifest", str(manifest_path), "--features", str(features_path)], ["weights"]):
            result = runner.invoke(main, [*args, "--model", str(model_path)])
            assert result.exit_code == 1
            assert result.output == "error: INVALID_INPUT: the record repeats the name dropout\n"

    def test_test_descriptor_the_model_never_saw_is_coverage(self, runner, tmp_path):
        features_path, manifest_path, model_path = self.train_model(
            tmp_path=tmp_path, runner=runner, n_train=200, n_test=40
        )
        records = list(read_manifest(manifest_path))
        entry = records[-1]
        assert entry.split == "test"
        records[-1] = ManifestRecord(dn.PairRecord(entry.record.utt_a, entry.record.utt_b, "ghost",
                                                   entry.record.label), "test")
        write_manifest(manifest_path, records)
        result = run(runner, ["eval", "--manifest", str(manifest_path), "--features", str(features_path),
                              "--model", str(model_path)])
        assert result.exit_code == 1
        assert result.output == "error: COVERAGE: descriptors not in the model vocabulary: ghost\n"

    def test_report_round_trips(self, runner, tmp_path):
        features_path, manifest_path, model_path = self.train_model(
            tmp_path=tmp_path, runner=runner, n_train=300, n_test=100
        )
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            run(runner, ["eval", "--manifest", str(manifest_path),
                         "--features", str(features_path),
                         "--model", str(model_path), "--out", str(out)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("out,option", [
        ("acoustic.json", "--model"), ("pairs.jsonl", "--manifest"), ("features.csv", "--features"),
    ], ids=["model", "manifest", "features"])
    def test_report_over_an_input_is_refused(self, runner, tmp_path, monkeypatch, out, option):
        monkeypatch.chdir(tmp_path)
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=0, n_test=20)
        inputs = [features_path, manifest_path, checkpoint(tmp_path, "acoustic")]
        args = ["eval", "--manifest", "pairs.jsonl", "--features", "features.csv", "--model", "acoustic.json",
                "--out", out]
        assert_refused_leaving_inputs(runner, args, inputs, f"{out} is both --out and {option}")


def report_oracle(report: dict, curve: tuple) -> str:
    """The report text as eval wrote it before _write_report: one json.dumps of the whole dict, curve as lists."""
    return json.dumps({**report, "far_frr": np.column_stack(curve).tolist() if curve else []}, sort_keys=True)


def eval_oracle(manifest_path, features_path, model_path) -> str:
    """The text of eval's report, with every field built as cmd_eval builds it and written by report_oracle."""
    pairs = read_manifest(manifest_path).split_pairs("test")
    scores = dn.score_pairs(dn.load_checkpoint(model_path), pairs, read_features(features_path))
    scored = evaluation.ScoredColumns(scores, pairs.b_stronger)
    overall, curve = cli._metrics(scored)
    per_descriptor = {d: cli._metrics(scored.take(i))[0] for d, i in cli._by_descriptor(pairs.descriptor).items()}
    return report_oracle({"split": "test", **overall, "per_descriptor": per_descriptor}, curve)


def curve_of(scores, positive) -> tuple:
    return evaluation.far_frr_curve(evaluation.ScoredColumns(np.asarray(scores, dtype=float),
                                                             np.asarray(positive, dtype=bool)))


# A report's fields other than far_frr, with descriptor names that json has to escape, and two
# that read like the far_frr field itself.
REPORT = {"split": "test", "pairs": 7, "accuracy": 57.14285714285714, "eer": 33.33333333333333,
          "per_descriptor": {'say "hi"\\': {"pairs": 7, "accuracy": 57.14285714285714, "eer": None},
                             "naïve 嗓音\u2028": {"pairs": 0, "accuracy": 0.0, "eer": None},
                             "far_frr": {"pairs": 3, "accuracy": 100.0, "eer": 0.0},
                             'x"far_frr": []': {"pairs": 4, "accuracy": 25.0, "eer": None}}}


class TestReportBytes:
    """eval's report equals one json.dumps(report, sort_keys=True) of the curve as nested lists."""

    def eval_report(self, runner, tmp_path, features_path, manifest_path, model_path):
        report_path = tmp_path / "report.json"
        result = run(runner, ["eval", "--manifest", str(manifest_path), "--features", str(features_path),
                              "--model", str(model_path), "--out", str(report_path)])
        assert result.exit_code == 0, result.output
        return report_path.read_text(encoding="utf-8")

    def test_single_class_split(self, runner, tmp_path):
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=200, n_test=0)
        model_path = tmp_path / "model.json"
        run(runner, ["train", "--manifest", str(manifest_path), "--features", str(features_path),
                     "--out", str(model_path), "--epochs", "2"])
        records = list(read_manifest(manifest_path))
        records += [ManifestRecord(dn.PairRecord(a, b, "planted", "A"), "test") for a, b in (("u000", "u001"),
                                                                                           ("u002", "u003"))]
        write_manifest(manifest_path, records)
        text = self.eval_report(runner, tmp_path, features_path, manifest_path, model_path)
        assert text == eval_oracle(manifest_path, features_path, model_path)
        report = json.loads(text)
        assert (report["far_frr"], report["eer"]) == ([], None)

    def test_descriptors_with_quotes_and_non_ascii_names(self, runner, tmp_path):
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=300, n_test=90)
        names = ('say "hi"', "naïve 嗓音", "back\\slash\u2028")
        records = [ManifestRecord(dn.PairRecord(e.record.utt_a, e.record.utt_b, names[i % 3], e.record.label),
                                  e.split) for i, e in enumerate(read_manifest(manifest_path))]
        write_manifest(manifest_path, records)
        model_path = tmp_path / "model.json"
        run(runner, ["train", "--manifest", str(manifest_path), "--features", str(features_path),
                     "--out", str(model_path), "--epochs", "2"])
        text = self.eval_report(runner, tmp_path, features_path, manifest_path, model_path)
        assert text == eval_oracle(manifest_path, features_path, model_path)
        assert sorted(json.loads(text)["per_descriptor"]) == sorted(names)

    @pytest.mark.parametrize("points", [2, cli._CURVE_BLOCK - 1, cli._CURVE_BLOCK, cli._CURVE_BLOCK + 1,
                                        3 * cli._CURVE_BLOCK + 5])
    def test_curve_around_the_block_size(self, tmp_path, points):
        # points - 1 distinct scores, each held by one positive and one negative pair, and the sentinel.
        order = np.random.default_rng(points).permutation(2 * (points - 1))
        curve = curve_of(np.repeat(np.linspace(0.0, 1.0, points - 1), 2)[order],
                         (np.arange(2 * (points - 1)) % 2 == 0)[order])
        assert curve[0].size == points
        cli._write_report(tmp_path / "report.json", REPORT, curve)
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == report_oracle(REPORT, curve)

    def test_curve_of_one_point(self, tmp_path):
        curve = (np.array([0.25]), np.array([0.0]), np.array([1.0]))
        cli._write_report(tmp_path / "report.json", REPORT, curve)
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == report_oracle(REPORT, curve)

    def test_tied_scores(self, tmp_path):
        rng = np.random.default_rng(0)
        scores = rng.integers(0, 3000, 20000) / 2999  # about 3000 distinct scores, each tied about 7 times
        curve = curve_of(scores, rng.random(20000) < 0.4)
        assert cli._CURVE_BLOCK < curve[0].size < 20000
        cli._write_report(tmp_path / "report.json", REPORT, curve)
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == report_oracle(REPORT, curve)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        pairs=st.lists(st.tuples(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0, 5e-324])),
                                 st.booleans()), min_size=2, max_size=60)
        .filter(lambda ps: len({label for _, label in ps}) == 2),
        name=st.text(max_size=8),
        block=st.integers(1, 7),
    )
    def test_drawn_scores_and_labels(self, tmp_path, monkeypatch, pairs, name, block):
        curve = curve_of(*zip(*pairs))
        report = {**REPORT, "per_descriptor": {name: REPORT["per_descriptor"]['say "hi"\\']}}
        monkeypatch.setattr(cli, "_CURVE_BLOCK", block)
        cli._write_report(tmp_path / "report.json", report, curve)
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == report_oracle(report, curve)

    def test_curve_is_written_without_a_list_of_its_points(self, runner, tmp_path, monkeypatch):
        """A 200k-point curve writes in a few MB; as nested lists and one json.dumps text it took 46 MB."""
        features_path, manifest_path = separable_training_setup(tmp_path, n_train=200, n_test=40)
        model_path = tmp_path / "model.json"
        run(runner, ["train", "--manifest", str(manifest_path), "--features", str(features_path),
                     "--out", str(model_path), "--epochs", "1"])
        rng = np.random.default_rng(0)
        curve = curve_of(rng.random(199_999), rng.random(199_999) < 0.5)
        assert curve[0].size == 200_000
        monkeypatch.setattr(evaluation, "far_frr_curve", lambda scored: curve)
        report_path = tmp_path / "report.json"
        args = ["eval", "--manifest", str(manifest_path), "--features", str(features_path),
                "--model", str(model_path), "--out", str(report_path)]
        result, _, peak = traced(lambda: run(runner, args))
        assert result.exit_code == 0, result.output
        assert len(json.loads(report_path.read_text())["far_frr"]) == 200_000
        assert peak < 8e6


def grouped_by_loop(descriptor) -> dict:
    """Each name's pair indices, appended one at a time in file order, keyed in sorted order."""
    groups = {}
    for index, name in enumerate(descriptor):
        groups.setdefault(name, []).append(index)
    return {name: groups[name] for name in sorted(groups)}


class TestByDescriptor:
    """eval's per-descriptor split: keys in sorted order, each key's indices in file order."""

    @given(st.lists(st.sampled_from(["Bright", "Breathy", "bright", "", "Ünïcode", "粗い", "a\u2028b"]) | st.text(max_size=3),
                    max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_groups_equal_the_plain_loop(self, names):
        got = cli._by_descriptor(np.array(names, dtype=object))
        want = grouped_by_loop(names)
        assert list(got) == list(want)
        for name, index in got.items():
            assert index.tolist() == want[name]

    @pytest.mark.parametrize("names", [[], ["Bright"] * 5, ["Ünïcode", "Bright", "粗い", "Bright", "Ünïcode"]],
                             ids=["empty", "one_descriptor", "non_ascii"])
    def test_edge_cases(self, names):
        got = cli._by_descriptor(np.array(names, dtype=object))
        assert {name: index.tolist() for name, index in got.items()} == grouped_by_loop(names)
        assert list(got) == sorted(set(names))


class TestWeightsCommand:
    def test_untrained_gains_are_one(self, runner, tmp_path):
        model = dn.init_model(
            tuple(f"dim_{i:02d}" for i in range(26)), ("planted",),
            dn.TrainConfig(), np.random.default_rng(0),
        )
        path = tmp_path / "fresh.json"
        dn.save_checkpoint(model, path)
        out = tmp_path / "weights.csv"
        result = run(runner, ["weights", "--model", str(path), "--out", str(out)])
        assert result.exit_code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 27  # header + 26
        assert all(line.endswith(",1.0") for line in rows[1:])

    def test_planted_dimension_ranks_first(self, runner, tmp_path):
        features_path, manifest_path = separable_training_setup(tmp_path)
        model_path = tmp_path / "model.json"
        run(runner, ["train", "--manifest", str(manifest_path),
                     "--features", str(features_path), "--out", str(model_path),
                     "--lr", "0.003", "--seed", "3"])
        result = run(runner, ["weights", "--model", str(model_path)])
        first = result.output.splitlines()[0]
        # the acoustic table written by write_features names dimension 0 mean_f0
        assert first.startswith("mean_f0")

    def test_csv_over_the_model_is_refused(self, runner, tmp_path):
        model_path = checkpoint(tmp_path, "acoustic")
        assert_refused_leaving_inputs(runner, ["weights", "--model", str(model_path), "--out", str(model_path)],
                                      [model_path], f"{model_path} is both --out and --model")


class TestFlopsCommand:
    def test_acoustic_report(self, runner, tmp_path):
        out = tmp_path / "cost.json"
        result = run(runner, ["flops", "--kind", "acoustic", "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["extraction"]["params"] == 0
        ratio = report["classifier"]["flops_per_pair"] / report["classifier"]["params"]
        assert 1.8 <= ratio <= 2.2

    def test_ordering_across_kinds(self, runner, tmp_path):
        totals = {}
        for kind in ("lfc", "mfcc", "acoustic"):
            out = tmp_path / f"{kind}.json"
            run(runner, ["flops", "--kind", kind, "--out", str(out)])
            totals[kind] = json.loads(out.read_text())["extraction"]["flops_per_second_of_audio"]
        assert totals["lfc"] < totals["mfcc"] < totals["acoustic"]


    @pytest.mark.parametrize("out", ["acoustic.json", "./acoustic.json", "hard.json", "soft.json"],
                             ids=["same", "another_spelling", "hard_link", "symbolic_link"])
    def test_report_over_the_model_is_refused(self, runner, tmp_path, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        model_path = checkpoint(tmp_path, "acoustic")
        os.link("acoustic.json", "hard.json")
        os.symlink("acoustic.json", "soft.json")
        assert_refused_leaving_inputs(runner, ["flops", "--model", "acoustic.json", "--out", out],
                                      [model_path], f"{out} is both --out and --model")

    def test_model_of_another_kind_is_schema_error(self, runner, tmp_path):
        out = tmp_path / "cost.json"
        result = run(runner, ["flops", "--kind", "mfcc", "--model", str(checkpoint(tmp_path, "acoustic")),
                              "--out", str(out)])
        assert result.exit_code == 1
        assert result.output == "error: SCHEMA: the model reads 26 features, not the 13 mfcc feature names\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind,model_kind", [("acoustic", "acoustic"), ("mfcc", "mfcc"), ("lfc", "mfcc")])
    def test_model_of_the_kind_is_costed(self, runner, tmp_path, kind, model_kind):
        model_path = checkpoint(tmp_path, model_kind)
        out = tmp_path / "cost.json"
        result = run(runner, ["flops", "--kind", kind, "--model", str(model_path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = evaluation.cost_report(kind, dn.load_checkpoint(model_path))
        assert result.output == report.format_text() + "\n"
        assert json.loads(out.read_text())["classifier"]["params"] == dn.load_checkpoint(model_path).parameter_count()


class TestManifest:
    def test_round_trip(self, tmp_path):
        records = [
            ManifestRecord(dn.PairRecord("spk1_001.wav", "spk2_001", "Bright", "A"), "train"),
            ManifestRecord(dn.PairRecord("spk3_001", "spk4_001", "Hoarse", "B"), "test"),
        ]
        path = tmp_path / "m.jsonl"
        write_manifest(path, records)
        loaded = read_manifest(path)
        # .wav paths collapse to their stem ids
        assert loaded[0].record.utt_a == "spk1_001"
        assert loaded[1] == records[1]

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"utt_a": "a", "utt_b": "b", "descriptor": "x", "label": "Q", "split": "train"}\n')
        with pytest.raises(ValueError, match=":1:"):
            read_manifest(path)

    @pytest.mark.parametrize("value", [5, None, [1]], ids=["number", "null", "list"])
    @pytest.mark.parametrize("field", ["utt_a", "utt_b", "descriptor", "label", "split"])
    def test_non_string_field(self, runner, tmp_path, field, value):
        good = {"utt_a": "u000", "utt_b": "u001", "descriptor": "planted", "label": "A", "split": "train"}
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
        expected = f"{path}:2: bad manifest record: {field} must be"
        with pytest.raises(ValueError) as info:
            read_manifest(path)
        assert str(info.value).startswith(expected)

        features_path = tmp_path / "features.csv"
        write_features(features_path, [(f"u00{i}", np.zeros(26), 1) for i in range(2)], "acoustic")
        result = runner.invoke(main, ["train", "--manifest", str(path), "--features", str(features_path),
                                      "--out", str(tmp_path / "model.json")])
        assert result.exit_code == 1
        assert result.output.startswith(f"error: INVALID_INPUT: {expected}")
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize("spoiled", ["manifest", "features"])
    def test_byte_that_is_not_utf8_is_one_error_line(self, runner, tmp_path, spoiled):
        good = {"utt_a": "u000", "utt_b": "u001", "descriptor": "Bright", "label": "A", "split": "train"}
        manifest_path = tmp_path / "m.jsonl"
        manifest_path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "label": "B"}) + "\n")
        features_path = tmp_path / "features.csv"
        write_features(features_path, [(f"u00{i}", np.zeros(26), 1) for i in range(2)], "acoustic")
        path = manifest_path if spoiled == "manifest" else features_path
        lines = path.read_bytes().split(b"\n")
        lines[1] = b"\xff" + lines[1]
        path.write_bytes(b"\n".join(lines))
        result = runner.invoke(main, ["train", "--manifest", str(manifest_path), "--features", str(features_path),
                                      "--out", str(tmp_path / "model.json")])
        assert result.exit_code == 1
        assert result.output == f"error: INVALID_INPUT: {path}:2: byte 0xff at column 1 is not UTF-8\n"

    def test_checker_flags_unknown_descriptors_and_overlap(self, tmp_path):
        records = [
            ManifestRecord(dn.PairRecord("spk1_001", "spk2_001", "sparkly", "A"), "train"),
            ManifestRecord(dn.PairRecord("spk1_002", "spk3_001", "Bright", "B"), "test"),
        ]
        write_manifest(tmp_path / "m.jsonl", records)
        warnings = check_manifest(read_manifest(tmp_path / "m.jsonl"))
        assert any("sparkly" in w for w in warnings)
        assert any("spk1" in w for w in warnings)

    def test_checker_quiet_on_clean_manifest(self, tmp_path):
        records = [
            ManifestRecord(dn.PairRecord("spk1_001", "spk2_001", "Bright", "A"), "train"),
            ManifestRecord(dn.PairRecord("spk3_001", "spk4_001", "Bright", "B"), "test"),
        ]
        write_manifest(tmp_path / "m.jsonl", records)
        assert check_manifest(read_manifest(tmp_path / "m.jsonl")) == []


@pytest.mark.parametrize("command, option", [
    ("synth", "--out"), ("extract", "--out"), ("train", "--out"), ("train", "--log"), ("eval", "--out"),
    ("weights", "--out"), ("flops", "--out"),
])
def test_an_empty_output_path_is_refused_before_any_work(runner, tmp_path, monkeypatch, command, option):
    """An empty --out or --log is one INVALID_INPUT line, before the command reads or renders anything."""
    calls = []
    for owner, name in ((cli, "synth"), (features, "vector_for"), (cli.manifest, "read_manifest"),
                        (dn, "load_checkpoint"), (evaluation, "cost_report")):
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: calls.append(args))
    monkeypatch.chdir(tmp_path)
    features_path, manifest_path = separable_training_setup(tmp_path, n_train=20, n_test=5)
    inputs = {
        "synth": ["--kind", "sine"],
        "extract": [str(make_voice_dir(tmp_path, count=1))],
        "train": ["--manifest", str(manifest_path), "--features", str(features_path)],
        "eval": ["--manifest", str(manifest_path), "--features", str(features_path),
                 "--model", str(checkpoint(tmp_path, "acoustic"))],
        "weights": ["--model", str(checkpoint(tmp_path, "acoustic"))],
        "flops": [],
    }[command]
    outputs = {"--out": "m.json", option: ""} if command == "train" else {option: ""}
    before = sorted(os.listdir(tmp_path))
    result = runner.invoke(main, [command, *inputs, *[a for item in outputs.items() for a in item]])
    assert result.exit_code == 1
    assert result.output == f"error: INVALID_INPUT: {option} is an empty path\n"
    assert calls == [] and sorted(os.listdir(tmp_path)) == before
