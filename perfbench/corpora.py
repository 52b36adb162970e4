"""Seeded inputs for the benchmark workloads, with the truth each one plants.

Every generator writes only files the program reads (WAVs, a feature table,
a pair manifest) into a fresh directory and returns the planted truth the
checks compare against. The same seed gives byte-identical files.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from timbrekit.audio import AudioBuffer, synth, write_wav
from timbrekit.diffnet import A_STRONGER, B_STRONGER, PairRecord, STANDARD_DESCRIPTORS
from timbrekit.features import FEATURE_NAMES, write_features
from timbrekit.manifest import ManifestRecord, write_manifest
from timbrekit.testkit import build_timbre_corpus

# Exact share of pair labels, per split, planted against the labelling rule,
# as real listener labels disagree with any rule. It keeps EER well away
# from zero, so eer_pct is steady across seeds, and it sets the accuracy
# ceiling the checks derive their floor from.
FLIP_SHARE = 0.15

SILENT_FILES = 3
# Every workload runs extract, train and eval, so that every end-to-end
# metric exists on each; the sizes put the weight on different layers.
# (audio files, files per extract chunk, utterances in the pair table,
#  train pairs, test pairs)
SIZES = {
    "extract_voiced": (100, 10, 600, 10_000, 5_000),
    "classify": (8, 4, 1000, 40_000, 20_000),
}
# At the steep end of the corpus tilt range (near -9 dB/octave) a voice
# sometimes has no detectable F4 on any frame and is skipped as
# EMPTY_FEATURE:f4, so the benchmark keeps tilt within -7..-2 dB/octave.
_TILT_SQUEEZE = 5.0 / 7.0


@dataclass
class Inputs:
    """What a workload feeds the program, and what the program must return."""

    root: Path
    chunks: list[Path]  # WAV directories; `extract` runs once per chunk
    chunk_seconds: list[float]
    table: Path  # the feature table train and eval read
    manifest: Path
    planted_f0: dict[str, float]  # utterances that must yield a vector, and their f0
    expected_skips: dict[str, str]  # utterance -> expected skip reason prefix
    pair_counts: dict[str, int] = field(default_factory=dict)
    distinct_utterances: dict[str, int] = field(default_factory=dict)
    descriptors: tuple[str, ...] = tuple(sorted(STANDARD_DESCRIPTORS))

    def digest(self) -> str:
        """sha256 over every generated file, names included."""
        h = hashlib.sha256()
        for path in sorted(p for p in self.root.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(self.root)).encode())
            h.update(path.read_bytes())
        return h.hexdigest()


def _voices(seed: int, count: int):
    """build_timbre_corpus voices (f0 95-260 Hz), their tilt squeezed to -7..-2 dB/octave."""
    voices = []
    for voice in build_timbre_corpus(seed, count, pairs_per_descriptor=1).voices:
        tilt = -2.0 + (voice.spec.tilt_db_per_octave + 2.0) * _TILT_SQUEEZE
        voices.append((voice.utt_id, dataclasses.replace(voice.spec, tilt_db_per_octave=tilt)))
    return voices


class _Writer:
    """Writes WAVs into numbered chunk directories of `chunk_files` files each."""

    def __init__(self, wav_root: Path, chunk_files: int):
        self.wav_root, self.chunk_files = wav_root, chunk_files
        self.chunks: list[Path] = []
        self.seconds: list[float] = []
        self.count = 0

    def write(self, name: str, buf: AudioBuffer) -> None:
        if self.count % self.chunk_files == 0:
            self.chunks.append(self.wav_root / f"chunk{len(self.chunks):02d}")
            self.chunks[-1].mkdir(parents=True)
            self.seconds.append(0.0)
        write_wav(self.chunks[-1] / f"{name}.wav", buf)
        self.seconds[-1] += buf.duration
        self.count += 1


def _voiced_wavs(seed: int, out: _Writer, count: int, skips: bool):
    """Fully voiced 16 kHz voices of 1-3 s, optionally after files that must be skipped.

    The skipped files are 22.05 or 44.1 kHz, so `load_audio` resamples
    them on read: all-silent files of 1-3 s and one 30 ms file, under the
    40 ms window of the 75 Hz pitch floor.
    """
    rng = np.random.default_rng([seed, 1])
    voices = _voices(seed, count)
    expected = {}
    if skips:
        for i in range(SILENT_FILES):
            sr = int(rng.choice([22050, 44100]))
            out.write(f"silent{i}", AudioBuffer(np.zeros(int(rng.uniform(1.0, 3.0) * sr)), sr))
            expected[f"silent{i}"] = "SILENT_UTTERANCE"
        out.write("short0", synth(dataclasses.replace(voices[0][1], duration=0.030, sample_rate=22050)))
        expected["short0"] = "UNREADABLE:"
    planted = {}
    for utt, spec in voices:
        out.write(utt, synth(dataclasses.replace(spec, duration=float(rng.uniform(1.0, 3.0)))))
        planted[utt] = spec.f0
    return planted, expected


# Rough centre and spread of each pooled measure on real speech; only the
# planted rule below decides labels, these just keep the table's scales
# (Hz, dB, ratios) as uneven as real tables are.
_MEASURE_SCALE = {
    "f0": (150.0, 40.0), "f1": (550.0, 80.0), "f2": (1500.0, 150.0),
    "f3": (2500.0, 200.0), "f4": (3500.0, 250.0), "dispersion": (980.0, 90.0),
    "h1_h2": (4.0, 3.0), "h2_h4": (6.0, 3.0), "h4_h2k": (15.0, 5.0),
    "h2k_h5k": (10.0, 5.0), "cpp": (12.0, 3.0), "rms": (0.05, 0.02), "shr": (-15.0, 5.0),
}
_COV_SCALE = (0.2, 0.05)


def _flip_exact(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    flipped = labels.copy()
    idx = rng.choice(labels.size, int(round(FLIP_SHARE * labels.size)), replace=False)
    flipped[idx] = ~flipped[idx]
    return flipped


def _pair_problem(rng, root: Path, utterances: int, train_pairs: int, test_pairs: int):
    """A 26-dim feature table and pairs over the 18 standard descriptors.

    Each descriptor's label is the sign of a planted linear rule on three
    z-scored features of the pair's difference, with FLIP_SHARE of each
    split flipped; 70/30 of the utterances are train/test, and pairs never
    cross the split.
    """
    d = len(FEATURE_NAMES)
    z = rng.standard_normal((utterances, d))
    scale = [_MEASURE_SCALE[n[5:]] if n.startswith("mean_") else _COV_SCALE for n in FEATURE_NAMES]
    values = np.array([c for c, _ in scale]) + np.array([s for _, s in scale]) * z
    ids = [f"utt{i:04d}" for i in range(utterances)]
    table = root / "features.csv"
    write_features(table, [(u, v, 100) for u, v in zip(ids, values)], "acoustic")

    descriptors = STANDARD_DESCRIPTORS
    rule = np.zeros((len(descriptors), d))
    for k in range(len(descriptors)):
        rule[k, rng.choice(d, 3, replace=False)] = rng.standard_normal(3)
    n_train = int(round(0.7 * utterances))
    entries, counts, distinct = [], {}, {}
    for split, lo, hi, count in (("train", 0, n_train, train_pairs), ("test", n_train, utterances, test_pairs)):
        a = rng.integers(lo, hi, count)
        b = rng.integers(lo, hi - 1, count)
        b += b >= a  # distinct from a
        k = rng.integers(0, len(descriptors), count)
        second = _flip_exact(np.einsum("ij,ij->i", rule[k], z[b] - z[a]) > 0.0, rng)
        entries += [
            ManifestRecord(PairRecord(ids[i], ids[j], descriptors[m], B_STRONGER if s else A_STRONGER), split)
            for i, j, m, s in zip(a, b, k, second)
        ]
        counts[split], distinct[split] = count, len(set(a) | set(b))
    manifest = root / "pairs.jsonl"
    write_manifest(manifest, entries)
    return table, manifest, counts, distinct


def generate(workload: str, seed: int, root: Path) -> Inputs:
    """Write the workload's WAVs, feature table and manifest under `root`."""
    files, chunk_files, utterances, train_pairs, test_pairs = SIZES[workload]
    out = _Writer(root / "wav", chunk_files)
    planted, skips = _voiced_wavs(seed, out, files, skips=workload == "extract_voiced")
    rng = np.random.default_rng([seed, 3, list(SIZES).index(workload)])
    table, manifest, counts, distinct = _pair_problem(rng, root, utterances, train_pairs, test_pairs)
    return Inputs(root, out.chunks, out.seconds, table, manifest, planted, skips, counts, distinct)
