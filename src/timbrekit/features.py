"""Utterance-level feature extraction.

Runs the frame measures over a 10 ms grid, keeps only voiced frames,
and pools each of the 13 raw series into a global mean and a global
coefficient of variation, giving the 26-dimensional vector in the
canonical order below. Also provides the two cepstral baselines (MFCC and
its linear-frequency variant) and the on-disk feature-table formats.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import INTERNAL_RATE, AudioBuffer, frame_blocks, frame_times, hann_magnitudes, resample
from .formants import dispersion, formant_track
from .harmonics import TILT_NAMES, magnitude_spectrum, rms_energy, tilt_measures
from .noise_metrics import cpp_from_spectrum, shr
from .pitch import PitchConfig, pitch_track

# Canonical order of the 13 raw measures; the feature vector is their
# means followed by their CoVs in the same order. Stable across versions:
# feature files and checkpoints both carry these names.
MEASURE_NAMES = (
    "f0",
    "f1",
    "f2",
    "f3",
    "f4",
    "dispersion",
    *TILT_NAMES,
    "cpp",
    "rms",
    "shr",
)
FEATURE_NAMES = tuple(f"mean_{n}" for n in MEASURE_NAMES) + tuple(
    f"cov_{n}" for n in MEASURE_NAMES
)
CEPSTRAL_NAMES = tuple(f"c{i:02d}" for i in range(13))

# The extraction grid is pitch_track's 10 ms hop (audio.HOP) with a 40 ms
# measure slice around each voiced frame; a vector needs at least
# MIN_VOICED_FRAMES voiced frames.
MEASURE_WINDOW = 0.040
MIN_VOICED_FRAMES = 10

_COV_EPSILON = 1e-9
_LOG_FLOOR = 1e-10

# Cepstral-baseline constants (also consumed by the cost reporter). The
# mel bank's narrowest low-frequency triangle (~137 Hz wide) needs ~16 Hz
# bin spacing to be sampled adequately; the uniform bank's ~300 Hz
# triangles are fine at twice that, so the linear variant gets away with
# the shorter transform.
MEL_FFT = 1024
LINEAR_FFT = 512
# The feature kinds; each cepstral kind is read through its (filterbank scale, FFT size).
CEPSTRAL_KINDS = {"mfcc": ("mel", MEL_FFT), "lfc": ("linear", LINEAR_FFT)}
FEATURE_KINDS = ("acoustic", *CEPSTRAL_KINDS)
CEPSTRAL_WINDOW = 0.025
N_FILTERS = 26
BAND_TOP = 8000.0
# The first 13 columns of the orthonormal DCT-II on N_FILTERS points:
# sqrt(2 / N) * cos(pi * k * (n + 1/2) / N) for coefficient k, with column 0
# scaled by 1 / sqrt(2). Log energies times this basis are the cepstra.
_DCT_BASIS = np.sqrt(2.0 / N_FILTERS) * np.cos(
    np.pi * np.outer(np.arange(N_FILTERS) + 0.5, np.arange(len(CEPSTRAL_NAMES))) / N_FILTERS
)
_DCT_BASIS[:, 0] /= np.sqrt(2.0)
_DCT_BASIS.setflags(write=False)


class SilentUtteranceError(ValueError):
    """Too few voiced frames to build a feature vector."""

    reason = "SILENT_UTTERANCE"


class EmptyFeatureError(ValueError):
    """A measure had no value on any voiced frame."""

    def __init__(self, feature: str):
        super().__init__(f"feature {feature} has no values on voiced frames")
        self.feature = feature
        self.reason = f"EMPTY_FEATURE:{feature}"


@dataclass(frozen=True)
class FrameTrack:
    """Raw per-frame series: a [frames x 13] array, columns in MEASURE_NAMES order, NaN = missing.

    A frame is voiced where it has an f0 (column 0); unvoiced frames are
    NaN across all 13 columns.
    """

    times: np.ndarray
    values: np.ndarray

    @property
    def voiced(self) -> np.ndarray:
        return np.isfinite(self.values[:, 0])


@dataclass(frozen=True)
class FeatureVector:
    """One utterance's read-only, finite feature values and the frames they pool.

    The values follow FEATURE_NAMES for the acoustic set (frames counts the
    voiced frames) and CEPSTRAL_NAMES for mfcc and lfc (frames counts every
    frame).
    """

    values: np.ndarray
    frames: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise ValueError("a feature vector must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def extract_track(buf: AudioBuffer, pitch: PitchConfig = PitchConfig()) -> FrameTrack:
    """All 13 raw measures on the 10 ms grid; unvoiced frames all-NaN.

    `pitch` is the one setting: the formant, CPP and SHR analyses and the
    40 ms measure slice are fixed. Formants are tracked at the frames
    pitch_track voices, and the other measures run on their measure slices
    a block at a time. A frame is voiced only when frame_blocks yields its
    slice, so one whose pitch window fits the buffer but whose slice does
    not stays unvoiced.
    """
    buf = resample(buf, INTERNAL_RATE)
    ptrack = pitch_track(buf, pitch)
    candidates = np.flatnonzero(ptrack.voiced)
    centers = ptrack.times[candidates]
    formants = formant_track(buf, centers)

    values = np.full((ptrack.times.size, len(MEASURE_NAMES)), np.nan)
    for rows, frames in frame_blocks(buf.samples, buf.sample_rate, centers, MEASURE_WINDOW):
        at = candidates[rows]
        f0, freqs, bws = ptrack.f0[at], formants.frequencies[rows], formants.bandwidths[rows]
        spectrum = magnitude_spectrum(frames, buf.sample_rate)
        values[at] = np.column_stack([f0, freqs[:, :4], dispersion(freqs[:, 0], freqs[:, 3]),
                                      tilt_measures(spectrum, f0, freqs, bws), cpp_from_spectrum(spectrum),
                                      rms_energy(frames), shr(spectrum, f0)])  # shr: NaN where f0 is too high
    return FrameTrack(times=ptrack.times, values=values)


def aggregate(track: FrameTrack) -> FeatureVector:
    """Pool a FrameTrack into the 26-dim vector (means then CoVs).

    Raises SilentUtteranceError below the voiced-frame minimum and
    EmptyFeatureError if any measure never took a value.
    """
    voiced_count = int(track.voiced.sum())
    if voiced_count < MIN_VOICED_FRAMES:
        raise SilentUtteranceError(
            f"{voiced_count} voiced frames (need {MIN_VOICED_FRAMES})"
        )
    means, covs = [], []
    for name, x in zip(MEASURE_NAMES, track.values.T):
        x = x[np.isfinite(x)]
        if x.size == 0:
            raise EmptyFeatureError(name)
        means.append(float(np.mean(x)))
        covs.append(float(np.std(x) / (abs(means[-1]) + _COV_EPSILON)))
    return FeatureVector(np.array(means + covs), voiced_count)


def extract_vector(buf: AudioBuffer, pitch: PitchConfig = PitchConfig()) -> FeatureVector:
    """extract_track + aggregate in one call."""
    return aggregate(extract_track(buf, pitch))


def filterbank_matrix(nfft: int, sample_rate: float, scale: str) -> np.ndarray:
    """Triangular filterbank over the rfft bins, mel- (mel = 2595 log10(1 + hz / 700)) or linearly spaced."""
    if scale == "mel":
        mels = np.linspace(0.0, 2595.0 * np.log10(1.0 + BAND_TOP / 700.0), N_FILTERS + 2)
        edges = 700.0 * (10.0 ** (mels / 2595.0) - 1.0)
    elif scale == "linear":
        edges = np.linspace(0.0, BAND_TOP, N_FILTERS + 2)
    else:
        raise ValueError(f"unknown filterbank scale {scale!r}")
    freqs = np.fft.rfftfreq(nfft, 1.0 / sample_rate)
    bank = np.zeros((N_FILTERS, freqs.size))
    for i in range(N_FILTERS):
        left, center, right = edges[i], edges[i + 1], edges[i + 2]
        rising = (freqs > left) & (freqs <= center)
        falling = (freqs > center) & (freqs < right)
        bank[i, rising] = (freqs[rising] - left) / (center - left)
        bank[i, falling] = (right - freqs[falling]) / (right - center)
    return bank


def _cepstral(buf: AudioBuffer, scale: str, nfft: int) -> FeatureVector:
    """The mean over all 25 ms frames of the 13 cepstra of the `scale` filterbank's log energies.

    Each frame's cepstra are its log energies times _DCT_BASIS, the product
    that cost_report counts under `dct`; they equal the first 13 outputs of
    an orthonormal DCT-II to about 1e-14. Both products are einsum loops, not
    BLAS calls, so the bytes do not depend on the BLAS thread count.
    """
    buf = resample(buf, INTERNAL_RATE)
    times = frame_times(buf, CEPSTRAL_WINDOW)
    bank = filterbank_matrix(nfft, buf.sample_rate, scale)
    total = np.zeros(len(CEPSTRAL_NAMES))
    for _, frames in frame_blocks(buf.samples, buf.sample_rate, times, CEPSTRAL_WINDOW):
        power = hann_magnitudes(frames, nfft) ** 2
        log_energy = np.log(np.maximum(np.einsum("fb,kb->fk", power, bank), _LOG_FLOOR))
        total += np.einsum("fk,kc->fc", log_energy, _DCT_BASIS).sum(axis=0)
    return FeatureVector(total / times.size, times.size)


def mfcc(buf: AudioBuffer) -> FeatureVector:
    """13 mel-frequency cepstral coefficients, mean-pooled over all frames."""
    return _cepstral(buf, *CEPSTRAL_KINDS["mfcc"])


def lfc(buf: AudioBuffer) -> FeatureVector:
    """The linear-frequency variant of mfcc (same pipeline, uniform centers)."""
    return _cepstral(buf, *CEPSTRAL_KINDS["lfc"])


def feature_names_for(kind: str) -> tuple[str, ...]:
    if kind == "acoustic":
        return FEATURE_NAMES
    if kind in CEPSTRAL_KINDS:
        return CEPSTRAL_NAMES
    raise ValueError(f"unknown feature kind {kind!r}")


def vector_for(kind: str, buf: AudioBuffer, pitch: PitchConfig = PitchConfig()) -> FeatureVector:
    """buf's vector of one of FEATURE_KINDS (KeyError for another); `pitch` sets the acoustic kind's tracker."""
    if kind == "acoustic":
        return extract_vector(buf, pitch)
    return _cepstral(buf, *CEPSTRAL_KINDS[kind])


# ---------------------------------------------------------------------------
# Feature tables on disk: CSV (default) or JSON lines, one row per utterance.

def write_features(path, rows: list[tuple[str, np.ndarray, int]], kind: str) -> None:
    """Write (utt_id, vector, frame count) rows, sorted by id.

    The format follows the extension: .jsonl for JSON lines, CSV otherwise.
    Floats are written with repr, so a read round-trips bit-exactly. A
    repeated utt_id, a vector whose width differs from the kind's names, or
    a value that is not a finite number (which read_features would refuse)
    raises SchemaError before anything is written.
    """
    names = feature_names_for(kind)
    path = Path(path)
    rows = sorted(rows, key=lambda r: r[0])
    seen = FeatureTable(names=names)
    for utt_id, vector, _ in rows:
        if len(vector) != len(names):
            raise SchemaError(f"{path}: {utt_id} has {len(vector)} values, {kind} has {len(names)} names")
        seen.add(utt_id, vector, path)
    first_line = 1 if path.suffix == ".jsonl" else 2  # the line the first row would be written on
    _stacked(seen, path, range(first_line, first_line + len(rows)))
    if path.suffix == ".jsonl":
        with path.open("w", encoding="utf-8") as fh:
            for utt_id, vector, count in rows:
                record = {"utt_id": utt_id}
                record.update({n: float(v) for n, v in zip(names, vector)})
                record["voiced_frames"] = int(count)
                fh.write(json.dumps(record) + "\n")
        return
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["utt_id", *names, "voiced_frames"])
        for utt_id, vector, count in rows:
            writer.writerow([utt_id, *[repr(float(v)) for v in vector], int(count)])


def utf8_lines(fh, path):
    """(lineno, line) for each line of fh, from 1; raises ValueError at the first line that is not UTF-8.

    fh is opened with encoding="utf-8" and errors="surrogateescape", which
    reads each byte that is not UTF-8 as a lone surrogate that no UTF-8 text
    decodes to, so the line that holds it fails to encode back.
    """
    for lineno, line in enumerate(fh, 1):
        if not line.isascii():
            try:
                line.encode()
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise ValueError(f"{path}:{lineno}: byte 0x{byte:02x} at column {exc.start + 1} "
                                 "is not UTF-8") from None
        yield lineno, line


class SchemaError(ValueError):
    """A feature table disagrees with itself or with the model that reads it."""

    reason = "SCHEMA"


class FeatureTable(dict):
    """{utt_id: vector}, plus the names of the vectors' columns, in order.

    train names a model's features by them, and score_pairs refuses names that are not the model's.
    read_features' vectors are the rows of one [U x D] float64 array.
    """

    def __init__(self, rows=(), names=()):
        super().__init__(rows)
        self.names: tuple[str, ...] = tuple(names)

    def add(self, utt_id: str, vector, path, lineno: int | None = None) -> None:
        """Add a row; a repeated utt_id raises SchemaError naming path and, when given, the line."""
        if utt_id in self:
            where = path if lineno is None else f"{path}:{lineno}"
            raise SchemaError(f"{where}: utt_id {utt_id} is repeated")
        self[utt_id] = vector


class _RepeatedName(ValueError):
    """A JSON object names one key twice."""


def _repeated(names) -> str | None:
    """The first of `names` that occurs more than once, or None."""
    return next((name for name, count in Counter(names).items() if count > 1), None)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The object_pairs_hook of every JSON input: a key named twice raises _RepeatedName."""
    record = dict(pairs)
    if len(record) < len(pairs):
        raise _RepeatedName(f"the record repeats the name {_repeated(name for name, _ in pairs)}")
    return record


# The decoder of JSONL feature tables. JSON integers
# come back as floats, so a value is a number exactly when it is a float.
JSON_DECODER = json.JSONDecoder(parse_int=float, object_pairs_hook=_unique_keys)


def read_features(path) -> FeatureTable:
    """Load a CSV or JSONL feature table as {utt_id: vector}, named by the header or first record.

    JSONL values are read by name and blank lines are skipped. A repeated
    utt_id, a name repeated in the CSV header or in a JSONL record, a CSV
    file without a header or whose header does not run from utt_id to
    voiced_frames, a CSV row with another field count than the
    header or whose voiced_frames is not a non-negative integer, a JSONL
    line that is not JSON or not an object with an utt_id, a JSONL record
    with other names than the first or whose voiced_frames, when present,
    is not a JSON number with a non-negative integral value, or a value
    that is not a finite number (a JSONL value that is not a JSON number, a
    CSV cell that float() does not parse, NaN or an infinity in either),
    raises SchemaError naming the line, or the header. A line holding a
    byte that is not UTF-8 raises ValueError naming the line and the byte.
    """
    path = Path(path)
    if path.suffix == ".jsonl":
        table, keys, lines = FeatureTable(), None, []
        with path.open(encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in utf8_lines(fh, path):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = JSON_DECODER.decode(line)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"{path}:{lineno}: the line is not JSON "
                                      f"({exc.msg} at column {exc.colno})") from None
                except _RepeatedName as exc:
                    raise SchemaError(f"{path}:{lineno}: {exc}") from None
                if not isinstance(record, dict) or "utt_id" not in record:
                    raise SchemaError(f"{path}:{lineno}: the record is not a JSON object with an utt_id")
                utt_id = record.pop("utt_id")
                count = record.pop("voiced_frames", 0.0)
                if type(count) is not float or count < 0 or not count.is_integer():
                    raise SchemaError(f"{path}:{lineno}: {utt_id} voiced_frames is not a non-negative integer: "
                                      f"{json.dumps(count)}")
                if keys is None:
                    table, keys = FeatureTable(names=record), set(record)
                elif record.keys() != keys:
                    raise SchemaError(f"{path}:{lineno}: {utt_id} and the first record differ in "
                                      f"{sorted(record.keys() ^ keys)}")
                values = [record[n] for n in table.names]
                if not all(type(v) is float for v in values):
                    name = next(n for n, v in zip(table.names, values) if type(v) is not float)
                    raise _not_a_number(f"{path}:{lineno}", utt_id, name, json.dumps(record[name]))
                table.add(utt_id, values, path, lineno)
                lines.append(lineno)
        return _stacked(table, path, lines)
    with path.open(encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(line for _, line in utf8_lines(fh, path))
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: the file has no header")
        if header[:1] != ["utt_id"] or header[-1:] != ["voiced_frames"]:
            raise SchemaError(f"{path}: the header must start with utt_id and end with voiced_frames, "
                              f"got {','.join(header)}")
        if (name := _repeated(header)) is not None:
            raise SchemaError(f"{path}: the header repeats the name {name}")
        value_cols = slice(1, len(header) - 1)
        table = FeatureTable(names=header[value_cols])
        for lineno, row in enumerate(reader, 2):
            if len(row) != len(header):
                utt_id = row[0] if row else "a blank row"
                raise SchemaError(f"{path}:{lineno}: {utt_id} has {len(row)} fields, "
                                  f"the header has {len(header)}")
            if not (row[-1].isascii() and row[-1].isdigit()):
                raise SchemaError(f"{path}:{lineno}: {row[0]} voiced_frames is not a non-negative integer: "
                                  f"{row[-1]!r}")
            try:
                values = list(map(float, row[value_cols]))
            except ValueError:
                name, cell = next((n, v) for n, v in zip(table.names, row[value_cols]) if not _parses(v))
                raise _not_a_number(f"{path}:{lineno}", row[0], name, cell) from None
            table.add(row[0], values, path, lineno)
    return _stacked(table, path, range(2, 2 + len(table)))


def _stacked(table: FeatureTable, path: Path, lines) -> FeatureTable:
    """The table with its rows stacked into one [U x D] float64 array, each vector a row of it.

    One check over that array must find no NaN or infinity; the first one
    raises SchemaError naming its line, lines[i] being row i's.
    """
    ids = list(table)
    values = np.array(list(table.values()), dtype=np.float64).reshape(len(ids), len(table.names))
    finite = np.isfinite(values)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise _not_a_number(f"{path}:{lines[row]}", ids[row], table.names[col], values[row, col])
    table.update(zip(ids, values))
    return table


def _parses(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _not_a_number(where: str, utt_id, name: str, value) -> SchemaError:
    return SchemaError(f"{where}: {utt_id} {name} is not a finite number: {value}")
