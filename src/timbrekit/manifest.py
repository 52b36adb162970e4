"""The JSON-lines pair manifest: one annotated comparison per line.

Record fields: utt_a, utt_b (audio paths or bare ids; a path's stem is the
id), descriptor, label ("A" or "B", where "A" means the first utterance is
the stronger one and maps to score 0), split ("train" or "test"). Every
field is a string.

The reader keeps the pairs as columns (diffnet.PairColumns plus a split
column); ManifestRecord objects are built only when a caller indexes or
iterates the Manifest. A block of lines that all have write_manifest's
exact layout is read by one re.split with an anchored line pattern, which
holds the allowed labels and splits as literals. Any other block is decoded
line by line: each stripped, non-empty line goes to the JSON decoder,
which rejects a key named twice. When any line is bad, the file is read
again record by record to name the first bad line.
"""

from __future__ import annotations

import json
import re
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import is_not
from pathlib import Path

import numpy as np

from .diffnet import A_STRONGER, B_STRONGER, PairColumns, PairRecord, STANDARD_DESCRIPTORS
from .features import _unique_keys, utf8_lines

SPLITS = ("train", "test")
FIELDS = ("utt_a", "utt_b", "descriptor", "label", "split")


@dataclass(frozen=True)
class ManifestRecord:
    record: PairRecord
    split: str

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}")


def utterance_id(value: str) -> str:
    """Bare id for a manifest utterance field (path stems for .wav paths)."""
    if value.lower().endswith(".wav"):
        return Path(value).stem
    return value


class Manifest(Sequence):
    """A manifest as columns: every pair, and each pair's split.

    Reads as a sequence of ManifestRecord, each built when it is asked for.
    """

    def __init__(self, pairs: PairColumns, split: np.ndarray):
        if len(split) != len(pairs):
            raise ValueError("pair and split columns must have equal lengths")
        self.pairs = pairs
        self.split = split

    def __len__(self) -> int:
        return len(self.split)

    def __getitem__(self, index: int) -> ManifestRecord:
        return ManifestRecord(self.pairs.record(index), self.split[index])

    def split_pairs(self, split: str) -> PairColumns:
        """The pairs of one split, in file order."""
        return self.pairs.take(self.split == split)


def _text(raw, key: str) -> str:
    value = raw[key]
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string, got {json.dumps(value)}")
    return value


def _record(raw) -> ManifestRecord:
    """One decoded line as a record; raises what makes the line bad.

    The descriptor's type is checked last, so a line that is bad in another
    way as well reports that.
    """
    record = PairRecord(
        utt_a=utterance_id(_text(raw, "utt_a")),
        utt_b=utterance_id(_text(raw, "utt_b")),
        descriptor=raw["descriptor"],
        label=raw["label"],
    )
    entry = ManifestRecord(record, raw["split"])
    _text(raw, "descriptor")
    return entry


# Lines decoded per step; their text and values are dropped before the next step.
_DECODE_LINES = 1 << 10


# write_manifest's line, without its newline: FIELDS in order with json.dumps'
# default separators, each %s a value as json.dumps encodes it in a dict.
_TEMPLATE = "{" + ", ".join(f'"{key}": %s' for key in FIELDS) + "}"
# A JSON string with no escape and no control character, which decodes to its
# literal text, as a group.
_STRING = r'"([^"\\\x00-\x1f]*)"'
# label and split as their groups give them: None for A_STRONGER and "train", a
# one-character string for B_STRONGER and "test". The JSON path maps to the same.
_LABEL_GROUP = {A_STRONGER: None, B_STRONGER: B_STRONGER}
_SPLIT_GROUP = {"train": None, "test": "t"}
# One whole line of the template whose id and descriptor values are such
# strings, and whose label and split are allowed values.
_LINE_VALUES = (_STRING, _STRING, _STRING, f'"(?:{A_STRONGER}|({B_STRONGER}))"', '"(?:train|tes(t))"')
_CANONICAL_LINE = re.compile("^" + re.escape(_TEMPLATE) % _LINE_VALUES + r"(?:\n|\Z)", re.M)
_DECODE = json.JSONDecoder(object_pairs_hook=_unique_keys).decode


def _json_parts(lines) -> list:
    """Each stripped, non-blank line through _DECODE, its fields laid out as _CANONICAL_LINE.split gives them."""
    parts = [""]
    for raw in map(_DECODE, filter(None, map(str.strip, lines))):
        parts += (raw["utt_a"], raw["utt_b"], raw["descriptor"],
                  _LABEL_GROUP[raw["label"]], _SPLIT_GROUP[raw["split"]], "")
    return parts


def _decode_columns(fh) -> Manifest:
    """The columns of fh's non-blank lines, each decoded on its own; raises if any line is bad.

    One _CANONICAL_LINE.split over a block's joined text gives the flat
    list [gap, utt_a, utt_b, descriptor, label, split, gap, ...]. The
    pattern is anchored at both ends of a line and a match spans one line,
    so 6 * lines + 1 entries means every line matched in full and every gap
    is ''. Each column is then one slice of the list, no tuple is built per
    line, and the id and descriptor values equal what json.loads gives. Any
    other block goes line by line through _DECODE into the same layout.
    The two id fields share one table of distinct values and the
    descriptors have their own, so the columns share one string per
    distinct value and the type checks run over the tables. label and
    split are None or a one-character string (_LABEL_GROUP, _SPLIT_GROUP),
    so each becomes a bool column by object truth, in one conversion of an
    object array; neither is interned or checked per value.
    """
    names, descriptors = {}, {}
    utt_a, utt_b, descriptor, label, split = [], [], [], [], []
    while lines := list(islice(fh, _DECODE_LINES)):
        parts = _CANONICAL_LINE.split("".join(lines))
        if len(parts) != 6 * len(lines) + 1:
            parts = _json_parts(lines)
        a, b, d = parts[1::6], parts[2::6], parts[3::6]
        utt_a += map(names.setdefault, a, a)
        utt_b += map(names.setdefault, b, b)
        descriptor += map(descriptors.setdefault, d, d)
        label += parts[4::6]
        split += parts[5::6]
    if not all(isinstance(value, str) for table in (names, descriptors) for value in table):
        raise TypeError("a field is not a string")
    n = len(label)
    stems = {}
    ids = {raw: stems.setdefault(stem := utterance_id(raw), stem) for raw in names}
    if any(map(is_not, ids, ids.values())):  # some id field is a .wav path
        utt_a, utt_b = map(ids.__getitem__, utt_a), map(ids.__getitem__, utt_b)
    pairs = PairColumns(  # checks that the two ids of each pair differ
        np.fromiter(utt_a, object, n),
        np.fromiter(utt_b, object, n),
        np.fromiter(descriptor, object, n),
        np.fromiter(label, object, n).astype(bool),
    )
    is_test = np.fromiter(split, object, n).astype(bool)
    return Manifest(pairs, np.array(SPLITS, dtype=object)[is_test.astype(np.intp)])


def _raise_first_bad_line(path) -> None:
    """Rebuild the records one line at a time and raise the first bad line's error.

    A line holding a byte that is not UTF-8 is bad too.
    """
    with Path(path).open(encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in utf8_lines(fh, path):
            line = line.strip()
            if not line:
                continue
            try:
                _record(_DECODE(line))
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad manifest record: {exc}") from exc


def read_manifest(path) -> Manifest:
    """The manifest's pairs as columns, after checking every line.

    Each line is decoded on its own. When any line is bad, the records are
    rebuilt line by line up to the first bad one, whose error is raised as
    `path:line: bad manifest record: ...`, or `path:line: byte 0x.. at column
    .. is not UTF-8`.
    """
    try:
        with Path(path).open(encoding="utf-8") as fh:
            manifest = _decode_columns(fh)
    except (KeyError, ValueError, TypeError):
        _raise_first_bad_line(path)
        raise
    if not manifest:
        raise ValueError(f"{path}: empty manifest")
    return manifest


def _json_value(value) -> str:
    """value as json.dumps encodes it, also inside a dict: ASCII-escaped for a str."""
    return encode_basestring_ascii(value) if isinstance(value, str) else json.dumps(value)


def write_manifest(path, records: Sequence[ManifestRecord]) -> None:
    """One _TEMPLATE line per record, which equals json.dumps of the record's FIELDS dict."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for entry in records:
            pair = entry.record
            fh.write(_TEMPLATE % (_json_value(pair.utt_a), _json_value(pair.utt_b), _json_value(pair.descriptor),
                                  _json_value(pair.label), _json_value(entry.split)) + "\n")


def check_manifest(manifest: Manifest) -> list[str]:
    """Non-fatal issues: unknown descriptors, speaker-prefix overlap across splits.

    Descriptors outside the standard vocabulary are legal (synthetic
    corpora use their own) but worth flagging; shared id prefixes across
    train and test suggest the speaker-disjointness contract is broken.
    """
    warnings = []
    unknown = sorted(set(manifest.pairs.descriptor) - set(STANDARD_DESCRIPTORS))
    if unknown:
        warnings.append(f"descriptors outside the standard vocabulary: {', '.join(unknown)}")

    def prefixes(split: str) -> set[str]:
        pairs = manifest.split_pairs(split)
        return {utt.rsplit("_", 1)[0] for utt in set(pairs.utt_a) | set(pairs.utt_b)}

    shared = sorted(prefixes("train") & prefixes("test"))
    if shared:
        listed = ", ".join(shared[:5]) + ("..." if len(shared) > 5 else "")
        warnings.append(f"id prefixes appear in both train and test splits: {listed}")
    return warnings
