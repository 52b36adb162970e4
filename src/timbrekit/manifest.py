"""The JSON-lines pair manifest: one annotated comparison per line.

Record fields: utt_a, utt_b (audio paths or bare ids; a path's stem is the
id), descriptor, label ("A" or "B", where "A" means the first utterance is
the stronger one and maps to score 0), split ("train" or "test"). Every
field is a string.

The reader keeps the pairs as columns (diffnet.PairColumns plus a split
column); ManifestRecord objects are built only when a caller indexes or
iterates the Manifest. A block of lines that all have write_manifest's
exact layout is read by one anchored regex pass. Any other block is decoded
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
from operator import itemgetter
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
# One whole line of that template whose every value is a JSON string with no
# escape and no control character; such a string decodes to its literal text.
_STRING = r'"([^"\\\x00-\x1f]*)"'
_CANONICAL_LINE = re.compile("^" + re.escape(_TEMPLATE).replace("%s", _STRING) + r"(?:\n|\Z)", re.M)
_FIELD_VALUES = itemgetter(*FIELDS)
_DECODE = json.JSONDecoder(object_pairs_hook=_unique_keys).decode


def _decode_columns(fh) -> Manifest:
    """The columns of fh's non-blank lines, each decoded on its own; raises if any line is bad.

    A block whose every line matches _CANONICAL_LINE takes its values from
    the regex groups, which equal what json.loads gives: the pattern is
    anchored at both ends of a line and a match spans one line, so as many
    matches as lines means every line matched in full. Any other block goes
    line by line through _DECODE. Each field's values are interned in a
    table of its distinct values, so the columns share one string per
    distinct value and the checks run over the tables.
    """
    tables = [{} for _ in FIELDS]
    columns = [[] for _ in FIELDS]
    while lines := list(islice(fh, _DECODE_LINES)):
        rows = _CANONICAL_LINE.findall("".join(lines))
        if len(rows) != len(lines):
            rows = map(_FIELD_VALUES, map(_DECODE, filter(None, map(str.strip, lines))))
        for table, column, values in zip(tables, columns, zip(*rows)):
            column += map(table.setdefault, values, values)
    if not all(isinstance(value, str) for table in tables for value in table):
        raise TypeError("a field is not a string")
    raw_a, raw_b, _, labels, splits = tables
    if not labels.keys() <= {A_STRONGER, B_STRONGER} or not splits.keys() <= set(SPLITS):
        raise ValueError("a label or split is not one of the allowed values")
    ids = {raw: utterance_id(raw) for raw in raw_a.keys() | raw_b.keys()}.__getitem__
    utt_a, utt_b, descriptor, label, split = columns
    n = len(label)
    pairs = PairColumns(  # checks that the two ids of each pair differ
        np.fromiter(map(ids, utt_a), object, n),
        np.fromiter(map(ids, utt_b), object, n),
        np.fromiter(descriptor, object, n),
        np.fromiter(map(B_STRONGER.__eq__, label), bool, n),
    )
    return Manifest(pairs, np.fromiter(split, object, n))


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
