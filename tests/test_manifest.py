"""The columnar manifest reader against record-by-record construction."""

import json
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced
from timbrekit import manifest
from timbrekit.diffnet import PairRecord
from timbrekit.manifest import FIELDS, ManifestRecord, SPLITS, read_manifest, utterance_id, write_manifest

BLANKS = ("", "   ", "\t")
ids = st.text(alphabet="abxyz_019", min_size=1, max_size=5)
utterances = st.one_of(
    ids,
    st.builds(lambda d, u, ext: f"{d}{u}{ext}", st.sampled_from(("", "wav/", "a/b/")), ids,
              st.sampled_from((".wav", ".WAV"))),
)
records = st.fixed_dictionaries({
    "utt_a": utterances,
    "utt_b": utterances,
    "descriptor": st.sampled_from(("Bright", "Hoarse", "planted", "x y")),
    "label": st.sampled_from("AB"),
    "split": st.sampled_from(SPLITS),
}).filter(lambda raw: utterance_id(raw["utt_a"]) != utterance_id(raw["utt_b"]))
# Each entry is a record (a dict) or a blank line (a str).
layouts = st.lists(st.one_of(records, st.sampled_from(BLANKS)), min_size=1, max_size=25).filter(
    lambda entries: any(isinstance(e, dict) for e in entries)
)


# Records whose text fields may hold any character, mostly with their keys in
# write_manifest's order (fixed_dictionaries draws the keys in any order), and with
# text put before and after them: mostly none, else whitespace that str.strip
# removes. One entry in eight is a blank line, so whole decoding steps of
# write_manifest-layout lines are common.
any_utterances = st.one_of(utterances, st.text())
any_records = st.tuples(st.sampled_from((True, True, True, False)), st.fixed_dictionaries({
    "utt_a": any_utterances,
    "utt_b": any_utterances,
    "descriptor": st.one_of(st.sampled_from(("Bright", "x y")), st.text()),
    "label": st.sampled_from("AB"),
    "split": st.sampled_from(SPLITS),
}).filter(lambda raw: utterance_id(raw["utt_a"]) != utterance_id(raw["utt_b"]))).map(
    lambda drawn: {key: drawn[1][key] for key in FIELDS} if drawn[0] else drawn[1]
)
pads = st.sampled_from(("",) * 16 + (" ", "\t", "\u00a0", "\u2028", "\x85"))
any_layouts = st.lists(
    st.integers(0, 7).flatmap(lambda k: st.sampled_from(BLANKS) if k == 0 else st.tuples(pads, any_records, pads)),
    min_size=1, max_size=25,
).filter(lambda entries: any(isinstance(e, tuple) for e in entries))
# Edits that make a record's line bad: text put before or after it (the line is the
# "{}"), or a raw control character at the start of utt_a's value.
RAW_CONTROL = "raw control character"
bad_edits = st.sampled_from(("\ufeff{}", "x{}", ",{}", "{}\ufeff", "{} x", "{}{{}}", "{},", RAW_CONTROL))


# Records for the explicit examples: one in write_manifest's layout, one whose raw
# non-ASCII text that layout keeps when ensure_ascii is off, one that needs escapes.
PLAIN = {"utt_a": "a.wav", "utt_b": "b", "descriptor": "x y", "label": "A", "split": "train"}
UNESCAPED = {**PLAIN, "utt_a": "\u00e9\U0001f600\u2028\x85\x7f.wav"}
ESCAPED = {**PLAIN, "utt_a": 'q"\\\u00e9\U0001f600\u2028\x85\x1f.wav', "descriptor": "\t"}


def spoil(line: str, edit: str) -> str:
    if edit == RAW_CONTROL:
        return re.sub(r'"utt_a": ?"', lambda m: m.group() + "\x1f", line, count=1)
    return edit.format(line)


def one_line(raw) -> ManifestRecord:
    """A record built the way a single line is: the constructors, field by field."""
    pair = PairRecord(utterance_id(raw["utt_a"]), utterance_id(raw["utt_b"]), raw["descriptor"], raw["label"])
    return ManifestRecord(pair, raw["split"])


def render(entries, compact) -> list[str]:
    separators = (",", ":") if compact else None
    return [json.dumps(e, separators=separators) if isinstance(e, dict) else e for e in entries]


def corrupt(raw: dict, kind: str, value) -> str:
    raw = dict(raw)
    if kind == "missing key":
        del raw[value]
    elif kind == "bad label":
        raw["label"] = "C"
    elif kind == "bad split":
        raw["split"] = "dev"
    elif kind == "equal ids":
        raw["utt_b"] = raw["utt_a"]
    elif kind == "not an object":
        return json.dumps([raw[key] for key in FIELDS])
    elif kind == "invalid json":
        return json.dumps(raw)[:-1]
    else:  # wrong type
        field, bad = value
        raw[field] = bad
    return json.dumps(raw)


corruptions = st.one_of(
    st.tuples(st.just("missing key"), st.sampled_from(FIELDS)),
    st.tuples(st.sampled_from(("bad label", "bad split", "equal ids", "not an object", "invalid json")),
              st.none()),
    st.tuples(st.just("wrong type"),
              st.tuples(st.sampled_from(FIELDS), st.sampled_from((5, 2.5, None, [1], {"a": 1}, True)))),
)


def error_text(path) -> str:
    with pytest.raises(ValueError) as info:
        read_manifest(path)
    return str(info.value)


class TestColumnarReader:
    @given(entries=any_layouts, compact=st.booleans(), ascii_only=st.booleans(),
           bad=st.none() | st.tuples(st.integers(min_value=0), bad_edits),
           step=st.integers(min_value=1, max_value=8))
    @example(entries=[("", ESCAPED, ""), ("", ESCAPED, "")], compact=False, ascii_only=True, bad=None, step=2)
    @example(entries=[("", ESCAPED, ""), ("", ESCAPED, "")], compact=False, ascii_only=False, bad=None, step=2)
    @example(entries=[("", UNESCAPED, ""), ("", PLAIN, "")], compact=False, ascii_only=False, bad=None, step=2)
    @example(entries=[("", PLAIN, ""), ("", PLAIN, "")], compact=False, ascii_only=True, bad=(1, "{} x"), step=2)
    @example(entries=[("", PLAIN, ""), ("", PLAIN, "")], compact=False, ascii_only=True, bad=(1, RAW_CONTROL), step=2)
    @settings(max_examples=200, deadline=None)
    def test_equals_records_built_line_by_line(self, tmp_path_factory, entries, compact, ascii_only, bad, step):
        """Records equal json.loads of each stripped non-blank line; one bad line is named.

        Small decoding steps put step boundaries between records and blank
        lines, so steps read by the write_manifest-layout pattern and steps
        read line by line mix within one file.
        """
        separators = (",", ":") if compact else None
        lines = [entry if isinstance(entry, str)
                 else entry[0] + json.dumps(entry[1], separators=separators, ensure_ascii=ascii_only) + entry[2]
                 for entry in entries]
        if bad is not None:
            pick, edit = bad
            at = [i for i, entry in enumerate(entries) if isinstance(entry, tuple)]
            bad_index = at[pick % len(at)]
            lines[bad_index] = spoil(lines[bad_index], edit)
            with pytest.raises(ValueError):
                json.loads(lines[bad_index].strip())
        path = tmp_path_factory.mktemp("m") / "pairs.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with mock.patch.object(manifest, "_DECODE_LINES", step):
            if bad is not None:
                with pytest.raises(ValueError, match=re.escape(f"{path}:{bad_index + 1}: bad manifest record: ")):
                    read_manifest(path)
                return
            pairs = read_manifest(path)
        stripped = [line.strip() for line in path.read_text(encoding="utf-8").split("\n")]
        assert list(pairs) == [one_line(json.loads(line)) for line in stripped if line]

    def test_write_manifest_lines_skip_the_line_scanner(self, tmp_path):
        """write_manifest's layout is read by the pattern alone, over whole and partial steps."""
        entries = [
            ManifestRecord(PairRecord(f"spk{i % 97:03d}_{i}", f"wav/spk{i % 89:03d}_b{i % 3}.wav",
                                      ("Bright", "x y", "planted")[i % 3], "AB"[i % 2]), SPLITS[i % 3 == 0])
            for i in range(2500)
        ]
        path = tmp_path / "pairs.jsonl"
        write_manifest(path, entries)
        with mock.patch.object(manifest, "_DECODE", side_effect=AssertionError("a line went to the JSON decoder")):
            pairs = read_manifest(path)
        assert list(pairs) == [one_line(json.loads(line)) for line in path.read_text().splitlines()]

    @given(entries=layouts, pick=st.integers(min_value=0), corruption=corruptions,
           step=st.integers(min_value=1, max_value=8))
    @settings(max_examples=120, deadline=None)
    def test_bad_line_reports_like_the_line_alone(self, tmp_path_factory, entries, pick, corruption, step):
        root = tmp_path_factory.mktemp("m")
        lines = render(entries, compact=False)
        at = [i for i, e in enumerate(entries) if isinstance(e, dict)]
        bad_index = at[pick % len(at)]
        lines[bad_index] = corrupt(entries[bad_index], *corruption)
        path = root / "pairs.jsonl"
        path.write_text("\n".join(lines) + "\n")
        alone = root / "alone.jsonl"
        alone.write_text(lines[bad_index] + "\n")

        with mock.patch.object(manifest, "_DECODE_LINES", step):
            message = error_text(path).removeprefix(f"{path}:{bad_index + 1}: ")
        assert message.startswith("bad manifest record: ")
        assert message == error_text(alone).removeprefix(f"{alone}:1: ")
        try:
            one_line(json.loads(lines[bad_index]))
        except (KeyError, ValueError, TypeError) as exc:
            assert message == f"bad manifest record: {exc}"
        except AttributeError:  # a non-string id, which utterance_id cannot map
            assert corruption[0] == "wrong type" and corruption[1][0] in ("utt_a", "utt_b")
            assert message.startswith(f"bad manifest record: {corruption[1][0]} must be a string")
        else:  # the constructors accept a non-string descriptor; the reader does not
            assert corruption[0] == "wrong type" and corruption[1][0] == "descriptor"
            assert message.startswith("bad manifest record: descriptor must be a string")

    def test_lines_that_join_into_valid_json_fail_at_line_1(self, tmp_path):
        """Decoded as one array these three lines are three records; line by line, none is."""
        first = {"utt_a": "a", "utt_b": "b", "descriptor": "d", "label": "A", "split": "train"}
        second = {**first, "utt_a": "c"}
        lines = [
            json.dumps(first) + ", " + json.dumps(second),
            '{"utt_a": "x", "utt_b": "y"',
            '"descriptor": "d", "label": "B", "split": "test"}',
        ]
        assert len(json.loads("[" + ",".join(lines) + "]")) == 3
        path = tmp_path / "pairs.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"pairs\.jsonl:1: bad manifest record: Extra data"):
            read_manifest(path)

    def test_repeated_name_is_named_with_its_line(self, tmp_path):
        """json.loads keeps the last value of a repeated key; the reader rejects the line."""
        good = json.dumps(PLAIN)
        path = tmp_path / "pairs.jsonl"
        path.write_text("\n".join([good, good[:-1] + ', "label": "B"}', good]) + "\n")
        assert error_text(path) == f"{path}:2: bad manifest record: the record repeats the name label"

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank_lines"])
    def test_file_without_records_is_empty(self, tmp_path, text):
        path = tmp_path / "pairs.jsonl"
        path.write_text(text)
        assert error_text(path) == f"{path}: empty manifest"

    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        """The first bad line is named, whether it holds a byte that is not UTF-8 or a bad record."""
        good = json.dumps(PLAIN).encode()
        not_utf8 = good.replace(b'"b"', b'"b\xff"')
        path = tmp_path / "pairs.jsonl"
        path.write_bytes(b"\n".join([good, not_utf8, good]) + b"\n")
        column = not_utf8.index(b"\xff") + 1
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: byte 0xff at column {column} is not UTF-8")):
            read_manifest(path)
        path.write_bytes(b"\n".join([good, b"x" + good, not_utf8]) + b"\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: bad manifest record: Expecting value")):
            read_manifest(path)

    def test_peak_memory_above_the_columns_is_bounded(self, tmp_path):
        """Lines are decoded _DECODE_LINES at a time, so the decoded dicts of 60k lines never stand at once."""
        path = tmp_path / "pairs.jsonl"
        with path.open("w") as fh:
            for i in range(60_000):
                fh.write(json.dumps({"utt_a": f"spk{i % 300:03d}_a{i % 7}", "utt_b": f"spk{i * 7 % 300:03d}_b{i % 5}",
                                     "descriptor": "bright", "label": "AB"[i % 2],
                                     "split": "train" if i % 4 else "test"}) + "\n")
        pairs, kept, peak = traced(lambda: read_manifest(path))
        assert len(pairs) == 60_000
        assert peak - kept < 6e6

    def test_split_pairs_are_columns_in_file_order(self, tmp_path):
        raws = [
            {"utt_a": "a.wav", "utt_b": "b", "descriptor": "d", "label": "A", "split": "test"},
            {"utt_a": "c", "utt_b": "d", "descriptor": "e", "label": "B", "split": "train"},
            {"utt_a": "e", "utt_b": "dir/f.wav", "descriptor": "d", "label": "B", "split": "test"},
        ]
        path = tmp_path / "pairs.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in raws))
        test = read_manifest(path).split_pairs("test")
        assert list(test.utt_a) == ["a", "e"] and list(test.utt_b) == ["b", "f"]
        assert list(test.descriptor) == ["d", "d"] and list(test.b_stronger) == [False, True]
