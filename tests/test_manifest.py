"""The columnar manifest reader against record-by-record construction."""

import json
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import traced
from timbrekit import manifest
from timbrekit.diffnet import PairRecord
from timbrekit.manifest import FIELDS, ManifestRecord, SPLITS, read_manifest, utterance_id

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


# JSON pieces and the characters json.loads treats differently from str.strip.
fragments = st.sampled_from((
    "{", "}", "[", "]", ":", ",", '"utt_a"', '"A"', '"\\u00e9"', '"x', "NaN", "Infinity",
    "-Infinity", "1", "-0.0", "2.5e3", "null", "true", " ", "\t", "\ufeff", "\u00a0",
))
record_text = records.map(json.dumps)
edges = st.sampled_from(("", " ", "\ufeff", "\u00a0", " x", "{}", " {}", "NaN", ",", "]"))
candidate_lines = st.one_of(
    record_text,
    st.lists(fragments, min_size=1, max_size=12).map("".join),
    st.builds(lambda text, cut: text[:cut], record_text, st.integers(min_value=0, max_value=120)),
    st.builds(lambda head, text, tail: head + text + tail, edges, record_text, edges),
    st.builds(lambda a, sep, b: a + sep + b, record_text, st.sampled_from(("", " ", ",")), record_text),
    st.text(max_size=20),
)


def error_text(path) -> str:
    with pytest.raises(ValueError) as info:
        read_manifest(path)
    return str(info.value)


class TestDecodeLine:
    @given(text=candidate_lines)
    @settings(max_examples=400, deadline=None)
    def test_accepts_what_json_loads_accepts(self, text):
        line = text.strip()
        assume(line)
        try:
            expected = json.loads(line)
        except ValueError:
            with pytest.raises(ValueError):
                manifest._decode_line(line)
        else:
            assert repr(manifest._decode_line(line)) == repr(expected)


class TestColumnarReader:
    @given(entries=layouts, compact=st.booleans(), step=st.integers(min_value=1, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_equals_records_built_line_by_line(self, tmp_path_factory, entries, compact, step):
        """Small decoding steps put step boundaries between records and blank lines."""
        path = tmp_path_factory.mktemp("m") / "pairs.jsonl"
        path.write_text("\n".join(render(entries, compact)) + "\n")
        expected = [one_line(json.loads(line)) for line in path.read_text().split("\n") if line.strip()]
        with mock.patch.object(manifest, "_DECODE_LINES", step):
            assert list(read_manifest(path)) == expected

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
