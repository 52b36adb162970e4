"""Command-line surface: synth, extract, train, eval, weights, flops.

Every command exits nonzero on failure after printing one line of the
form `error: <REASON>: <detail>` to stderr. All randomness flows from
--seed (default 0).
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from pathlib import Path

import click
import numpy as np

from . import diffnet, evaluation, features, manifest
from .audio import SYNTH_KINDS, SynthSpec, load_audio, synth, write_wav
from .pitch import PitchConfig


# The options whose files a command writes and reads, with their parameter names.
_OUTPUT_OPTIONS = (("--out", "out"), ("--log", "log_path"))
_INPUT_OPTIONS = (("--manifest", "manifest_path"), ("--features", "features_path"), ("--model", "model_path"))


def _fail(reason: str, detail: str):
    click.echo(f"error: {reason}: {detail}", err=True)
    sys.exit(1)


def _file_key(path):
    """The (device, inode) of an existing file, so links to it match; else the path with its links resolved."""
    try:
        stat = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return stat.st_dev, stat.st_ino


def _refuse_overwrite(outputs, inputs):
    """Fail unless each output names a file that no input and no earlier output names; both are (role, path) pairs."""
    seen = {_file_key(path): role for role, path in inputs}
    for role, path in outputs:
        key = _file_key(path)
        if key in seen:
            _fail("INVALID_INPUT", f"{path} is both {role} and {seen[key]}")
        seen[key] = role


def _guard(fn):
    """Refuse, before any work, an output that is empty, lacks its directory, or names an input or the other output.

    Domain errors map onto one error line.
    """

    def wrapper(*args, **kwargs):
        for option, name in _OUTPUT_OPTIONS:
            if kwargs.get(name) == "":
                _fail("INVALID_INPUT", f"{option} is an empty path")
        outputs = [(option, kwargs[name]) for option, name in _OUTPUT_OPTIONS if kwargs.get(name)]
        for _, path in outputs:
            if not Path(path).parent.is_dir():
                _fail("INVALID_INPUT", f"{path}: the directory {Path(path).parent} does not exist")
        _refuse_overwrite(outputs, [(option, kwargs[name]) for option, name in _INPUT_OPTIONS if kwargs.get(name)])
        try:
            return fn(*args, **kwargs)
        except features.SchemaError as exc:
            _fail(exc.reason, str(exc))
        except KeyError as exc:
            _fail("COVERAGE", str(exc).strip("'\""))
        except (ValueError, OSError) as exc:
            _fail("INVALID_INPUT", str(exc))
        except MemoryError as exc:
            # numpy's allocation error names the size and shape it was asked for.
            _fail("INVALID_INPUT", str(exc) or "out of memory")

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


class _OneLineErrors(click.Group):
    """In standalone mode, click's own errors (a bad value, a missing path, an unknown command) are one error line."""

    def main(self, *args, standalone_mode=True, **kwargs):
        if not standalone_mode:
            return super().main(*args, standalone_mode=False, **kwargs)
        try:
            sys.exit(super().main(*args, standalone_mode=False, **kwargs))
        except getattr(click.exceptions, "NoArgsIsHelpError", ()) as exc:  # click 8.2+: a bare group's help
            exc.show()
            sys.exit(exc.exit_code)
        except click.ClickException as exc:
            _fail("INVALID_INPUT", exc.format_message())
        except click.Abort:
            sys.exit("Aborted!")


@click.group(cls=_OneLineErrors)
def main():
    """Acoustic timbre features and the pairwise attribute classifier.

    Score convention: 0 means the first utterance of a pair is the more
    intense one, 1 means the second; manifest labels "A"/"B" follow suit.
    """


def _parse_formants(text: str):
    if not text:
        return ()
    out = []
    for part in text.split(","):
        freq, _, bandwidth = part.partition(":")
        try:
            out.append((float(freq), float(bandwidth)))
        except ValueError:
            raise ValueError(f"--formants part {part!r} is not freq:bw") from None
    return tuple(out)


@main.command("synth")
@click.option("--kind", type=click.Choice(SYNTH_KINDS), required=True)
@click.option("--f0", type=float, default=SynthSpec.f0, show_default=True)
@click.option("--dur", "duration", type=float, default=SynthSpec.duration, show_default=True,
              help="Duration in seconds.")
@click.option("--amplitude", type=float, default=SynthSpec.amplitude, show_default=True)
@click.option("--formants", default="", help="freq:bw pairs, e.g. 500:80,1500:100")
@click.option("--subharmonic-gain", type=float, default=SynthSpec.subharmonic_gain, show_default=True)
@click.option("--noise-gain", type=float, default=SynthSpec.noise_gain, show_default=True)
@click.option("--tilt", "tilt_db_per_octave", type=float, default=SynthSpec.tilt_db_per_octave, show_default=True,
              help="Source tilt, dB/octave.")
@click.option("--rate", "sample_rate", type=int, default=SynthSpec.sample_rate, show_default=True)
@click.option("--seed", type=int, default=SynthSpec.seed, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_guard
def cmd_synth(formants, out, **fields):
    """Write a deterministic synthetic signal as 16-bit PCM WAV."""
    write_wav(out, synth(SynthSpec(formants=_parse_formants(formants), **fields)))
    click.echo(f"wrote {out}")


def _extract_one(args) -> tuple[str, np.ndarray | None, int, str | None]:
    """Worker: (utt_id, vector, frames, skip_reason). Top level for pickling."""
    utt_id, path, kind, pitch = args
    try:
        vector = features.vector_for(kind, load_audio(path), pitch)
        return utt_id, vector.values, vector.frames, None
    except (features.SilentUtteranceError, features.EmptyFeatureError) as exc:
        return utt_id, None, 0, exc.reason
    except ValueError as exc:
        return utt_id, None, 0, f"UNREADABLE:{exc}"


@main.command("extract")
@click.argument("inputs", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--kind", type=click.Choice(features.FEATURE_KINDS), default="acoustic", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True, help=".csv or .jsonl")
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--pitch-floor", "floor", type=float, default=PitchConfig.floor, show_default=True, help="Hz.")
@click.option("--pitch-ceiling", "ceiling", type=float, default=PitchConfig.ceiling, show_default=True, help="Hz.")
@click.option("--voicing-threshold", type=float, default=PitchConfig.voicing_threshold, show_default=True)
@click.option("--silence-threshold", type=float, default=PitchConfig.silence_threshold, show_default=True)
@_guard
def cmd_extract(inputs, kind, out, jobs, **fields):
    """Extract per-utterance feature vectors from WAV files or directories.

    Skipped utterances (silent or unreadable) land next to the output in
    <out>.skipped.jsonl with a reason, not in the feature table.
    """
    if jobs < 1:
        _fail("INVALID_INPUT", f"--jobs must be at least 1, got {jobs}")
    pitch = PitchConfig(**fields)
    paths = []
    for item in inputs:
        p = Path(item)
        if p.is_dir():
            paths.extend(sorted(q for q in p.iterdir() if q.is_file() and q.name.lower().endswith(".wav")))
        else:
            paths.append(p)
    if not paths:
        _fail("INVALID_INPUT", "no input files")
    skip_path = Path(str(out) + ".skipped.jsonl")
    _refuse_overwrite([("--out", out), ("the skip list", skip_path)], [("an input", p) for p in paths])
    # Each file's utt_id is its stem, so two files with one stem would be misaligned: refuse before any work.
    by_id = {}
    for p in paths:
        if p.stem in by_id:
            raise features.SchemaError(f"utt_id {p.stem} is repeated: {by_id[p.stem]} and {p}")
        by_id[p.stem] = p

    tasks = [(utt_id, str(p), kind, pitch) for utt_id, p in by_id.items()]
    # The pool starts all its workers on the first submit, so it gets no more than there are files.
    workers = min(jobs, len(paths))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing, ~10% of the CLI import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_extract_one, tasks))
    else:
        results = [_extract_one(t) for t in tasks]

    rows = [(utt, vec, count) for utt, vec, count, reason in results if reason is None]
    skipped = [(utt, reason) for utt, _, _, reason in results if reason is not None]
    if not rows:
        codes = Counter(reason.split(":", 1)[0] for _, reason in skipped)
        counts = ", ".join(f"{code} {n}" for code, n in sorted(codes.items()))
        _fail("ALL_SKIPPED", f"all {len(paths)} inputs were skipped ({counts})")
    features.write_features(out, rows, kind)
    # The skip list belongs to the table: a failed extract leaves an earlier one as it was.
    if skipped:
        with skip_path.open("w") as fh:
            for utt, reason in sorted(skipped):
                fh.write(json.dumps({"utt_id": utt, "reason": reason}) + "\n")
    elif skip_path.exists():
        skip_path.unlink()
    click.echo(f"wrote {len(rows)} rows to {out}" + (f", skipped {len(skipped)}" if skipped else ""))


@main.command("train")
@click.option("--manifest", "manifest_path", type=click.Path(exists=True), required=True)
@click.option("--features", "features_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Checkpoint path.")
@click.option("--log", "log_path", type=click.Path(dir_okay=False), default=None)
@click.option("--hidden", "hidden_dim", type=int, default=diffnet.TrainConfig.hidden_dim, show_default=True)
@click.option("--dropout", type=float, default=diffnet.TrainConfig.dropout, show_default=True)
@click.option("--lr", "learning_rate", type=float, default=diffnet.TrainConfig.learning_rate, show_default=True)
@click.option("--batch-size", type=int, default=diffnet.TrainConfig.batch_size, show_default=True)
@click.option("--epochs", type=int, default=diffnet.TrainConfig.epochs, show_default=True)
@click.option("--seed", type=int, default=diffnet.TrainConfig.seed, show_default=True)
@_guard
def cmd_train(manifest_path, features_path, out, log_path, **fields):
    """Train on the manifest's train split; deterministic under --seed."""
    config = diffnet.TrainConfig(**fields)
    records = manifest.read_manifest(manifest_path)
    for warning in manifest.check_manifest(records):
        click.echo(f"warning: {warning}", err=True)
    train_pairs = records.split_pairs("train")
    if not train_pairs:
        _fail("INVALID_INPUT", "manifest has no train split")
    table = features.read_features(features_path)
    # Without --log only the last epoch's loss and accuracy, which the summary line prints, are computed.
    model, log = diffnet.train(train_pairs, table, config, log_every_epoch=bool(log_path))
    diffnet.save_checkpoint(model, out)
    if log_path:
        Path(log_path).write_text(json.dumps({"seed": config.seed, "epochs": log}, sort_keys=True))
    final = log[-1]
    click.echo(
        f"trained {config.epochs} epochs on {len(train_pairs)} pairs; "
        f"final loss {final['loss']:.4f}, train acc {final['train_accuracy'] * 100:.2f}%"
    )


def _metrics(scored: evaluation.ScoredColumns) -> tuple[dict, tuple]:
    """The report entry of scored pairs (pair count, accuracy, EER) and the FAR/FRR curve of its EER.

    Unless both labels occur, the EER is None and the curve is ().
    """
    entry = {"pairs": len(scored), "accuracy": evaluation.accuracy(scored), "eer": None}
    curve = ()
    if scored.positive.any() and not scored.positive.all():
        curve = evaluation.far_frr_curve(scored)
        entry["eer"] = evaluation.eer_from_curve(*curve[1:])
    return entry, curve


def _by_descriptor(descriptor: np.ndarray) -> dict[str, np.ndarray]:
    """Each descriptor's pair indices, in file order, keyed in sorted order; only the distinct names are sorted.

    Each pair gets its name's rank as a code; one stable argsort of the codes
    lists the pairs name by name, in file order, and the codes' counts split it.
    """
    names = descriptor.tolist()
    code = {name: rank for rank, name in enumerate(sorted(dict.fromkeys(names)))}
    codes = np.fromiter(map(code.__getitem__, names), np.intp, len(names))
    order = np.argsort(codes, kind="stable")
    return dict(zip(code, np.split(order, np.cumsum(np.bincount(codes, minlength=len(code)))[:-1])))


def _pct(value) -> str:
    return "N/A" if value is None else f"{value:.2f}%"


# Curve points per block of the report's far_frr text: about 120 KB of text, and 0.7 MB of strings
# while it is rendered. Blocks of 512 to 16384 points wrote 20k points within 4 % of the same time.
_CURVE_BLOCK = 2048


def _write_report(path, report: dict, curve: tuple) -> None:
    """Write json.dumps({**report, "far_frr": points}, sort_keys=True) to path.

    points is the list of the curve's [threshold, far, frr] rows, or [] when
    the curve is (). The report is rendered with an empty far_frr, and the
    points go in its place from the curve's arrays a block at a time
    (_curve_blocks), so neither a list of them nor the text of them all is
    ever built. Sorted, the top-level far_frr comes before per_descriptor,
    and json escapes any quote inside a descriptor's name, so the first
    match is the top-level field.
    """
    head, _, tail = json.dumps({**report, "far_frr": []}, sort_keys=True).partition('"far_frr": []')
    with Path(path).open("w") as fh:
        fh.write(head + '"far_frr": [')
        fh.writelines(_curve_blocks(*curve) if curve else ())
        fh.write("]" + tail)


def _curve_blocks(thresholds: np.ndarray, far: np.ndarray, frr: np.ndarray):
    """The text of the curve's [threshold, far, frr] rows inside json's list of them, one block per item.

    The scores and rates are finite, so each value reads as its
    float.__repr__, which is what json writes. A rate is a count over a class
    size, and FAR falls and FRR rises along the curve, so each distinct rate
    in a block is one run of equal values and is rendered once.
    """
    for start in range(0, thresholds.size, _CURVE_BLOCK):
        block = slice(start, start + _CURVE_BLOCK)
        scores = thresholds[block].tolist()
        parts = [""] * (3 * len(scores))
        parts[0::3] = map("[".__add__, map(float.__repr__, scores))
        parts[1::3] = _rendered_runs(far[block], "")
        parts[2::3] = _rendered_runs(frr[block], "]")
        yield (", " if start else "") + ", ".join(parts)


def _rendered_runs(values: np.ndarray, suffix: str):
    """float.__repr__(v) + suffix for each of values, rendered once per run of equal values."""
    starts = np.empty(values.size, dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    texts = [float.__repr__(v) + suffix for v in values[starts].tolist()]
    return map(texts.__getitem__, (np.cumsum(starts) - 1).tolist())


@main.command("eval")
@click.option("--manifest", "manifest_path", type=click.Path(exists=True), required=True)
@click.option("--features", "features_path", type=click.Path(exists=True), required=True)
@click.option("--model", "model_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="JSON report path.")
@_guard
def cmd_eval(manifest_path, features_path, model_path, out):
    """Score the manifest's test split and report accuracy and EER."""
    pairs = manifest.read_manifest(manifest_path).split_pairs("test")
    if not pairs:
        _fail("INVALID_INPUT", "manifest has no test split")
    table = features.read_features(features_path)
    model = diffnet.load_checkpoint(model_path)
    scored = evaluation.ScoredColumns(diffnet.score_pairs(model, pairs, table), pairs.b_stronger)

    overall, curve = _metrics(scored)
    if not curve:
        click.echo("warning: single-class split, EER is N/A", err=True)
    per_descriptor = {
        d: _metrics(scored.take(index))[0] for d, index in _by_descriptor(pairs.descriptor).items()
    }

    if out:
        _write_report(out, {"split": "test", **overall, "per_descriptor": per_descriptor}, curve)
    click.echo(f"pairs {len(scored)}: accuracy {overall['accuracy']:.2f}%, EER {_pct(overall['eer'])}")
    for descriptor, entry in per_descriptor.items():
        click.echo(
            f"  {descriptor}: n={entry['pairs']} acc={entry['accuracy']:.2f}% eer={_pct(entry['eer'])}"
        )


@main.command("weights")
@click.option("--model", "model_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Raw CSV path.")
@_guard
def cmd_weights(model_path, out):
    """Per-feature gains of a checkpoint, sorted by absolute value."""
    model = diffnet.load_checkpoint(model_path)
    importance = diffnet.feature_importance(model)
    if out:
        with Path(out).open("w") as fh:
            fh.write("feature,weight\n")
            for name, weight in importance:
                fh.write(f"{name},{weight!r}\n")
    for name, weight in sorted(importance, key=lambda item: -abs(item[1])):
        click.echo(f"{name}\t{weight:+.6f}")


@main.command("flops")
@click.option("--kind", type=click.Choice(features.FEATURE_KINDS), default="acoustic", show_default=True)
@click.option("--model", "model_path", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="JSON report path.")
@_guard
def cmd_flops(kind, model_path, out):
    """Analytical extraction and classifier cost report."""
    model = diffnet.load_checkpoint(model_path) if model_path else None
    report = evaluation.cost_report(kind, model=model)
    if out:
        Path(out).write_text(json.dumps(report.to_dict(), sort_keys=True))
    click.echo(report.format_text())


if __name__ == "__main__":
    main()
