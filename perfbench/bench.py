"""One benchmark run: set up, time the CLI commands, check the outputs, report."""

from __future__ import annotations

import contextlib
import csv
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

from timbrekit import diffnet, evaluation, manifest
from timbrekit.cli import main as cli
from timbrekit.features import FEATURE_NAMES, read_features
from timbrekit.testkit import eer_oracle

import corpora
from tracer import COMMANDS, Tracer

SETUP_REPEATS = 3
# A fixed small epoch count per workload, so train time per epoch is
# measured at a fixed pair count (corpora.SIZES).
EPOCHS = {"extract_voiced": 10, "classify": 5}
# Share of --seconds given to the extract, train and eval commands. Each
# command is repeated back to back until its share is spent (at least once)
# and reported as the median repetition.
PHASE_SHARES = {
    "extract_voiced": (0.45, 0.35, 0.20),
    "classify": (0.15, 0.45, 0.40),
}

# Every time metric is rescaled by how fast the machine ran around the
# measured work. The reference VM sometimes runs at half speed for minutes
# at a time, and such a spell slowed extraction, training, evaluation and
# set-up by the same factor (2.1x). So each timed call is bracketed by a
# fixed calibration kernel of the program's kinds of work (small FFTs, a
# Python loop over frames and small matrix products, none of it timbrekit
# code), and its wall time is multiplied by CALIBRATION_S / (the kernel's
# time). A change in the program's own speed still shows in full; raw wall
# times are kept in the record.
CALIBRATION_S = 0.037  # the kernel's typical time on the reference machine

F0_TOLERANCE = 0.05
EER_TOLERANCE = 1e-9
# A third of the way from chance to the accuracy the planted flips allow.
ACCURACY_FLOOR = 50.0 + (100.0 * (1.0 - corpora.FLIP_SHARE) - 50.0) / 3.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "extract_ms_per_audio_s": "ms/s",
    "train_s_per_epoch": "s",
    "eval_s": "s",
    "eer_pct": "%",
    "peak_rss_mb": "MB",
}

# Extraction layer -> the cost_report keys that account for the same work.
COST_KEYS = {
    "pitch.pitch_track": ("pitch_autocorrelation", "global_peak_scan"),
    "formants.formant_track": ("formant_lpc", "formant_rate_resample"),
    "harmonics.magnitude_spectrum": ("slice_spectrum",),
    "noise_metrics.cpp_from_spectrum": ("cepstral_peak",),
    "harmonics.tilt_measures": ("harmonic_amplitudes",),
    "noise_metrics.shr": ("subharmonic_ratio",),
    "harmonics.rms_energy": ("rms",),
    "features.aggregate": ("pooling",),
}
SPECTRUM_MEASURES = (
    "harmonics.magnitude_spectrum", "harmonics.tilt_measures", "harmonics.rms_energy",
    "noise_metrics.cpp_from_spectrum", "noise_metrics.shr",
)
SKIP_REASONS = ("SILENT_UTTERANCE", "UNREADABLE", "EMPTY_FEATURE")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _source_digest(*dirs: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for d in dirs for p in d.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_threads():
    """Threads numpy's bundled OpenBLAS will use, or None if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "blas_thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Calibration:
    """A fixed kernel whose time tracks the machine's current speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.frames = rng.standard_normal((1200, 640))
        self.weights = rng.standard_normal((640, 128))
        self.window = np.hanning(640)

    def kernel_s(self) -> float:
        t = time.perf_counter()
        total = 0.0
        for start in range(0, len(self.frames), 40):
            block = self.frames[start : start + 40]
            total += float((block @ self.weights).max())
            for row in block:
                total += float(np.abs(np.fft.rfft(row * self.window, 2048)).max())
                for k in range(20):
                    total += k * 0.5
        return time.perf_counter() - t

    def scale(self) -> float:
        """Seconds at the reference machine's speed per wall second, now."""
        return CALIBRATION_S / statistics.median(self.kernel_s() for _ in range(3))

    def timed(self, fn) -> tuple[object, float, float]:
        """(fn's result, wall seconds, wall seconds at the reference machine's speed)."""
        before = self.kernel_s()
        t = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t
        return result, wall, wall * 2.0 * CALIBRATION_S / (before + self.kernel_s())


def invoke(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in this process; (exit code, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(args=argv, prog_name="timbrekit", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is one failed operation, not a dead benchmark
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=err)
    return code, err.getvalue()


class Bench:
    def __init__(self, root: Path, src: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.root, self.src = root, src
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.base = root / ".perfbench"
        self.work = self.base / "work" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.failures: list[str] = []
        self.attempted = 0
        self.record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
        self.calibration = Calibration()

    # -- bookkeeping -------------------------------------------------------

    def _op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    # -- set-up ------------------------------------------------------------

    def setup(self, import_s: float):
        """Generate the inputs and warm caches SETUP_REPEATS times; keep the last set."""
        walls, times, digests = [], [], []
        warm_out = self.work / "warm" / "warm.csv"

        def once():
            shutil.rmtree(self.work, ignore_errors=True)
            inputs = corpora.generate(self.workload, self.seed, self.work / "inputs")
            first = next(p for c in inputs.chunks for p in sorted(c.glob("*.wav")) if p.stem in inputs.planted_f0)
            warm_out.parent.mkdir(parents=True)
            return inputs, invoke(["extract", str(first), "--out", str(warm_out), "--jobs", "1"])

        import_scaled = import_s * self.calibration.scale()
        for _ in range(SETUP_REPEATS):
            (inputs, (code, err)), wall, scaled = self.calibration.timed(once)
            walls.append(import_s + wall)
            times.append(import_scaled + scaled)
            digests.append(inputs.digest())
            if code != 0:
                self._op(False, f"warm-up extract exited {code}: {err.strip()}")
        self._op(len(set(digests)) == 1, "the generator gave different inputs for one seed")
        self.record["setup"] = {
            "import_s": import_s, "wall_s": walls, "scaled_s": times, "inputs_sha256": digests[-1],
        }
        return inputs, statistics.median(times)

    # -- the three commands ------------------------------------------------

    def _commands(self, inputs) -> dict[str, list[tuple[list[str], Path]]]:
        """(argv, output file) of each command; extract has one entry per chunk."""
        out = self.work / "out"
        out.mkdir(exist_ok=True)
        model, report = out / "model.json", out / "report.json"
        table = str(inputs.table)
        return {
            "extract": [
                (["extract", str(chunk), "--out", str(out / f"{chunk.name}.csv"), "--jobs", "1"], out / f"{chunk.name}.csv")
                for chunk in inputs.chunks
            ],
            "train": [([
                "train", "--manifest", str(inputs.manifest), "--features", table,
                "--out", str(model), "--epochs", str(EPOCHS[self.workload]), "--seed", str(self.seed),
            ], model)],
            "eval": [([
                "eval", "--manifest", str(inputs.manifest), "--features", table,
                "--model", str(model), "--out", str(report),
            ], report)],
        }

    def _run_command(self, argv: list[str], product: Path, inputs, hashes: dict) -> tuple[float, float]:
        """Run, check and hash one command; (wall seconds, scaled seconds)."""
        (code, err), wall, scaled = self.calibration.timed(lambda: invoke(argv))
        self._op(code == 0, f"{argv[0]} exited {code}: {err.strip()[-300:]}")
        if code == 0:
            digest = _sha256(product)
            first = hashes.setdefault(product.name, digest)
            self._op(digest == first, f"{product.name} differs between repetitions")
            if argv[0] == "extract":
                self.check_extract(inputs, Path(argv[1]), product)
        return wall, scaled

    def measure(self, inputs) -> dict[str, list[float]]:
        """Each command back to back until its share of --seconds is spent.

        extract runs chunk by chunk, cycling, and at least once over the whole
        corpus; its samples are ms per second of audio, one per chunk run.
        """
        commands = self._commands(inputs)
        hashes: dict[str, str] = {}
        times: dict[str, list[float]] = {}
        walls: dict[str, list[float]] = {}
        for name, share in zip(COMMANDS, PHASE_SHARES[self.workload]):
            jobs, budget = commands[name], share * self.seconds
            samples, spent = [], walls.setdefault(name, [])
            start = time.perf_counter()
            while True:
                i = len(spent) % len(jobs)
                wall, scaled = self._run_command(*jobs[i], inputs, hashes)
                spent.append(wall)
                samples.append(scaled * 1000.0 / inputs.chunk_seconds[i] if name == "extract" else scaled)
                if len(spent) >= len(jobs) and time.perf_counter() - start + statistics.median(spent) > budget:
                    break
            times[name] = samples
        self.record["wall_s"] = walls
        return times

    # -- correctness -------------------------------------------------------

    def check_extract(self, inputs, chunk: Path, table: Path) -> None:
        """Every planted file of the chunk: a finite vector with the planted f0, or its skip."""
        names_in_chunk = {p.stem for p in chunk.glob("*.wav")}
        rows = {}
        with table.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            f0_col = header.index("mean_f0")
            names = header[1:-1]
            for row in reader:
                rows[row[0]] = row
        self._op(tuple(names) == FEATURE_NAMES, f"feature table header {names}")
        skip_path = Path(str(table) + ".skipped.jsonl")
        skipped = {}
        if skip_path.exists():
            for line in skip_path.read_text().splitlines():
                entry = json.loads(line)
                skipped[entry["utt_id"]] = entry["reason"]
        for utt, f0 in inputs.planted_f0.items():
            if utt not in names_in_chunk:
                continue
            row = rows.get(utt)
            if row is None:
                self._op(False, f"{utt}: no vector, skipped as {skipped.get(utt)}")
                continue
            values = [float(v) for v in row[1:-1]]
            finite = len(values) == len(FEATURE_NAMES) and all(map(math.isfinite, values))
            got = float(row[f0_col])
            self._op(finite and abs(got - f0) <= F0_TOLERANCE * f0, f"{utt}: mean_f0 {got:.2f}, planted {f0:.2f}")
        for utt, reason in inputs.expected_skips.items():
            if utt not in names_in_chunk:
                continue
            got = skipped.get(utt)
            self._op(got is not None and got.startswith(reason), f"{utt}: skip reason {got!r}, expected {reason!r}")
        extra = sorted(set(rows) - set(inputs.planted_f0)) + sorted(set(skipped) - set(inputs.expected_skips))
        self._op(not extra, f"unplanted outcomes for {extra}")

    def check_eval(self, inputs, commands) -> dict:
        """Accuracy floor, and one descriptor's EER against the exhaustive oracle."""
        report = json.loads(commands["eval"][0][1].read_text())
        self._op(report["accuracy"] >= ACCURACY_FLOOR, f"test accuracy {report['accuracy']:.2f}% < {ACCURACY_FLOOR}%")
        table = read_features(inputs.table)
        model = diffnet.load_checkpoint(commands["train"][0][1])
        pairs = [e.record for e in manifest.read_manifest(inputs.manifest) if e.split == "test"]
        scores = diffnet.score_pairs(model, pairs, table)
        descriptor = inputs.descriptors[self.seed % len(inputs.descriptors)]
        chosen = [i for i, p in enumerate(pairs) if p.descriptor == descriptor]
        oracle = eer_oracle(scores[chosen], [pairs[i].label == diffnet.B_STRONGER for i in chosen])
        reported = report["per_descriptor"][descriptor]["eer"]
        self._op(
            reported is not None and abs(oracle - reported) <= EER_TOLERANCE,
            f"{descriptor} EER {reported} vs oracle {oracle}",
        )
        return {
            "accuracy_pct": report["accuracy"], "accuracy_floor_pct": ACCURACY_FLOOR,
            "eer_pct": report["eer"], "oracle_descriptor": descriptor,
            "oracle_eer_pct": oracle, "reported_eer_pct": reported,
        }

    def check_history(self, digests: dict) -> None:
        """Same seed and source as an earlier run: identical hashes. Other seed: other inputs."""
        for path in sorted((self.base / "records").glob(f"{self.workload}-*.json")):
            try:
                old = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if old.get("source_sha256") != self.record["source_sha256"]:
                continue
            if old["seed"] == self.seed:
                same = old.get("sha256") == digests
                self._op(same, f"hashes differ from {path.name} for the same seed")
            else:
                self._op(old.get("sha256", {}).get("inputs") != digests["inputs"], f"seed {old['seed']} gave the same inputs")

    # -- the run -----------------------------------------------------------

    def run(self, import_s: float) -> str:
        self.record["machine"] = machine_facts()
        self.record["source_sha256"] = _source_digest(self.src / "timbrekit", Path(__file__).parent)
        inputs, setup_s = self.setup(import_s)
        self.record["inputs"] = {
            "audio_seconds": sum(inputs.chunk_seconds), "extract_chunks": len(inputs.chunks),
            "files": len(inputs.planted_f0) + len(inputs.expected_skips),
            "pairs": inputs.pair_counts, "distinct_utterances": inputs.distinct_utterances,
            "pair_slots_per_utterance": {
                s: 2 * inputs.pair_counts[s] / inputs.distinct_utterances[s] for s in inputs.pair_counts
            },
        }
        if self.trace:
            metrics = self.run_traced(inputs)
        else:
            times = self.measure(inputs)
            self.record["samples"] = times
            metrics = {
                "setup_s": setup_s,
                "extract_ms_per_audio_s": statistics.median(times["extract"]),
                "train_s_per_epoch": statistics.median(times["train"]) / EPOCHS[self.workload],
                "eval_s": statistics.median(times["eval"]),
                "eer_pct": 100.0,  # replaced by the eval report's EER when eval succeeded
            }
        commands = self._commands(inputs)
        products = [product for jobs in commands.values() for _, product in jobs]
        if all(product.exists() for product in products):
            self.record["checks"] = self.check_eval(inputs, commands)
            if not self.trace:
                metrics["eer_pct"] = self.record["checks"]["eer_pct"]
        digests = {"inputs": self.record["setup"]["inputs_sha256"]}
        digests.update({p.name: _sha256(p) for p in products if p.exists()})
        self.check_history(digests)
        if not self.trace:
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.record.update(sha256=digests, failures=self.failures, attempted=self.attempted)
        self.record["failed_ratio"] = len(self.failures) / self.attempted
        self.record["metrics"] = metrics
        self.write_record()
        self.print_summary(metrics)
        shutil.rmtree(self.work, ignore_errors=True)
        units = END_TO_END_UNITS if not self.trace else self.record["per_layer_units"]
        return json.dumps({
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        })

    def _round(self, commands, inputs, hashes) -> dict[str, float]:
        """One repetition of each command (extract over every chunk); wall seconds."""
        return {
            name: sum(self._run_command(*job, inputs, hashes)[0] for job in commands[name]) for name in COMMANDS
        }

    def run_traced(self, inputs) -> dict:
        """An untraced round as the reference, then one traced round."""
        commands = self._commands(inputs)
        hashes: dict[str, str] = {}
        reference = self._round(commands, inputs, hashes)
        tracer = Tracer()
        tracer.install()
        try:
            traced = self._round(commands, inputs, hashes)
        finally:
            tracer.uninstall()
        self.record["round_s"] = {"untraced": reference, "traced": traced}
        tracer.dump(self.base / "traces" / f"{self.workload}-seed{self.seed}-{time.time_ns()}.jsonl")
        return self.per_layer(inputs, commands, tracer, reference, traced)

    def per_layer(self, inputs, commands, tracer: Tracer, reference: dict, traced: dict) -> dict:
        per_round = tracer.totals()
        c = tracer.counts
        skipped = Counter()
        for _, table in commands["extract"]:
            skip_path = Path(str(table) + ".skipped.jsonl")
            if skip_path.exists():
                for line in skip_path.read_text().splitlines():
                    skipped[json.loads(line)["reason"].split(":", 1)[0]] += 1

        def ms(name):
            return per_round[name]["ms"]

        metrics = {
            "audio.load_audio.ms": ms("audio.load_audio"),
            "audio.resample.ms": ms("audio.resample"),
            "audio.resample.calls": c["audio.resample.calls"],
            "pitch.pitch_track.ms": ms("pitch.pitch_track"),
            "pitch.frames": c["pitch.frames"],
            "pitch.voiced_ratio": c["pitch.voiced"] / max(c["pitch.frames"], 1),
            "formants.formant_track.ms": ms("formants.formant_track"),
            "formants.burg.ms": ms("formants.burg"),
            "formants.burg.calls": per_round["formants.burg"]["calls"],
            "formants.roots_to_formants.ms": ms("formants.roots_to_formants"),
            "formants.empty_ratio": c["formants.empty"] / max(c["formants.frames"], 1),
            "harmonics.magnitude_spectrum.ms": ms("harmonics.magnitude_spectrum"),
            "harmonics.tilt_measures.ms": ms("harmonics.tilt_measures"),
            "harmonics.rms_energy.ms": ms("harmonics.rms_energy"),
            "noise_metrics.cpp_from_spectrum.ms": ms("noise_metrics.cpp_from_spectrum"),
            "noise_metrics.shr.ms": ms("noise_metrics.shr"),
            "noise_metrics.shr.missing_ratio": c["noise_metrics.shr.missing"] / max(c["noise_metrics.shr.calls"], 1),
            "features.extract_track.self_ms": per_round["features.extract_track"]["self_ms"],
            "features.aggregate.ms": ms("features.aggregate"),
            "features.skipped": sum(skipped.values()),
            **{f"features.skipped.{r.lower()}": skipped[r] for r in SKIP_REASONS},
            "features.write_features.ms": ms("features.write_features"),
            "features.read_features.ms": ms("features.read_features"),
            "manifest.read_manifest.ms": ms("manifest.read_manifest"),
            "diffnet.forward.train_ms": ms("diffnet.forward.train"),
            "diffnet.forward.infer_ms": ms("diffnet.forward.infer"),
            "diffnet.forward.calls": per_round["diffnet.forward.train"]["calls"] + per_round["diffnet.forward.infer"]["calls"],
            "diffnet.backward.ms": ms("diffnet.backward"),
            "diffnet.train.self_ms": per_round["diffnet.train"]["self_ms"],
            "diffnet.save_checkpoint.ms": ms("diffnet.save_checkpoint"),
            "diffnet.score_pairs.ms": ms("diffnet.score_pairs"),
            "diffnet.load_checkpoint.ms": ms("diffnet.load_checkpoint"),
            "evaluation.accuracy.ms": ms("evaluation.accuracy"),
            "evaluation.eer.ms": ms("evaluation.eer"),
            "evaluation.far_frr_curve.ms": ms("evaluation.far_frr_curve"),
            "evaluation.far_frr_curve.calls": per_round["evaluation.far_frr_curve"]["calls"],
            **{f"cli.{name}.self_ms": per_round[f"cli.{name}"]["self_ms"] for name in COMMANDS},
        }
        untraced = sum(reference.values())
        metrics["trace.overhead_pct"] = (sum(traced.values()) - untraced) / untraced * 100.0
        self.record["per_layer_units"] = {
            k: "ms" if k.endswith("ms") else "%" if k.endswith("_pct") else "1" if k.endswith("_ratio") else "count"
            for k in metrics
        }
        self.record["layers_per_round"] = per_round
        self.record["extraction_cost"] = self.cost_table(inputs, per_round, traced)
        return metrics

    def cost_table(self, inputs, per_round, traced) -> dict:
        """Measured ms per second of audio next to the analytical cost_report keys."""
        report = evaluation.cost_report("acoustic")
        breakdown = report.extraction_breakdown
        seconds = sum(inputs.chunk_seconds)
        table = {}
        for layer, keys in COST_KEYS.items():
            flops = sum(breakdown[k] for k in keys)
            ms = per_round[layer]["ms"]
            table[layer] = {
                "measured_ms_per_audio_s": ms / seconds,
                "computed_keys": list(keys),
                "computed_mflop_per_audio_s": flops / 1e6,
            }
        split = {
            "pitch": per_round["pitch.pitch_track"]["ms"] / seconds,
            "formants": per_round["formants.formant_track"]["ms"] / seconds,
            "spectrum_measures": sum(per_round[k]["ms"] for k in SPECTRUM_MEASURES) / seconds,
            "extract_track_self": per_round["features.extract_track"]["self_ms"] / seconds,
            "extract_total": traced["extract"] * 1000.0 / seconds,
        }
        forward = per_round["diffnet.forward.infer"]
        classifier = report.classifier_breakdown
        return {
            "layers": table,
            "split_ms_per_audio_s": split,
            "classifier": {
                "computed_flops_per_pair": dict(classifier),
                "note": "fc1, batch_norm and fc2 run inside diffnet.forward; from outside only forward as a whole is measured",
                "forward_infer_ms_per_round": forward["ms"],
            },
        }

    # -- output ------------------------------------------------------------

    def write_record(self) -> None:
        path = self.base / "records" / f"{self.workload}-seed{self.seed}-trace{int(self.trace)}-{time.time_ns()}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.record, indent=1, sort_keys=True, default=float))
        self.record_path = path

    def print_summary(self, metrics: dict) -> None:
        facts = self.record["machine"]
        print(f"machine: {facts['nproc']} cpus ({facts['cpu_model']}), python {facts['python']}, "
              f"numpy {facts['numpy']}, scipy {facts['scipy']}, blas threads {facts['blas_threads']}")
        print(f"inputs: {json.dumps(self.record['inputs'], sort_keys=True)}")
        for name, digest in self.record["sha256"].items():
            print(f"sha256 {name}: {digest}")
        if "checks" in self.record:
            print(f"checks: {json.dumps(self.record['checks'], sort_keys=True)}")
        print(f"failed_ratio {self.record['failed_ratio']:.6f} ({len(self.failures)}/{self.attempted})")
        for failure in self.failures[:20]:
            print(f"  FAILED {failure}")
        if self.trace:
            cost = self.record["extraction_cost"]
            print("layer                             measured ms/audio-s   computed (cost_report) Mflop/audio-s")
            for layer, row in cost["layers"].items():
                print(f"  {layer:<32}{row['measured_ms_per_audio_s']:>10.3f}   "
                      f"{'+'.join(row['computed_keys'])} = {row['computed_mflop_per_audio_s']:.2f}")
            print(f"split ms/audio-s: {json.dumps(cost['split_ms_per_audio_s'])}")
            print(f"classifier: {cost['classifier']['note']}")
        for name, value in metrics.items():
            print(f"{name} = {value:.6g}")
        print(f"record: {self.record_path.relative_to(self.root)}")
