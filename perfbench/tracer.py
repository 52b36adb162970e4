"""Spans around timbrekit's public functions, recorded from outside the package.

`Tracer.install` replaces each traced function in every timbrekit module
namespace that holds it (so `features.pitch_track` is wrapped as well as
`pitch.pitch_track`), and the click callbacks of the CLI commands. Spans are
kept in memory as [name, parent, start_ns, end_ns] and written out once, when
the run ends; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function) pairs whose spans become per-layer metrics.
TRACED = (
    ("audio", "load_audio"), ("audio", "resample"),
    ("pitch", "pitch_track"),
    ("formants", "formant_track"), ("formants", "burg"), ("formants", "roots_to_formants"),
    ("harmonics", "magnitude_spectrum"), ("harmonics", "tilt_measures"),
    ("harmonics", "rms_energy"),
    ("noise_metrics", "cpp_from_spectrum"), ("noise_metrics", "shr"),
    ("features", "extract_track"), ("features", "aggregate"),
    ("features", "write_features"), ("features", "read_features"),
    ("manifest", "read_manifest"),
    ("diffnet", "train"), ("diffnet", "forward"), ("diffnet", "backward"),
    ("diffnet", "score_pairs"), ("diffnet", "save_checkpoint"), ("diffnet", "load_checkpoint"),
    ("evaluation", "accuracy"), ("evaluation", "eer"), ("evaluation", "far_frr_curve"),
)
COMMANDS = ("extract", "train", "eval")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        nid = self._name_id(name)
        name_of = None
        if name == "diffnet.forward":
            train_id, infer_id = self._name_id(name + ".train"), self._name_id(name + ".infer")

            def name_of(args, kwargs):
                mode = kwargs.get("mode", args[2] if len(args) > 2 else "infer")
                return train_id if mode == "train" else infer_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name_of(args, kwargs) if name_of else nid, stack[-1] if stack else -1, clock(), 0])
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if observe:
                    observe(args, None, failed=True)
                raise
            finally:
                stack.pop()
                spans[i][3] = clock()
            if observe:
                observe(args, result, failed=False)
            return result

        return traced

    def _observers(self):
        c = self.counts

        def pitch(args, track, failed):
            if not failed:
                c["pitch.frames"] += track.times.size
                c["pitch.voiced"] += track.voiced_count

        def formants(args, frames, failed):
            if not failed:
                c["formants.frames"] += len(frames)
                c["formants.empty"] += sum(1 for f in frames if len(f) == 0)

        def shr(args, value, failed):
            c["noise_metrics.shr.calls"] += 1
            c["noise_metrics.shr.missing"] += failed

        def resample(args, value, failed):
            # Identity calls (rates already equal) do no work and are not counted.
            c["audio.resample.calls"] += args[0].sample_rate != args[1]

        return {
            "pitch.pitch_track": pitch,
            "formants.formant_track": formants,
            "noise_metrics.shr": shr,
            "audio.resample": resample,
        }

    def install(self) -> None:
        package = "timbrekit"
        observers = self._observers()
        wrappers = {}
        for module, attr in TRACED:
            fn = getattr(sys.modules[f"{package}.{module}"], attr)
            name = f"{module}.{attr}"
            wrappers[id(fn)] = (fn, self._wrap(name, fn, observers.get(name)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, value))
        cli = sys.modules[f"{package}.cli"]
        for command in COMMANDS:
            cmd = cli.main.commands[command]
            self._undo.append((cmd, "callback", cmd.callback))
            cmd.callback = self._wrap(f"cli.{command}", cmd.callback)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """{span name: {calls, ms, self_ms}} over every recorded span."""
        child_ns = [0] * len(self.spans)
        for nid, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for i, (nid, parent, start, end) in enumerate(self.spans):
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - child_ns[i]) / 1e6
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"names": self.names, "columns": ["name", "parent", "start_ns", "end_ns"]}, fh)
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
