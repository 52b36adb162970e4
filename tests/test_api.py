"""The package's public surface stays importable and complete."""

import importlib
from pathlib import Path

import timbrekit


def test_all_exports_resolve():
    for name in timbrekit.__all__:
        assert getattr(timbrekit, name, None) is not None, name


def test_version_string():
    assert timbrekit.__version__.count(".") == 2


def test_benchmark_names_resolve(monkeypatch):
    """perfbench imports and wraps these by name; its smoke run pins their behaviour."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    importlib.import_module("corpora")  # PairRecord, ManifestRecord, write_manifest and more
    tracer = importlib.import_module("tracer")
    for module, name in tracer.TRACED:
        assert callable(getattr(importlib.import_module(f"timbrekit.{module}"), name, None)), f"{module}.{name}"
