"""The benchmark's traced run wraps package functions by name
(`bench/spans.py`, `Recorder.attached`); a renamed one would end that run
in an AttributeError, so every name it wraps must exist here."""

import importlib
from pathlib import Path

import avaddon_rescue.cli as cli_mod
import avaddon_rescue.memscan as memscan_mod

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_name_the_traced_benchmark_wraps_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    names = ["probe", "decrypt_file", "load_dump", "verify_key"]
    before = {name: getattr(cli_mod, name) for name in names}
    with spans.Recorder("names").attached(cli_mod, memscan_mod):
        assert all(getattr(cli_mod, name) is not before[name] for name in names)
    assert {name: getattr(cli_mod, name) for name in names} == before
