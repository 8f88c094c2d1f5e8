"""The traced benchmark run wraps nmfkit names given as strings, so a rename shows here."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrapped_name_exists_and_is_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    missing = [
        f"{module.__name__}.{attribute}"
        for module, attribute, _, _ in layers.patches()
        if not callable(getattr(module, attribute, None))
    ]
    assert not missing
