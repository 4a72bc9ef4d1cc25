"""The benchmark's span tracer still installs on the package.

`bench/tracing.py` wraps package functions by name from outside `src/`.  A
benchmark run without tracing never installs it, so a renamed or deleted
target would go unseen there; this test installs it on every target and
uninstalls it again.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import oaqec

TRACING = Path(oaqec.__file__).resolve().parents[2] / "bench" / "tracing.py"


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are made
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _binding(target):
    """The object a target's module (or class) binds under its name."""
    home = importlib.import_module(target.module)
    if "." in target.attr:
        cls_name, meth = target.attr.split(".")
        return vars(getattr(home, cls_name))[meth]
    return getattr(home, target.attr)


def test_tracer_wraps_every_target_and_uninstall_restores_it(monkeypatch):
    tracing = _tracing(monkeypatch)
    originals = {target: _binding(target) for target in tracing.TARGETS}
    tracer = tracing.Tracer().install()
    try:
        for target, original in originals.items():
            wrapped = _binding(target)
            assert wrapped is not original, target.name
            assert wrapped.__wrapped__ is original, target.name
    finally:
        tracer.uninstall()
    for target, original in originals.items():
        assert _binding(target) is original, target.name
