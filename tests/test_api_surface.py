"""The settable surface of the package may not grow unnoticed.

`tools/api_surface.py` counts the defaulted parameters of public functions
and of the methods of public classes, and the names the package exports.  A
change that adds one must raise MAX_KEYWORD_PARAMETERS or MAX_EXPORTED_NAMES
here and give its reason in CHANGES.md.  It also lists the public functions
and classes that only tests read; code that only tests read belongs in
`tests/conftest.py`, so that list must stay empty.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import oaqec

SRC = Path(oaqec.__file__).resolve().parent
MAX_KEYWORD_PARAMETERS = 29
MAX_EXPORTED_NAMES = 10


def _api_surface():
    path = SRC.parents[1] / "tools" / "api_surface.py"
    spec = importlib.util.spec_from_file_location("api_surface", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_keyword_parameters_do_not_grow():
    count = _api_surface().keyword_parameters
    params = [name for path in sorted(SRC.glob("*.py"))
              for name in count(path.read_text())]
    assert len(params) <= MAX_KEYWORD_PARAMETERS, params


def test_the_surface_count_sees_a_new_knob():
    count = _api_surface().keyword_parameters
    assert count("def f(a, b=1, *, c=2, d):\n    pass\n") == ["f.b", "f.c"]
    assert count("def _f(a=1):\n    pass\nclass C:\n    def m(self, x=0):\n"
                 "        pass\n") == ["C.m.x"]


def test_package_exports_do_not_grow():
    count = _api_surface().exported_names
    names = count((SRC / "__init__.py").read_text())
    assert len(names) <= MAX_EXPORTED_NAMES, names
    # the count is what `import oaqec` offers from its modules, and only that
    assert all(hasattr(oaqec, name) for name in names)
    assert count("from .arrays import (a,\n    b as c)\nfrom os import path\n"
                 "import json\n__version__ = '1'\n") == ["a", "c"]


def test_no_public_name_is_read_only_by_tests():
    assert _api_surface().unread_names(SRC) == []


def test_the_surface_count_sees_a_name_only_tests_read(tmp_path):
    # a string constant names `bound`; a docstring, a comment, a longer
    # identifier, a test and a definition's own body do not name `unused`
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        'def used():\n    return unused_by_name()\n\n'
        'def bound():\n    pass\n\n'
        'def unused():\n    """unused, used and bound by name"""\n    return unused()\n\n'
        'class Alone:\n    def alone(self):\n        return Alone\n')
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "run.py").write_text(
        "from pkg.mod import used  # unused\nTARGET = ('pkg.mod', 'bound')\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("from pkg.mod import unused, Alone\n")
    assert _api_surface().unread_names(package) == ["mod.unused", "mod.Alone"]
