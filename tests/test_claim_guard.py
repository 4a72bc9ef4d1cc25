"""Source rules that keep every claim honest.

Only `oaqec.arrays` may store the private claim fields of MixedLevelArray,
and the modules that build and certify arrays may not guard a claim with
`assert`, which `python -O` strips.
"""

from __future__ import annotations

import ast
from pathlib import Path

import oaqec

SRC = Path(oaqec.__file__).resolve().parent
CLAIM_FIELDS = {"_strength", "_strength_checked", "_md", "_md_checked"}
NO_ASSERT = ("arrays.py", "constructions.py", "schemes.py", "synthesis.py",
             "verify.py")


def _claim_stores(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and node.attr in CLAIM_FIELDS):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "setattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value in CLAIM_FIELDS):
            lines.append(node.lineno)
    return lines


def test_only_arrays_module_stores_claim_fields():
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "arrays.py":
            continue
        lines = _claim_stores(ast.parse(path.read_text(), str(path)))
        if lines:
            offenders[path.name] = lines
    assert offenders == {}
    # the rule has teeth: arrays.py itself does store the fields
    assert _claim_stores(ast.parse((SRC / "arrays.py").read_text()))


def test_claim_modules_have_no_assert_statements():
    offenders = {}
    for name in NO_ASSERT:
        tree = ast.parse((SRC / name).read_text(), name)
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        if lines:
            offenders[name] = lines
    assert offenders == {}
