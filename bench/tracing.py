"""Span tracing of oaqec from outside the package.

The tracer replaces chosen public functions and methods of `oaqec` with thin
wrappers that record one span per call (name, start, end, parent span, item
id) plus exact work counts computed from each call's arguments and result.
Nothing under `src/` is edited: a function is swapped in every module
namespace that binds it, so calls made through `from .arrays import ...`
bindings are caught as well.  Spans are kept in memory; per-layer metrics
are derived from them after the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

# Modules whose namespaces are searched for bindings of a wrapped function.
MODULES = ("oaqec", "oaqec.algebra", "oaqec.arrays", "oaqec.schemes",
           "oaqec.constructions", "oaqec.synthesis", "oaqec.verify",
           "oaqec.formats", "oaqec.tables", "oaqec.cli")

# Fixed here, not read from oaqec.tables, so that the metric names do not
# depend on the program under test.
TABLE_IDS = ("I", "II", "III", "IV", "V", "VI", "VII")


@dataclass(frozen=True)
class Target:
    """One traced callable: where it lives and the span name it records."""

    module: str
    attr: str                     # "func" or "Class.method"
    name: str                     # span name, "<layer>.<what>"
    metrics: tuple[str, ...] = ("calls", "s", "self_s")


# Which spans exist and which of calls / s / self_s each one reports.  The
# per-row, per-element helpers (poly_eval, Field.add, _check_subset) are left
# alone on purpose: wrapping them would cost more than the work they do.
TARGETS = (
    Target("oaqec.tables", "reproduce", "tables.reproduce", ("s",)),
    Target("oaqec.tables", "build_row", "tables.build_row"),
    Target("oaqec.synthesis", "theorem_5s2", "synthesis.build.theorem_5s2"),
    Target("oaqec.synthesis", "theorem_52s", "synthesis.build.theorem_52s"),
    Target("oaqec.synthesis", "theorem_s1", "synthesis.build.theorem_s1"),
    Target("oaqec.synthesis", "theorem_tn", "synthesis.build.theorem_tn"),
    Target("oaqec.synthesis", "theorem_huan", "synthesis.build.theorem_huan"),
    Target("oaqec.synthesis", "corollary_5lie",
           "synthesis.build.corollary_5lie"),
    Target("oaqec.synthesis", "OrthogonalPartition.__init__",
           "synthesis.OrthogonalPartition"),
    Target("oaqec.synthesis", "QuantumCode.__init__", "synthesis.QuantumCode"),
    Target("oaqec.constructions", "resolve_symmetric_oa",
           "constructions.resolve_symmetric_oa"),
    Target("oaqec.constructions", "bush", "constructions.bush"),
    Target("oaqec.constructions", "hyperoval_oa", "constructions.hyperoval_oa"),
    Target("oaqec.constructions", "asset_get", "constructions.asset_get"),
    Target("oaqec.constructions", "full_factorial_mixed",
           "constructions.full_factorial_mixed"),
    Target("oaqec.algebra", "field_create", "algebra.field_create", ("s",)),
    Target("oaqec.schemes", "oa_from_scheme", "schemes.oa_from_scheme"),
    Target("oaqec.arrays", "is_orthogonal_array", "arrays.is_orthogonal_array"),
    Target("oaqec.arrays", "distance_profile", "arrays.distance_profile"),
    Target("oaqec.arrays", "ensure_checked", "arrays.ensure_checked"),
    Target("oaqec.arrays", "expansive_replacement",
           "arrays.algebra.expansive_replacement"),
    Target("oaqec.arrays", "multiply_oa", "arrays.algebra.multiply_oa"),
    Target("oaqec.arrays", "delete_columns", "arrays.algebra.delete_columns"),
    Target("oaqec.arrays", "derive_subarray", "arrays.algebra.derive_subarray"),
    Target("oaqec.arrays", "attach_index_column",
           "arrays.algebra.attach_index_column"),
    Target("oaqec.arrays", "MixedLevelArray.sorted_rows",
           "arrays.algebra.sorted_rows"),
    Target("oaqec.arrays", "MixedLevelArray.__init__", "arrays.MixedLevelArray"),
    Target("oaqec.verify", "verify_code", "verify.verify_code"),
    Target("oaqec.verify", "reduced_cross_matrix",
           "verify.reduced_cross_matrix"),
    Target("oaqec.verify", "cross_validate", "verify.cross_validate"),
    Target("oaqec.formats", "code_from_ket_text",
           "formats.ket_text.code_from_ket_text"),
    Target("oaqec.formats", "code_to_ket_text",
           "formats.ket_text.code_to_ket_text"),
    Target("oaqec.formats", "provenance_block", "formats.provenance_block"),
    Target("oaqec.cli", "main", "cli.main", ("self_s",)),
)

# Exact work counts: (metric name, better).  Each is computed from call
# arguments or results, so two runs on the same inputs give equal values.
COUNTS = (
    ("algebra.field_create.misses", "lower"),
    ("arrays.is_orthogonal_array.cells", "lower"),
    ("arrays.distance_profile.pairs", "lower"),
    ("arrays.claims.checked", "higher"),
    ("arrays.claims.carried", "lower"),
    ("constructions.bush.distinct", "lower"),
    ("verify.verify_code.subsets", "lower"),
    ("verify.verify_code.nested", "lower"),
)

UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def _span_names(target: Target) -> tuple[str, ...]:
    if target.name == "tables.reproduce":
        return tuple(f"tables.reproduce.{tid}" for tid in TABLE_IDS)
    return (target.name,)


def metric_specs() -> list[dict]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    specs = []
    for target in TARGETS:
        for span in _span_names(target):
            for kind in target.metrics:
                specs.append({"name": f"{span}.{kind}", "unit": UNITS[kind],
                              "better": "lower"})
    for name, better in COUNTS:
        specs.append({"name": name, "unit": "count", "better": better})
    specs.append({"name": "trace.overhead_s", "unit": "s", "better": "lower"})
    return specs


# --- span recording ------------------------------------------------------------


@dataclass
class Tracer:
    """In-memory span recorder; spans are (name, start, end, parent, item)."""

    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    item: Optional[str] = None
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)
    _bush_keys: set = field(default_factory=set)

    def wrap(self, name_of: Callable[..., str], fn: Callable,
             after: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
        """A replacement for fn that records a span around every call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            ctx = before(*args, **kwargs) if before is not None else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_of(*args, **kwargs), start, end, parent,
                                self.item)
            if after is not None:
                after(ctx, result, *args, **kwargs)
            return result

        return functools.wraps(fn)(traced)

    def replace(self, module: str, attr: str, make: Callable[[Any], Any]) -> None:
        """Swap `module.attr` (a function or Class.method) for make(original),
        in every module namespace that binds the same object."""
        home = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, make(original))
            self._undo.append((cls, meth, original))
            return
        original = getattr(home, attr)
        wrapped = make(original)
        for mod_name in MODULES:
            mod = importlib.import_module(mod_name)
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def install(self) -> "Tracer":
        """Wrap every target, with the count hooks the metrics need."""
        for target in TARGETS:
            self.replace(target.module, target.attr,
                         lambda fn, t=target: self._wrap_target(t, fn))
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- count hooks ------------------------------------------------------------

    def _wrap_target(self, target: Target, fn: Callable) -> Callable:
        name = target.name
        before = after = None
        name_of = lambda *a, **k: name  # noqa: E731
        if name == "tables.reproduce":
            name_of = lambda table_id, *a, **k: (  # noqa: E731
                f"tables.reproduce.{table_id.strip().upper()}")
        elif name == "tables.build_row":
            def before(row, *a, **k):
                self.item = f"{row.table}: {row.label}"
        elif name == "algebra.field_create":
            def before(*a, **k):
                return fn.cache_info().misses

            def after(misses, result, *a, **k):
                self.counts["algebra.field_create.misses"] += \
                    fn.cache_info().misses - misses
        elif name == "constructions.bush":
            def after(_, result, s, t, *a, **k):
                self._bush_keys.add((s, t))
        elif name == "arrays.is_orthogonal_array":
            def after(_, result, A, t, *a, **k):
                self.counts["arrays.is_orthogonal_array.cells"] += \
                    A.r * math.comb(A.n, t)
        elif name == "arrays.distance_profile":
            def after(_, result, A, *a, **k):
                self.counts["arrays.distance_profile.pairs"] += \
                    A.r * (A.r - 1) // 2
        elif name == "arrays.ensure_checked":
            def before(A, *a, **k):
                return _claim_flags(A)

            def after(flags, result, A, *a, **k):
                now = _claim_flags(result)
                self.counts["arrays.claims.checked"] += sum(
                    1 for old, new in zip(flags, now) if old is False and new)
                self.counts["arrays.claims.carried"] += sum(
                    1 for new in now if new is False)
        elif name == "verify.verify_code":
            def after(_, report, *a, **k):
                self.counts["verify.verify_code.subsets"] += \
                    report.subsets_checked
        return self.wrap(name_of, fn, after=after, before=before)

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics derived from the recorded spans and counts."""
        out: dict[str, float] = {}
        totals = span_totals(self.spans)
        for target in TARGETS:
            for span in _span_names(target):
                calls, incl, own = totals.get(span, (0, 0.0, 0.0))
                values = {"calls": calls, "s": incl, "self_s": own}
                for kind in target.metrics:
                    out[f"{span}.{kind}"] = values[kind]
        counts = dict(self.counts)
        counts["constructions.bush.distinct"] = len(self._bush_keys)
        counts["verify.verify_code.nested"] = nested_calls(
            self.spans, "verify.verify_code", "verify.cross_validate")
        for name, _ in COUNTS:
            out[name] = counts.get(name, 0)
        return out


def _claim_flags(A) -> tuple[Optional[bool], Optional[bool]]:
    """(strength, md) claim states: None = no claim, else whether checked."""
    strength = A.strength_checked if A.strength > 0 else None
    md = A.md_checked if A.md is not None else None
    return strength, md


# --- span arithmetic -------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [(end - start) - covered(children.get(i, []), start, end)
            for i, (name, start, end, parent, _) in enumerate(spans)]


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def span_totals(spans) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, inclusive seconds, self seconds).

    Inclusive time counts only the outermost span of a name, so a function
    that re-enters itself is not counted twice."""
    own = self_times(spans)
    calls: Counter = Counter()
    incl: Counter = Counter()
    selfs: Counter = Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        selfs[name] += own[i]
        if not _has_ancestor(spans, i, name):
            incl[name] += end - start
    return {name: (calls[name], incl[name], selfs[name]) for name in calls}


def nested_calls(spans, name: str, ancestor: str) -> int:
    """How many spans called `name` run inside a span called `ancestor`."""
    return sum(1 for i, span in enumerate(spans)
               if span[0] == name and _has_ancestor(spans, i, ancestor))
