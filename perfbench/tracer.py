"""Spans recorded from outside the package, for the traced benchmark run.

`Tracer.install` replaces each layer's public functions at the names where
their callers look them up (module globals and class attributes) with
wrappers that record one span per call: name, start, end and parent. The
untraced run never installs anything. Spans stay in memory; `summary`
folds them into per-name counts, total time and self time (a span's
duration minus the time its child spans cover), plus the few counts that
need a call's arguments or result, which the wrappers record after taking
the end time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

QUERY = "bench.query"
APPLY = "updates.apply"
WITH_ARROWS = "kripke.with_arrows"
SATISFIES = "checker.satisfies"
CLI_RUN = "cli.run"


def _arrow_count(m) -> int:
    return sum(len(pairs) for pairs in m.arrows.values())


def _on_partition(tracer, args, result):
    tracer.counts["bisim.refine_rounds"] += result.rounds


def _on_arrow_blocks(tracer, args, result):
    tracer.block_counts.append(len(result))


def _on_apply(tracer, args, result):
    tracer.counts["updates.offered"] += _arrow_count(args[0])
    tracer.counts["updates.kept"] += _arrow_count(result)


def _on_canonical(tracer, args, result):
    tracer.counts["cli.canonical_calls"] += 1
    tracer.counts["cli.canonical_passed"] += bool(result)


# (module, attribute or "Class.attribute", span name, observer); a span name
# of None only counts calls through the observer and records no span.
SITES = (
    ("aaul.checker", "satisfies", SATISFIES, None),
    ("aaul.checker", "coarsest_partition", "bisim.partition", _on_partition),
    ("aaul.checker", "arrow_blocks", "bisim.arrow_blocks", _on_arrow_blocks),
    ("aaul.checker", "characteristic_formulas", "bisim.charform", None),
    ("aaul.checker", "apply_update", APPLY, _on_apply),
    ("aaul.checker", "desugar", "syntax.desugar", None),
    ("aaul.cli", "run", CLI_RUN, None),
    ("aaul.cli", "satisfies", SATISFIES, None),
    ("aaul.cli", "load_model", "kripke.load", None),
    ("aaul.cli", "parse_formula", "syntax.parse", None),
    ("aaul.cli", "_canonical", None, _on_canonical),
    ("aaul.kripke", "load_model", "kripke.load", None),
    ("aaul.kripke", "KripkeModel.__init__", "kripke.init", None),
    ("aaul.kripke", "KripkeModel.with_arrows", WITH_ARROWS, None),
    ("aaul.syntax", "parse_formula", "syntax.parse", None),
    ("aaul.syntax", "print_formula", "syntax.print", None),
)


def _tiling_sites():
    module = importlib.import_module("aaul.tiling")
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
            yield ("aaul.tiling", name, f"tiling.{name}", None)


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name) for a site, or None if it is gone."""
    owner = importlib.import_module(module_name)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, last, None)):
        return None
    return owner, last


def all_sites():
    return SITES + tuple(_tiling_sites())


def current(module_name: str, attr: str):
    """What a site holds now, or None if the package has no such name."""
    found = _resolve(module_name, attr)
    return None if found is None else getattr(*found)


def wrapped_sites() -> list[str]:
    """Sites that currently hold a tracer wrapper."""
    return [
        f"{module_name}.{attr}"
        for module_name, attr, _, _ in all_sites()
        if hasattr(current(module_name, attr), "__perfbench_site__")
    ]


class Tracer:
    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.name_of: list[str] = []
        self.reset()
        self._restore: list = []
        self.missing: list[str] = []

    def reset(self):
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.block_counts: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.name_of)
            self.name_of.append(name)
        return self.name_ids[name]

    def wrap(self, fn, name, observer=None):
        tracer = self
        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                observer(tracer, args, result)
                return result

            counted.__perfbench_site__ = True
            return counted

        name_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.span_name.append(name_id)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer.stack.pop()
            if observer is not None:
                observer(tracer, args, result)
            return result

        traced.__perfbench_site__ = True
        return traced

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        # Resolve (and so import) every site before wrapping any: a module
        # imported after a wrap would bind the wrapper under its own name.
        sites = [(site, _resolve(site[0], site[1])) for site in all_sites()]
        self.missing = [f"{module_name}.{attr}" for (module_name, attr, _, _), found in sites if found is None]
        for (_, _, name, observer), found in sites:
            if found is None:
                continue
            owner, last = found
            original = inspect.getattr_static(owner, last)
            self._restore.append((owner, last, original))
            setattr(owner, last, self.wrap(original, name, observer))

    def uninstall(self):
        for owner, last, original in reversed(self._restore):
            setattr(owner, last, original)
        self._restore = []

    def summary(self) -> "Summary":
        """Fold the recorded spans into per-name totals and clear them."""
        n = len(self.start)
        names, parent = self.span_name, self.parent
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        apply_id = self.name_ids.get(APPLY, -1)
        inside_apply = bytearray(n)
        s = Summary()
        for i in range(n):
            name = self.name_of[names[i]]
            p = parent[i]
            if p >= 0 and (inside_apply[p] or names[p] == apply_id):
                inside_apply[i] = 1
            s.count[name] += 1
            s.total[name] += dur[i]
            s.self_time[name] += dur[i] - child[i]
            if name == WITH_ARROWS and not inside_apply[i]:
                s.counts["checker.unions"] += 1
            if name == SATISFIES and p >= 0 and self.name_of[names[p]] == CLI_RUN:
                s.counts["cli.candidates_checked"] += 1
        s.counts.update(self.counts)
        s.block_counts = list(self.block_counts)
        self.reset()
        return s


class Summary:
    """Per-name span count, total and self time, plus observer counts.
    Summaries add, and scale so that several passes read as one."""

    def __init__(self):
        self.count: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.block_counts: list[int] = []

    def scaled(self, factor: float) -> "Summary":
        out = Summary()
        for field in ("count", "total", "self_time", "counts"):
            mine, theirs = getattr(self, field), getattr(out, field)
            for k, v in mine.items():
                theirs[k] = v * factor
        out.block_counts = self.block_counts
        return out

    def __add__(self, other: "Summary") -> "Summary":
        out = Summary()
        for field in ("count", "total", "self_time", "counts"):
            target = getattr(out, field)
            target.update(getattr(self, field))
            target.update(getattr(other, field))
        out.block_counts = self.block_counts + other.block_counts
        return out
