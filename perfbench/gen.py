"""Seeded input generators for the benchmark workloads.

Formulas are built here as plain tuples, independent of the package's own
AST, and handed to the program only as text. The same tuples feed the
benchmark's reference evaluator (reference.py), so a change to the
package's syntax layer can change neither a workload nor its reference.

Tuple forms:
    ("atom", name)  ("top",)  ("bot",)  ("not", f)
    ("and", f, g)   ("or", f, g)   ("imp", f, g)
    ("box", agent, f)   ("dia", agent, f)
    ("ubox", clauses, f)   ("udia", clauses, f)   clauses: ((pre, agent, post), ...)
    ("arbbox", f)   ("arbdia", f)
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

_BINARY = {"and": "&", "or": "|", "imp": "->"}


def to_text(f) -> str:
    """Concrete syntax, fully parenthesised around binary connectives."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "top":
        return "true"
    if kind == "bot":
        return "false"
    if kind == "not":
        return "~" + to_text(f[1])
    if kind in _BINARY:
        return f"({to_text(f[1])} {_BINARY[kind]} {to_text(f[2])})"
    if kind == "box":
        return f"[{f[1]}]{to_text(f[2])}"
    if kind == "dia":
        return f"<{f[1]}>{to_text(f[2])}"
    if kind in ("ubox", "udia"):
        clauses = ",".join(f"({to_text(pre)},{a},{to_text(post)})" for pre, a, post in f[1])
        left, right = ("[", "]") if kind == "ubox" else ("<", ">")
        return f"{left}{{{clauses}}}{right}{to_text(f[2])}"
    if kind == "arbbox":
        return "[*]" + to_text(f[1])
    if kind == "arbdia":
        return "<*>" + to_text(f[1])
    raise ValueError(f"unknown formula tuple {f!r}")


@dataclass(frozen=True)
class ModelSpec:
    """A finite pointed model; the point is the first state."""

    states: tuple[str, ...]
    agents: tuple[str, ...]
    props: tuple[str, ...]
    arrows: dict  # agent -> frozenset of (source, target)
    valuation: dict  # prop -> frozenset of states

    @property
    def point(self) -> str:
        return self.states[0]

    def text(self) -> str:
        lines = ["states: " + " ".join(self.states)]
        order = {s: i for i, s in enumerate(self.states)}
        for a in self.agents:
            pairs = sorted(self.arrows[a], key=lambda st: (order[st[0]], order[st[1]]))
            lines.append(f"agent {a}:" + "".join(f" {s}->{t}" for s, t in pairs))
        for p in self.props:
            holds = sorted(self.valuation[p], key=order.get)
            lines.append(f"val {p}:" + "".join(f" {s}" for s in holds))
        lines.append(f"point: {self.point}")
        return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ random

RANDOM_AGENTS = ("a", "b")
RANDOM_PROPS = ("p", "q")


def random_model(rng: random.Random, max_states: int = 4, density: float = 0.28) -> ModelSpec:
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    arrows = {
        a: frozenset((s, t) for s in states for t in states if rng.random() < density)
        for a in RANDOM_AGENTS
    }
    valuation = {p: frozenset(s for s in states if rng.random() < 0.5) for p in RANDOM_PROPS}
    return ModelSpec(states, RANDOM_AGENTS, RANDOM_PROPS, arrows, valuation)


def _leaf(rng: random.Random):
    r = rng.random()
    if r < 0.35:
        return ("atom", rng.choice(RANDOM_PROPS))
    if r < 0.55:
        return ("not", ("atom", rng.choice(RANDOM_PROPS)))
    if r < 0.8:
        return ("top",)
    return ("bot",)


def _shallow(rng: random.Random):
    """Quantifier free, modal depth at most 1."""
    r = rng.random()
    a = rng.choice(RANDOM_AGENTS)
    if r < 0.4:
        return _leaf(rng)
    if r < 0.55:
        return ("box", a, _leaf(rng))
    if r < 0.7:
        return ("dia", a, _leaf(rng))
    if r < 0.85:
        return ("and", _leaf(rng), ("dia", a, _leaf(rng)))
    return ("or", ("box", a, _leaf(rng)), _leaf(rng))


def _clauses(rng: random.Random):
    return tuple(
        (_shallow(rng), rng.choice(RANDOM_AGENTS), _shallow(rng))
        for _ in range(rng.randint(1, 2))
    )


def random_formula(rng: random.Random):
    """One [*]/<*> (possibly under one modality or a concrete update), or
    one concrete update modality and no quantifier."""
    a = rng.choice(RANDOM_AGENTS)
    if rng.random() < 0.2:
        kind = "ubox" if rng.random() < 0.5 else "udia"
        return (kind, _clauses(rng), _shallow(rng))
    core = ("arbbox" if rng.random() < 0.5 else "arbdia", _shallow(rng))
    r = rng.random()
    if r < 0.2:
        return core
    if r < 0.35:
        return ("not", core)
    if r < 0.5:
        return ("box", a, core)
    if r < 0.6:
        return ("dia", a, core)
    if r < 0.75:
        return ("and", core, _leaf(rng))
    if r < 0.9:
        return ("imp", _leaf(rng), core)
    return ("ubox", ((_leaf(rng), a, _leaf(rng)),), core)


def random_stream(seed: int):
    """Endless (model, formula) pairs from one seeded stream."""
    rng = random.Random(seed)
    while True:
        yield random_model(rng), random_formula(rng)


def has_quantifier(f) -> bool:
    if f[0] in ("arbbox", "arbdia"):
        return True
    if f[0] in ("ubox", "udia"):
        return any(has_quantifier(g) for pre, _, post in f[1] for g in (pre, post)) or has_quantifier(f[2])
    return any(isinstance(g, tuple) and has_quantifier(g) for g in f[1:])


# ------------------------------------------------------------------- names

_RESERVED = {"true", "false"}


def fresh_names(rng: random.Random, count: int) -> list[str]:
    """`count` distinct identifiers, in sorted order."""
    names: set[str] = set()
    while len(names) < count:
        first = rng.choice(string.ascii_lowercase)
        rest = "".join(rng.choice(string.ascii_lowercase + string.digits) for _ in range(rng.randint(0, 5)))
        if first + rest not in _RESERVED:
            names.add(first + rest)
    return sorted(names)


def rename(f, mapping: dict):
    """Rename atoms and agents of a formula tuple."""
    kind = f[0]
    if kind == "atom":
        return ("atom", mapping.get(f[1], f[1]))
    if kind in ("top", "bot"):
        return f
    if kind in ("box", "dia"):
        return (kind, mapping.get(f[1], f[1]), rename(f[2], mapping))
    if kind in ("ubox", "udia"):
        clauses = tuple(
            (rename(pre, mapping), mapping.get(a, a), rename(post, mapping)) for pre, a, post in f[1]
        )
        return (kind, clauses, rename(f[2], mapping))
    return (kind, *(rename(g, mapping) for g in f[1:]))


# -------------------------------------------------------------- sat-search

def _atom(name):
    return ("atom", name)


_P, _Q, _NQ, _TOP = _atom("p"), _atom("q"), ("not", _atom("q")), ("top",)


def _conj(*parts):
    out = parts[-1]
    for f in reversed(parts[:-1]):
        out = ("and", f, out)
    return out


# Over agent a and atoms p, q. At three states the search space is 32,768
# candidate models for every template; the refuted ones visit all of it.
SAT_TEMPLATES = {
    # refuted: the empty update removes every arrow
    "refute_arb": _conj(("dia", "a", _P), ("box", "a", _Q), ("arbbox", ("dia", "a", _TOP))),
    # refuted: the kept arrow would lead to a q-successor
    "refute_update": _conj(("udia", ((_P, "a", _Q),), ("dia", "a", _Q)), ("box", "a", _NQ)),
    # three distinct successors are needed, so only three states suffice
    "found3_arb": _conj(
        ("dia", "a", _conj(_P, _Q)),
        ("dia", "a", _conj(_P, _NQ)),
        ("dia", "a", _conj(("not", _P), _Q)),
        ("box", "a", ("arbdia", ("box", "a", ("bot",)))),
    ),
    "found3_plain": _conj(
        ("dia", "a", _conj(_P, _Q)),
        ("dia", "a", _conj(_P, _NQ)),
        ("dia", "a", _conj(("not", _P), _Q)),
    ),
    "found2_arb": _conj(
        ("dia", "a", _conj(_P, ("dia", "a", _Q))),
        ("box", "a", _NQ),
        ("arbdia", ("box", "a", ("box", "a", ("bot",)))),
    ),
}
