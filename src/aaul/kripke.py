"""Finite pointed Kripke models over named agents and propositions.

Models are immutable. Declared order of states, agents and propositions is
part of the model's identity: two models that differ only in declaration
order compare unequal and serialize to different (but each deterministic)
text. That keeps save/load a strict round trip and makes every iteration
order in the package reproducible.

Text format, one declaration per line, `#` starts a comment:

    states: w v
    agent a: w->v v->v
    val p: v
    point: w

Every declared agent and proposition gets a line on save, even when empty.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .errors import ModelFormatError, UnknownAgentError, UnknownStateError
from .syntax import _NAME

_ARROW_RE = re.compile(rf"({_NAME.pattern})->({_NAME.pattern})\Z")


class _DeclarationError(ValueError):
    """A model or tile set the constructor refuses, and the declaration at
    fault, keyed as a file's line heads it: ("states",), ("agent", a),
    ("val", p) or ("point",); ("colors",) or ("tile", i), the i-th tile. A
    lone tile, which knows no index, and a set of no tiles give ("tile",)."""

    def __init__(self, message: str, declaration: tuple):
        super().__init__(message)
        self.declaration = declaration


def _check_name(kind: str, name, declaration: tuple) -> None:
    """Refuse a name that a formula cannot write, blamed on `declaration`."""
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        raise _DeclarationError(f"bad {kind} name {name!r}: use {_NAME.pattern}", declaration)


def _check_names(kind: str, names, declaration) -> tuple[str, ...]:
    """names as a tuple, each of them well formed and new; the i-th name n,
    if at fault, is blamed on declaration(i, n)."""
    names = tuple(names)
    seen = set()
    for i, n in enumerate(names):
        if not isinstance(n, str) or not _NAME.fullmatch(n) or n in seen:
            _check_name(kind, n, declaration(i, n))  # raises for a bad name
            raise _DeclarationError(f"duplicate {kind} name {n!r}", declaration(i, n))
        seen.add(n)
    return names


@dataclass(frozen=True)
class KripkeModel:
    states: tuple[str, ...]
    agents: tuple[str, ...]
    props: tuple[str, ...]
    arrows: Mapping[str, frozenset[tuple[str, str]]]
    valuation: Mapping[str, frozenset[str]]
    point: str | None = None

    def __post_init__(self):
        states = _check_names("state", self.states, lambda i, s: ("states",))
        agents = _check_names("agent", self.agents, lambda i, a: ("agent", a))
        props = _check_names("proposition", self.props, lambda i, p: ("val", p))
        if not states:
            raise _DeclarationError("a model needs at least one state", ("states",))
        state_set = set(states)

        for a in self.arrows:
            if a not in agents:
                raise _DeclarationError(f"arrows given for undeclared agent {a!r}", ("agent", a))
        arrows = {}
        for a in agents:
            # checked in the order given, so the arrow named is the same under any hash seed
            pairs = list(map(tuple, self.arrows.get(a, ())))
            for s, t in pairs:
                if s not in state_set or t not in state_set:
                    raise _DeclarationError(f"arrow {s}->{t} for agent {a!r} leaves declared states", ("agent", a))
            arrows[a] = frozenset(pairs)

        for p in self.valuation:
            if p not in props:
                raise _DeclarationError(f"valuation given for undeclared proposition {p!r}", ("val", p))
        valuation = {}
        for p in props:
            holds = frozenset(self.valuation.get(p, ()))
            bad = holds - state_set
            if bad:
                raise _DeclarationError(f"valuation of {p!r} mentions unknown state {sorted(bad)[0]!r}", ("val", p))
            valuation[p] = holds

        if self.point is not None and self.point not in state_set:
            raise _DeclarationError(f"point {self.point!r} is not a declared state", ("point",))

        self._seal(states, agents, props, arrows, valuation, self.point, {s: i for i, s in enumerate(states)})

    def _seal(self, states, agents, props, arrows, valuation, point, index, val_key=None):
        # Equal frozensets hash alike in any build order, so equal models get
        # equal fingerprints without a sort. Frozen: set through the dict.
        arrow_key = tuple(map(arrows.__getitem__, agents))
        if val_key is None:
            val_key = tuple(map(valuation.__getitem__, props))
        self.__dict__.update(
            states=states, agents=agents, props=props, arrows=arrows, valuation=valuation, point=point,
            _fingerprint=(states, agents, props, arrow_key, val_key, point), _index=index,
        )

    def _derive(self, arrows: dict, valuation: dict | None = None) -> "KripkeModel":
        """This model with new arrows (and valuation), built unchecked. The
        caller guarantees what the constructor checks: each agent, and each
        proposition, maps to a frozenset over this model's states."""
        m = object.__new__(KripkeModel)
        if valuation is None:
            valuation, val_key = self.valuation, self._fingerprint[4]
        else:
            val_key = None
        m._seal(self.states, self.agents, self.props, arrows, valuation, self.point, self._index, val_key)
        return m

    def __hash__(self):
        return hash(self._fingerprint)

    @property
    def fingerprint(self) -> tuple:
        """Canonical hashable form; equal models have equal fingerprints."""
        return self._fingerprint

    def state_index(self, state: str) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise UnknownStateError(f"unknown state {state!r}") from None

    def arrow_set(self, agent: str) -> frozenset[tuple[str, str]]:
        try:
            return self.arrows[agent]
        except KeyError:
            raise UnknownAgentError(f"unknown agent {agent!r}") from None

    def successors(self, agent: str, state: str) -> tuple[str, ...]:
        """Targets of the agent's arrows out of state, in declared state order."""
        pairs = self.arrow_set(agent)
        self.state_index(state)
        return tuple(sorted((t for s, t in pairs if s == state), key=self._index.get))

    def props_at(self, state: str) -> tuple[str, ...]:
        self.state_index(state)
        return tuple(p for p in self.props if state in self.valuation[p])

    def with_arrows(self, arrows: Mapping[str, frozenset[tuple[str, str]]]) -> "KripkeModel":
        return KripkeModel(self.states, self.agents, self.props, arrows, self.valuation, self.point)

    def with_point(self, point: str | None) -> "KripkeModel":
        return KripkeModel(self.states, self.agents, self.props, self.arrows, self.valuation, point)


def _declarations(text: str) -> tuple[list[tuple[int, str]], int]:
    """The lines of a model or tile file that declare something, each with
    its number from 1 and its `#` comment cut; and the line a whole-file
    error names: the last, or 1 when the file is empty."""
    raw = text.splitlines()
    lines = []
    for lineno, line in enumerate(raw, start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    return lines, max(1, len(raw))


def load_model(text: str) -> KripkeModel:
    """The model a text declares. A malformed line is named as it is read;
    a model the constructor refuses, at the line of the declaration at
    fault; a missing states line, at the last line."""
    states = None
    agents: list[str] = []
    props: list[str] = []
    arrows: dict[str, list[tuple[str, str]]] = {}
    valuation: dict[str, list[str]] = {}
    point = None
    declared: dict[tuple[str, ...], int] = {}  # the line of each declaration, by its head
    lines, last = _declarations(text)

    for lineno, line in lines:
        head, sep, rest = line.partition(":")
        if not sep:
            raise ModelFormatError(f"expected 'keyword:' in {line!r}", lineno)
        keyword = head.split()
        body = rest.split()
        declared[tuple(keyword)] = lineno

        if keyword == ["states"]:
            if states is not None:
                raise ModelFormatError("duplicate states line", lineno)
            states = body
        elif len(keyword) == 2 and keyword[0] == "agent":
            name = keyword[1]
            if name in arrows:
                raise ModelFormatError(f"duplicate agent line for {name!r}", lineno)
            agents.append(name)
            arrows[name] = []
            for tok in body:
                m = _ARROW_RE.match(tok)
                if m is None:
                    raise ModelFormatError(f"expected 'source->target', found {tok!r}", lineno)
                arrows[name].append((m.group(1), m.group(2)))
        elif len(keyword) == 2 and keyword[0] == "val":
            name = keyword[1]
            if name in valuation:
                raise ModelFormatError(f"duplicate val line for {name!r}", lineno)
            props.append(name)
            valuation[name] = body
        elif keyword == ["point"]:
            if point is not None:
                raise ModelFormatError("duplicate point line", lineno)
            if len(body) != 1:
                raise ModelFormatError("point line needs exactly one state", lineno)
            point = body[0]
        else:
            raise ModelFormatError(f"unknown declaration {head.strip()!r}", lineno)

    if states is None:
        raise ModelFormatError("missing states line", last)
    try:
        return KripkeModel(tuple(states), tuple(agents), tuple(props), arrows, valuation, point)
    except _DeclarationError as e:
        raise ModelFormatError(str(e), declared.get(e.declaration, last)) from None


def save_model(m: KripkeModel) -> str:
    """Deterministic text form; load_model(save_model(m)) == m."""
    index = m.state_index
    lines = ["states: " + " ".join(m.states)]
    for a in m.agents:
        pairs = sorted(m.arrows[a], key=lambda st: (index(st[0]), index(st[1])))
        lines.append(f"agent {a}:" + "".join(f" {s}->{t}" for s, t in pairs))
    for p in m.props:
        holds = sorted(m.valuation[p], key=index)
        lines.append(f"val {p}:" + "".join(f" {s}" for s in holds))
    if m.point is not None:
        lines.append(f"point: {m.point}")
    return "\n".join(lines) + "\n"


def export_dot(m: KripkeModel) -> str:
    """Graphviz digraph: one node per state (point doubled), one edge per arrow.
    Every ID is quoted, so a state named `node`, `edge` or `1a` is a node."""
    index = m.state_index
    lines = ["digraph model {"]
    for s in m.states:
        label = s
        props = m.props_at(s)
        if props:
            label += "\\n" + " ".join(props)
        shape = "doublecircle" if s == m.point else "circle"
        lines.append(f'  "{s}" [label="{label}", shape={shape}];')
    for a in m.agents:
        pairs = sorted(m.arrows[a], key=lambda st: (index(st[0]), index(st[1])))
        for s, t in pairs:
            lines.append(f'  "{s}" -> "{t}" [label="{a}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
