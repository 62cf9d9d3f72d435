"""Formula syntax: AST, parser, printer, and formula walks.

The concrete grammar, in decreasing binding strength (`_OPERATORS` and
`_MODALITIES` state it for the tokenizer, the parser and the printer):

    prefix :  ~f   [a]f   <a>f   [{(f,a,f),...}]f   <{...}>f   [*]f   <*>f
    &      (right associative)
    |      (right associative)
    ->     (right associative)
    <->    (right associative)

Atoms and agents are names (`_NAME`: letters, digits and underscores);
`true` and `false` are reserved. Models and tile sets name everything by
the same rule, so that a formula can write each of their names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

from .errors import AaulError, ParseError


class Formula:
    """Base class; all nodes are frozen dataclasses and hash/compare structurally.

    ==, hash and repr walk the tree with an explicit stack, update clauses
    included, so trees of any depth compare, hash and print as repr.
    """

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, Formula):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            f, g = stack.pop()
            if f is g:
                continue
            (f_data, f_kids), (g_data, g_kids) = _parts(f), _parts(g)
            if f_data != g_data:
                return False
            stack += zip(f_kids, g_kids)  # equal data: same kind, same number of children
        return True

    def __hash__(self):
        done: list[int] = []  # the hashes of finished nodes, in walk order
        stack = [(self, False)]
        while stack:
            f, kids_done = stack.pop()
            data, kids = _parts(f)
            if kids_done:
                start = len(done) - len(kids)
                done[start:] = [hash((data, *done[start:]))]
            else:
                stack.append((f, True))
                stack += ((g, False) for g in reversed(kids))
        return done[0]

    def __repr__(self):
        """The dataclass repr: Not(body=Atom(name='p')), and so on."""
        out: list[str] = []
        stack: list = [self]  # text still to write, or values still to spell out
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            if isinstance(item, tuple):  # an update's clauses
                pieces = ["("]
                for i, c in enumerate(item):
                    pieces += [", " if i else "", c]
                pieces.append(",)" if len(item) == 1 else ")")
            else:  # a formula node, an update or a clause
                pieces = [f"{type(item).__qualname__}("]
                for i, fld in enumerate(fields(item)):
                    value = getattr(item, fld.name)
                    if isinstance(value, str):  # a name or an agent
                        value = repr(value)
                    pieces += [f"{', ' if i else ''}{fld.name}=", value]
                pieces.append(")")
            stack += reversed(pieces)
        return "".join(out)


_formula = dataclass(frozen=True, eq=False, repr=False)  # ==, hash and repr come from Formula


@_formula
class Atom(Formula):
    name: str


@_formula
class Top(Formula):
    pass


@_formula
class Bot(Formula):
    pass


@_formula
class Not(Formula):
    body: Formula


@_formula
class And(Formula):
    left: Formula
    right: Formula


@_formula
class Or(Formula):
    left: Formula
    right: Formula


@_formula
class Implies(Formula):
    left: Formula
    right: Formula


@_formula
class Iff(Formula):
    left: Formula
    right: Formula


@_formula
class Box(Formula):
    agent: str
    body: Formula


@_formula
class Diamond(Formula):
    agent: str
    body: Formula


@dataclass(frozen=True)
class Clause:
    """One arrow clause (source condition, agent, target condition)."""

    pre: Formula
    agent: str
    post: Formula


@dataclass(frozen=True)
class Update:
    """A nonempty list of clauses. An arrow survives if some clause admits it."""

    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if not self.clauses:
            raise ValueError("an update needs at least one clause")


@_formula
class UpdateBox(Formula):
    update: Update
    body: Formula


@_formula
class UpdateDiamond(Formula):
    update: Update
    body: Formula


@_formula
class ArbBox(Formula):
    """Body holds after every update built from quantifier-free clauses."""

    body: Formula


@_formula
class ArbDiamond(Formula):
    """Body holds after some update built from quantifier-free clauses."""

    body: Formula


TOP = Top()
BOT = Bot()


def _parts(f: Formula) -> tuple[tuple, tuple[Formula, ...]]:
    """(f's own data, f's child formulas in reading order), the one
    statement of each node kind's shape: equal data means the same node
    kind with the same number of children."""
    kind = type(f)
    if kind is Atom:
        return (kind, f.name), ()
    if kind is Box or kind is Diamond:
        return (kind, f.agent), (f.body,)
    if kind is UpdateBox or kind is UpdateDiamond:
        clauses = f.update.clauses
        kids = tuple(g for c in clauses for g in (c.pre, c.post))
        return (kind, *(c.agent for c in clauses)), (*kids, f.body)
    if kind is Not or kind is ArbBox or kind is ArbDiamond:
        return (kind,), (f.body,)
    if kind is Top or kind is Bot:
        return (kind,), ()
    if kind is And or kind is Or or kind is Implies or kind is Iff:
        return (kind,), (f.left, f.right)
    raise TypeError(f"not a formula: {f!r}")


def _fold_right(node, parts, empty: Formula | None = None) -> Formula:
    """parts[0] node (parts[1] node (... parts[-1])); empty for no parts."""
    parts = list(parts)
    if not parts:
        return empty
    out = parts.pop()
    while parts:
        out = node(parts.pop(), out)
    return out


def conj(parts) -> Formula:
    """Right-fold a sequence into a conjunction; empty sequence gives true."""
    return _fold_right(And, parts, TOP)


def disj(parts) -> Formula:
    """Right-fold a sequence into a disjunction; empty sequence gives false."""
    return _fold_right(Or, parts, BOT)


def flatten_conj(f: Formula, kind: type = And) -> tuple[Formula, ...]:
    """Peel right-nested `kind` nodes, And unless given (Or, say); inverse
    of conj (of disj for Or) on its output."""
    out = []
    while isinstance(f, kind):
        out.append(f.left)
        f = f.right
    out.append(f)
    return tuple(out)


# ------------------------------------------------------------------ grammar

_PREFIX = 5  # the precedence of a prefix operator: tighter than any binary one

# (symbol, precedence, node); the binary operators fold to the right
_OPERATORS = (
    ("<->", 1, Iff), ("->", 2, Implies), ("|", 3, Or), ("&", 4, And),
    ("~", _PREFIX, Not), ("[*]", _PREFIX, ArbBox), ("<*>", _PREFIX, ArbDiamond),
)
# the prefix operators with a label, by opening bracket: the closing bracket,
# the node with an agent label and the node with an update label
_MODALITIES = {"[": ("]", Box, UpdateBox), "<": (">", Diamond, UpdateDiamond)}
_CONSTANTS = {"true": TOP, "false": BOT}

_BINARY = {symbol: (prec, node) for symbol, prec, node in _OPERATORS if prec < _PREFIX}
_PREFIXES = {symbol: node for symbol, prec, node in _OPERATORS if prec == _PREFIX}
_SYMBOLS = {symbol for symbol, _, _ in _OPERATORS} | set("[]<>(){},")
_NAME = re.compile(r"[A-Za-z0-9_]+")
# one token per match: a symbol, a name, or a stray character
_TOKEN = re.compile(
    r"\s*(%s|%s|\S)" % ("|".join(map(re.escape, sorted(_SYMBOLS, key=len, reverse=True))), _NAME.pattern)
)


def _offset(text: str, i: int) -> int:
    """Where text's i-th token starts; the end of text past the last one."""
    starts = [m.start(1) for m in _TOKEN.finditer(text)]
    return starts[i] if i < len(starts) else len(text)


class _Parser:
    """Recursive descent on prefix operators and parentheses, one loop per
    precedence level on binary operators. Each token is its own kind: a
    symbol, or a name when it is no symbol; "" is the end of the input."""

    def __init__(self, text: str):
        tokens = _TOKEN.findall(text)
        stray = {t for t in set(tokens) - _SYMBOLS if not _NAME.match(t)}
        if stray:
            i = next(i for i, t in enumerate(tokens) if t in stray)
            raise ParseError(f"unexpected character {tokens[i]!r}", _offset(text, i))
        self.text, self.size = text, len(tokens) + 1
        self.rest = ["", *reversed(tokens)]  # the tokens still to read, the next last

    def error(self, message: str, ahead: int = 0) -> ParseError:
        """A ParseError at the token last read, or `ahead` tokens past it."""
        i = min(self.size - len(self.rest) - 1 + ahead, self.size - 1)
        return ParseError(message, _offset(self.text, i))

    def expect(self, symbol: str):
        found = self.rest.pop()
        if found != symbol:
            raise self.error(f"expected {symbol!r}, found {found or 'end of input'!r}")

    def name(self) -> str:
        found = self.rest.pop()
        if not found or found in _SYMBOLS:
            raise self.error(f"expected an agent name, found {found or 'end of input'!r}")
        return found

    def formula(self, tightest: int = 1) -> Formula:
        """Binary operators of precedence `tightest` and up. A flat run of
        one operator is read in a loop and folded to the right, so it takes
        no nesting; the next operator then binds looser."""
        out = self.unary()
        while (op := _BINARY.get(self.rest[-1])) and op[0] >= tightest:
            symbol, (prec, node) = self.rest[-1], op
            parts = [out]
            while self.rest[-1] == symbol:
                self.rest.pop()
                parts.append(self.formula(prec + 1))
            out = _fold_right(node, parts)
        return out

    def unary(self) -> Formula:
        found = self.rest.pop()
        if found in _PREFIXES:
            return _PREFIXES[found](self.unary())
        if found in _MODALITIES:
            close, agent_node, update_node = _MODALITIES[found]
            if self.rest[-1] == "{":
                label, node = self.update(), update_node
            else:
                label, node = self.name(), agent_node
            self.expect(close)
            return node(label, self.unary())
        if found == "(":
            out = self.formula()
            self.expect(")")
            return out
        if found and found not in _SYMBOLS:
            return _CONSTANTS.get(found) or Atom(found)
        raise self.error(f"expected a formula, found {found or 'end of input'!r}")

    def update(self) -> Update:
        self.expect("{")
        clauses = [self.clause()]
        while self.rest[-1] == ",":
            self.rest.pop()
            clauses.append(self.clause())
        self.expect("}")
        return Update(tuple(clauses))

    def clause(self) -> Clause:
        self.expect("(")
        pre = self.formula()
        self.expect(",")
        agent = self.name()
        self.expect(",")
        post = self.formula()
        self.expect(")")
        return Clause(pre, agent, post)


def _parse(text: str, rule, what: str):
    p = _Parser(text)
    try:
        out = rule(p)
    except RecursionError:
        # caught here, at the public entry, so each node costs no more to parse
        raise p.error(f"{what} nested too deeply", 1) from None
    if p.rest[-1]:
        raise p.error(f"trailing input after {what}: {p.rest[-1]!r}", 1)
    return out


def parse_formula(text: str) -> Formula:
    return _parse(text, _Parser.formula, "formula")


def parse_update(text: str) -> Update:
    """Parse a bare update literal, e.g. "{(p,a,true),(true,b,~q)}"."""
    return _parse(text, _Parser.update, "update")


# ------------------------------------------------------------------ printer

_SYMBOL_OF = {node: (symbol, prec) for symbol, prec, node in _OPERATORS}
_BRACKETS_OF = {node: (open_, close) for open_, (close, *nodes) in _MODALITIES.items() for node in nodes}
_CONSTANT_OF = {type(f): text for text, f in _CONSTANTS.items()}


def print_formula(f: Formula) -> str:
    """Canonical text: minimal parentheses, single spaces around binary operators.

    parse_formula(print_formula(f)) == f for every formula.
    """
    try:
        return _print(f, 0)
    except RecursionError:
        raise AaulError("formula nested too deeply to print") from None


def _print(f: Formula, ctx: int) -> str:
    kind = type(f)
    if kind is Atom:
        return f.name
    if kind in _SYMBOL_OF:
        symbol, prec = _SYMBOL_OF[kind]
        if prec == _PREFIX:
            return symbol + _print(f.body, _PREFIX)
        # the same operator's right spine is one flat chain, each operand but
        # the last needing strictly tighter binding
        *init, last = flatten_conj(f, kind)
        text = f" {symbol} ".join([*(_print(g, prec + 1) for g in init), _print(last, prec)])
        return f"({text})" if prec < ctx else text
    if kind in _BRACKETS_OF:
        open_, close = _BRACKETS_OF[kind]
        label = f.agent if kind is Box or kind is Diamond else print_update(f.update)
        return open_ + label + close + _print(f.body, _PREFIX)
    if kind in _CONSTANT_OF:
        return _CONSTANT_OF[kind]
    raise TypeError(f"not a formula: {f!r}")


def print_update(u: Update) -> str:
    inner = ",".join(
        f"({print_formula(c.pre)},{c.agent},{print_formula(c.post)})" for c in u.clauses
    )
    return "{" + inner + "}"


# ----------------------------------------------------------------- analysis

def subformulas(f: Formula):
    """Every node of f, f first, update clause formulas included.

    Walked with an explicit stack, so no nesting depth overflows it.
    """
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack += _parts(g)[1][::-1]


def signature(f: Formula) -> tuple[frozenset[str], frozenset[str]]:
    """The (atoms, agents) mentioned anywhere in the formula, clauses included."""
    atoms: set[str] = set()
    agents: set[str] = set()
    for g in subformulas(f):
        if isinstance(g, Atom):
            atoms.add(g.name)
        elif isinstance(g, (Box, Diamond)):
            agents.add(g.agent)
        elif isinstance(g, (UpdateBox, UpdateDiamond)):
            agents.update(c.agent for c in g.update.clauses)
    return frozenset(atoms), frozenset(agents)


def is_quantifier_free(f: Formula) -> bool:
    """True when no [*]/<*> occurs anywhere, update clauses included.

    The arbitrary-update modalities quantify over exactly the updates whose
    clause formulas satisfy this predicate.
    """
    return not any(isinstance(g, (ArbBox, ArbDiamond)) for g in subformulas(f))


def local_depth(f: Formula) -> int | None:
    """How far from a state the formula f looks, or None when f has a
    [*]/<*>. f has the same truth at any two states, of one model or of
    two, that are d-bisimilar over the agents and atoms f mentions, d =
    local_depth(f) (proved in `search._sat_search_n`). So along those
    agents' arrows, f's truth at a state s depends only on the arrows out
    of the states within distance < d of s, and on f's atoms at the states
    within distance <= d.

    Atoms, true and false look at s alone (0); [a]g and <a>g one step
    further than g; the connectives as far as their farthest part. [U]g and
    <U>g look as far as g plus U's farthest clause formula: the updated
    model keeps a subset of the arrows, and its arrows out of a state u are
    fixed by u's arrows, U's pre at u and U's post at u's successors, all
    judged in the original model. When g looks at s alone they look at s
    alone, since an update keeps the valuation. Walked bottom-up over
    `subformulas`, so any depth is fine.
    """
    if not is_quantifier_free(f):
        return None
    depth: dict[int, int] = {}
    for g in reversed(tuple(subformulas(f))):  # each node after its parts
        parts = [depth[id(h)] for h in _parts(g)[1]]
        if isinstance(g, (UpdateBox, UpdateDiamond)):  # clause formulas, then the body
            depth[id(g)] = parts[-1] and parts[-1] + max(parts[:-1])
        else:
            depth[id(g)] = max(parts, default=0) + isinstance(g, (Box, Diamond))
    return depth[id(f)]
