"""Formula syntax: AST, parser, printer, and formula walks.

The concrete grammar, in decreasing binding strength:

    unary  :  ~f   [a]f   <a>f   [{(f,a,f),...}]f   <{...}>f   [*]f   <*>f
    &      (right associative)
    |      (right associative)
    ->     (right associative)
    <->    (right associative)

Atoms are identifiers over [A-Za-z0-9_]; `true` and `false` are reserved.
Agent names inside modalities use the same identifier syntax.
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
    """(f's own data, f's child formulas), for == and hash: equal data
    means the same node kind with the same number of children."""
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
    return (kind,), (f.left, f.right)


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


# ---------------------------------------------------------------- tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<IFF><->)
  | (?P<ARBBOX>\[\*\])
  | (?P<ARBDIA><\*>)
  | (?P<IMP>->)
  | (?P<IDENT>[A-Za-z0-9_]+)
  | (?P<LBRACK>\[) | (?P<RBRACK>\])
  | (?P<LANGLE><)  | (?P<RANGLE>>)
  | (?P<LPAREN>\() | (?P<RPAREN>\))
  | (?P<LBRACE>\{) | (?P<RBRACE>\})
  | (?P<COMMA>,) | (?P<AMP>&) | (?P<PIPE>\|) | (?P<TILDE>~)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "WS":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> str:
        k, value, pos = self.next()
        if k != kind:
            raise ParseError(f"expected {what}, found {value or 'end of input'!r}", pos)
        return value

    def done(self, what: str):
        k, value, pos = self.tokens[self.i]
        if k != "EOF":
            raise ParseError(f"trailing input after {what}: {value!r}", pos)

    # precedence ladder, loosest first

    def formula(self) -> Formula:
        return self.chain(self.imp, "IFF", Iff)

    def imp(self) -> Formula:
        return self.chain(self.or_, "IMP", Implies)

    def or_(self) -> Formula:
        return self.chain(self.and_, "PIPE", Or)

    def and_(self) -> Formula:
        return self.chain(self.unary, "AMP", And)

    def chain(self, operand, op: str, node) -> Formula:
        """operand (op operand)*, folded to the right in a loop, so a long
        flat chain takes no nesting."""
        parts = [operand()]
        while self.peek() == op:
            self.next()
            parts.append(operand())
        return _fold_right(node, parts)

    def unary(self) -> Formula:
        kind, value, pos = self.next()
        if kind == "TILDE":
            return Not(self.unary())
        if kind == "ARBBOX":
            return ArbBox(self.unary())
        if kind == "ARBDIA":
            return ArbDiamond(self.unary())
        if kind == "LBRACK":
            if self.peek() == "LBRACE":
                upd = self.update()
                self.expect("RBRACK", "']'")
                return UpdateBox(upd, self.unary())
            agent = self.expect("IDENT", "an agent name")
            self.expect("RBRACK", "']'")
            return Box(agent, self.unary())
        if kind == "LANGLE":
            if self.peek() == "LBRACE":
                upd = self.update()
                self.expect("RANGLE", "'>'")
                return UpdateDiamond(upd, self.unary())
            agent = self.expect("IDENT", "an agent name")
            self.expect("RANGLE", "'>'")
            return Diamond(agent, self.unary())
        if kind == "LPAREN":
            f = self.formula()
            self.expect("RPAREN", "')'")
            return f
        if kind == "IDENT":
            if value == "true":
                return TOP
            if value == "false":
                return BOT
            return Atom(value)
        raise ParseError(f"expected a formula, found {value or 'end of input'!r}", pos)

    def update(self) -> Update:
        self.expect("LBRACE", "'{'")
        clauses = [self.clause()]
        while self.peek() == "COMMA":
            self.next()
            clauses.append(self.clause())
        self.expect("RBRACE", "'}'")
        return Update(tuple(clauses))

    def clause(self) -> Clause:
        self.expect("LPAREN", "'('")
        pre = self.formula()
        self.expect("COMMA", "','")
        agent = self.expect("IDENT", "an agent name")
        self.expect("COMMA", "','")
        post = self.formula()
        self.expect("RPAREN", "')'")
        return Clause(pre, agent, post)


def _parse(text: str, rule, what: str):
    p = _Parser(text)
    try:
        out = rule(p)
    except RecursionError:
        # caught here, at the public entry, so each node costs no more to parse
        pos = p.tokens[min(p.i, len(p.tokens) - 1)][2]
        raise ParseError(f"{what} nested too deeply", pos) from None
    p.done(what)
    return out


def parse_formula(text: str) -> Formula:
    return _parse(text, _Parser.formula, "formula")


def parse_update(text: str) -> Update:
    """Parse a bare update literal, e.g. "{(p,a,true),(true,b,~q)}"."""
    return _parse(text, _Parser.update, "update")


# ------------------------------------------------------------------ printer

_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4, 5


def print_formula(f: Formula) -> str:
    """Canonical text: minimal parentheses, single spaces around binary operators.

    parse_formula(print_formula(f)) == f for every formula.
    """
    try:
        return _print(f, 0)
    except RecursionError:
        raise AaulError("formula nested too deeply to print") from None


def _print(f: Formula, ctx: int) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Not):
        return "~" + _print(f.body, _PREC_UNARY)
    if isinstance(f, Box):
        return f"[{f.agent}]" + _print(f.body, _PREC_UNARY)
    if isinstance(f, Diamond):
        return f"<{f.agent}>" + _print(f.body, _PREC_UNARY)
    if isinstance(f, UpdateBox):
        return f"[{print_update(f.update)}]" + _print(f.body, _PREC_UNARY)
    if isinstance(f, UpdateDiamond):
        return f"<{print_update(f.update)}>" + _print(f.body, _PREC_UNARY)
    if isinstance(f, ArbBox):
        return "[*]" + _print(f.body, _PREC_UNARY)
    if isinstance(f, ArbDiamond):
        return "<*>" + _print(f.body, _PREC_UNARY)
    if isinstance(f, And):
        return _print_binary(f, "&", _PREC_AND, ctx)
    if isinstance(f, Or):
        return _print_binary(f, "|", _PREC_OR, ctx)
    if isinstance(f, Implies):
        return _print_binary(f, "->", _PREC_IMP, ctx)
    if isinstance(f, Iff):
        return _print_binary(f, "<->", _PREC_IFF, ctx)
    raise TypeError(f"not a formula: {f!r}")


def _print_binary(f: Formula, op: str, prec: int, ctx: int) -> str:
    # right associative: the same operator's right spine is printed as one
    # flat chain, each operand but the last needing strictly tighter binding
    *init, last = flatten_conj(f, type(f))
    text = f" {op} ".join([*(_print(g, prec + 1) for g in init), _print(last, prec)])
    if prec < ctx:
        return f"({text})"
    return text


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
        if isinstance(g, (And, Or, Implies, Iff)):
            stack += (g.right, g.left)
        elif isinstance(g, (UpdateBox, UpdateDiamond)):
            stack.append(g.body)
            for c in reversed(g.update.clauses):
                stack += (c.post, c.pre)
        elif isinstance(g, (Not, Box, Diamond, ArbBox, ArbDiamond)):
            stack.append(g.body)
        elif not isinstance(g, (Atom, Top, Bot)):
            raise TypeError(f"not a formula: {g!r}")


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
    [*]/<*>. f's truth at a state s depends only on the valuation and on
    the arrows out of the states within distance < local_depth(f) of s,
    along the arrows of the agents f mentions.

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
