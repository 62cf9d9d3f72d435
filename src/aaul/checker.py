"""Model checking, including the arbitrary-update modalities.

[*]f quantifies over every update whose clause formulas are quantifier
free. On a finite model that range collapses to a finite one: a
quantifier-free formula can only define a union of bisimulation blocks, so
the arrow set an update keeps is a union of arrow blocks (see bisim), and
every such union is realizable by clauses built from characteristic
formulas. Up to Budget.max_arrow_blocks blocks the checker walks the 2^k
unions of the k arrow blocks, in lexicographic order over the sorted index
tuples. The first union is the empty one, which needs no block: the
partition, the blocks and the cap are computed only once a walk goes past
it. So [*]g where g is false everywhere without arrows, and <*>g where g
is true everywhere without arrows, are answered at the empty union at any
block count. A walk that goes past it on a model with more blocks than the
cap stops there, and `_Symbolic` decides the quantifier exactly instead,
with one BDD variable per block (its docstring gives the soundness
argument). What is still refused raises BudgetExceededError rather than
guessing: a body with a nested [*]/<*> at such a model when the model is
not separated (kind "arrow_blocks"), a decision that needs more than
MAX_BDD_NODES BDD nodes ("bdd_nodes"), and `witness_update` past the cap,
which keeps its walk.

The enumeration (`_unions`) walks that order depth first and adds or
removes one block per step, so each union costs one frozenset union over
its parent's arrows rather than a rebuild from all its chosen blocks. The
order itself is kept because it is observable: it decides where [*] stops
early, which nested refusal is reached first, and which update
`witness_update` returns.

Many unions look alike to a body: one that reads only the agents a and b
cannot tell apart two unions with the same a- and b-arrows. So [*], <*>
and `witness_update` evaluate their body only on the unions whose arrows
for the agents it reads differ from every earlier union's
(`_distinct_unions`, which gives the soundness argument). Every union is
still walked in order, so each skipped one repeats a truth set already
taken, and the answer, the early exit and every refusal stay the same. A
body with a nested [*]/<*> reads every agent, unless the quantified model
is separated: its coarsest partition is its valuation partition, so that
no two bisimulation blocks agree on every proposition. There a body with a
nested [*]/<*> is evaluated on each kept union cut to the agents it reads,
whose partition and arrow blocks are known without refinement, so the
nested walk walks only the read blocks.

`brute_force_arb_oracle` answers the same question along a deliberately
different path for differential testing: per-state recursion with no
memoization and no early exits, its own recursive enumeration, and each
union materialized as concrete clause text that is parsed back and applied
as an ordinary update. It refuses every model over the block cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bisim import ArrowBlock, Partition, arrow_blocks, characteristic_formulas, coarsest_partition
from .errors import BudgetExceededError
from .kripke import KripkeModel
from .syntax import (
    And,
    ArbBox,
    ArbDiamond,
    Atom,
    BOT,
    Bot,
    Box,
    Clause,
    Diamond,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    Update,
    UpdateBox,
    UpdateDiamond,
    flatten_conj,
    is_quantifier_free,
    parse_update,
    print_formula,
    signature,
)


@dataclass(frozen=True)
class Budget:
    """Caps on the work one check may do. Exceeding a cap raises, never approximates.

    max_arrow_blocks bounds the walk over the unions of a model's arrow
    blocks: 2^max_arrow_blocks unions at most per [*]/<*>. Past it a
    quantifier is decided with BDDs, whose size the module constant
    MAX_BDD_NODES caps instead; a body with a nested [*]/<*> at a model
    that is not separated, and `witness_update`, are refused there."""

    max_arrow_blocks: int = 20

    def __post_init__(self):
        if self.max_arrow_blocks < 1:
            raise ValueError("budget caps must be positive")


DEFAULT_BUDGET = Budget()


def _unions(m: KripkeModel, blocks):
    """Every union of the blocks `blocks()` gives as (chosen indices, induced
    submodel), in lexicographic order over the sorted index tuples:
    (), (0,), (0,1), (0,1,2), ..., (0,2), ..., (1,), (1,2), ...

    The empty union needs no block, so blocks() is called only once the
    walk is asked for a second union: a walk that stops at the empty one
    never builds a partition and never meets the block cap.

    A depth-first walk with an explicit stack: each step adds or removes
    one block, so each union is its parent's arrows plus one block's, and
    the agent's previous arrow set is kept on the stack for the removal.
    Submodels are built unchecked: a union of m's arrow blocks is a subset
    of m's arrows.
    """
    arrows = {a: frozenset() for a in m.agents}
    chosen: list[int] = []
    saved: list[frozenset] = []  # the touched agent's arrows before each chosen block
    yield (), m._derive(dict(arrows))
    blocks = blocks()
    i = 0
    while True:
        if i < len(blocks):
            agent = blocks[i].agent
            saved.append(arrows[agent])
            arrows[agent] = arrows[agent] | blocks[i].arrows
            chosen.append(i)
            yield tuple(chosen), m._derive(dict(arrows))
            i += 1
        elif chosen:
            # no larger index left to add: drop the last block, try the next one in its place
            i = chosen.pop()
            arrows[blocks[i].agent] = saved.pop()
            i += 1
        else:
            return


def _read_agents(body: Formula, separated: bool) -> frozenset[str] | None:
    """The agents whose arrows body reads: those of every [c]/<c> and every
    update clause in it, clause formulas included (`signature(body)[1]`).
    A nested [*]/<*> reads what its body reads when the quantified model is
    separated (see `_distinct_unions`); else the result is None, for every
    agent."""
    if not separated and not is_quantifier_free(body):
        return None
    return signature(body)[1]


def _distinct_unions(m: KripkeModel, body: Formula, ev: _Evaluator):
    """The items of `_unions(m, blocks)` whose arrows for the agents body
    reads differ from those of every earlier item, each cut to those agents
    when body holds a nested [*]/<*>. `ev.checked(m)` gives m's partition
    and arrow blocks, asked for once the walk goes past the empty union;
    over the block cap it raises `_PastCap`. After the second union, m is
    judged separated when that partition took no refinement round, and the
    pair (`_read_agents(body, separated)`, whether body holds a quantifier)
    is kept in `ev.read` under (id(body), separated): one body can be met
    at models of both kinds.

    Soundness, for a [*]/<*> body g. Every union has the root's states and
    valuation, so a quantifier-free g's truth set in it depends only on the
    arrows of the agents g reads: [c]g and <c>g read c's arrows, and [U]g
    reads those of U's clause agents through U's clause formulas, while
    every agent with no clause in U loses all its arrows. A union whose
    arrows for those agents repeat an earlier union's therefore gives the
    same set, along the same evaluation path, so the same refusal, if any,
    was met on the earlier one. Intersecting or uniting a set a second
    time changes nothing, so [*] and <*> give the same answer, stop at the
    same point and refuse the same way; and a repeated union is never the
    first to satisfy g, so `witness_update` returns the same update.

    A nested [*]/<*> in g ranges over the unions of the arrow blocks of the
    model it meets. Let P be m's partition. (i) P is a bisimulation of
    every union V of m's blocks (a block holds all its agent's arrows from
    one P-block to another) and of every model an update inside g derives
    from one, since clause formulas' truth sets are closed under it. So a
    derived model's arrows are a union of m's blocks, its partition is P or
    coarser, and it has no more blocks than m: no nested cap can refuse
    once m's passed. How a coarser partition merges m's blocks depends on
    every agent's arrows, so in general g reads every agent. (ii) If m is
    separated (P is its valuation partition: refinement took no round),
    every derived partition lies between P and the valuation partition, so
    it is P, numbered the same (by first state), found in no round. A
    derived model's arrow blocks are then exactly its chosen blocks of m,
    in m's order, its nested range is every sub-union of them, and the
    nested truth set depends only on its arrows for the agents the nested
    body reads. (3) Two unions with equal read arrows have the same read
    blocks in the same relative order, so their nested walks evaluate the
    same distinct read sets in the same order, with the same refusals,
    early exits and witnesses. The empty union, evaluated before the read
    agents are asked for, is never skipped. A valuation-discrete m is the
    special case where P is discrete.

    (4) The cut. On a separated m, a kept union U is replaced by its cut
    C: U's arrows for the agents g reads, every other agent's emptied. C
    is the union of U's chosen blocks of read agents, so it is a union of
    m's blocks, and by (ii) its partition is P and its arrow blocks are
    those chosen read blocks in m's order; that pair is recorded in
    `ev.table` under C's arrows, where the nested walk at C reads it
    instead of refining, and by (i) it passes the cap. g's truth set is the
    same at U and C, by (i)-(3) applied to both: g's modalities and update
    clauses name only read agents, its clause formulas are subformulas of
    g and read only them too, and an update inside g keeps only its clause
    agents' arrows, so the models reached from U and from C along g agree
    on every read agent's arrows. Their nested walks range over the
    sub-unions of U's and of C's blocks, whose read blocks are the same in
    the same order, so by (3) they evaluate the same read sets in the same
    order, nested cuts included, with the same refusals and early exits.
    The outer walk, its `chosen` tuples and the cap are untouched, so the
    answer, the early exit and the update `witness_update` materializes
    are those without the cut.

    Every union is still drawn from `_unions`, in its order; only the
    body's evaluation is skipped or moved to the cut.
    """
    unions = _unions(m, lambda: ev.checked(m)[1])
    first = next(unions)
    yield first
    second = next(unions, None)  # asks for the blocks, which raises over the cap
    if second is None:
        return
    part, blocks = ev.checked(m)
    key = (id(body), part.rounds == 0)
    if key not in ev.read:
        ev.read[key] = (_read_agents(body, key[1]), not is_quantifier_free(body))
    read, nested = ev.read[key]
    agents = m.agents if read is None else tuple(a for a in m.agents if a in read)
    unions = itertools.chain((second,), unions)
    if len(agents) == len(m.agents):
        yield from unions  # every union differs on some agent's arrows
        return
    unread = dict.fromkeys((a for a in m.agents if a not in read), frozenset())
    seen = {tuple(map(first[1].arrows.__getitem__, agents))}
    for chosen, sub in unions:
        key = tuple(map(sub.arrows.__getitem__, agents))
        if key not in seen:
            seen.add(key)
            if nested:  # read is a proper subset only on a separated m: (4)
                sub = m._derive({**sub.arrows, **unread})
                ev.table[sub._fingerprint[3]] = (part, tuple(blocks[i] for i in chosen if blocks[i].agent in read))
            yield chosen, sub


def _materialize_update(m: KripkeModel, ev: _Evaluator, chosen: tuple[int, ...]) -> Update:
    """An update literal that keeps exactly the chosen blocks' arrows, the
    blocks being m's in `ev`'s table.

    The empty union becomes a single never-matching clause, since updates
    need at least one clause, and asks for no block.
    """
    if not chosen:
        agent = m.agents[0] if m.agents else "a"
        return Update((Clause(BOT, agent, BOT),))
    part, blocks = ev.blocks(m)
    chars = characteristic_formulas(m, part)
    return Update(
        tuple(
            Clause(chars[blocks[i].source_block], blocks[i].agent, chars[blocks[i].target_block])
            for i in chosen
        )
    )


def apply_update(m: KripkeModel, u: Update, truth) -> KripkeModel:
    """m after the update u: an agent's arrow (s, t) is kept exactly when
    some clause (pre, agent, post) has pre true at s and post true at t,
    both in m, never in the partly built result. truth(g) is the truth set
    of clause formula g in m. States, valuation and point are untouched, so
    the result is built unchecked; clauses for agents m does not declare
    admit nothing.

    Each clause is tried only on the arrows no earlier clause kept, and its
    post is judged only when one of them starts in pre. So a clause formula
    is judged exactly when some arrow needs it, and one that no arrow needs
    can never trip a budget.
    """
    arrows = {}
    for agent in m.agents:
        left = m.arrows[agent]
        for c in u.clauses:
            if c.agent != agent or not left:
                continue
            pre = truth(c.pre)
            starting = [(s, t) for s, t in left if s in pre]
            if starting:
                post = truth(c.post)
                left = left.difference((s, t) for s, t in starting if t in post)
        arrows[agent] = m.arrows[agent] - left
    return m._derive(arrows)


def _cap_refusal(blocks: tuple[ArrowBlock, ...], budget: Budget) -> BudgetExceededError:
    return BudgetExceededError(
        f"{len(blocks)} arrow blocks exceed the cap of {budget.max_arrow_blocks}", kind="arrow_blocks"
    )


def _checked_blocks(m: KripkeModel, budget: Budget) -> tuple[Partition, tuple[ArrowBlock, ...]]:
    part = coarsest_partition(m)
    blocks = arrow_blocks(m, part)
    if len(blocks) > budget.max_arrow_blocks:
        raise _cap_refusal(blocks, budget)
    return part, blocks


class _PastCap(Exception):
    """A walk asked for the blocks of a model that has more of them than
    the block cap; args are the model's partition and blocks."""


class _Evaluator:
    """Truth-set evaluation of formulas as parsed, one `truth_set` frame per
    node, dispatched on the node's type.

    Every node kind has its own branch, so a formula costs one stack frame
    per level of nesting as written: <a>g takes the pre-image of g's truth
    set, -> and <-> are set algebra, and a right-nested & or | chain is one
    n-ary node whose operands sit one frame below it. Nesting costs linear
    time, so no budget counts it; a formula nested deeper than the
    interpreter's stack is refused at the kernel's entries (`_guarded`),
    with kind "recursion". Every operand is evaluated, in order, with no
    short-circuit. <U>g is [U]g, since an update is deterministic. <*>g
    walks the unions in the order [*] does, behind the same cap, and stops
    once g holds somewhere on every state, exactly where ~[*]~g would stop.
    Both evaluate g only on the unions `_distinct_unions` keeps, with g's
    read agents found once per node and kind of model. Past the block cap
    the walk stops after the empty union, and `_Symbolic` decides the
    quantifier instead.

    `table` holds each model's partition and arrow blocks, by the model's
    arrow tuple: the walk, the cut and the symbolic path read it, so a
    model is refined at most once per evaluator, and a cut model, whose
    pair `_distinct_unions` records, is not refined at all.

    One evaluator serves one `core_checker`. Every model it sees is the root
    or a union or update derived from it, with the root's states, valuation
    and point: so the state set is built once, and truth sets are memoized
    by the per-agent arrow tuple, then id(node), in one dict per model that
    is reused while the same model object comes back. No id is recycled: the
    caller holds the formula while the evaluator lives, and a subtree shared
    between places shares their memo entries. Leaves (Atom, Top, Bot) skip
    the memo, each chain is flattened once, and equal truth sets are
    interned: the memo holds one frozenset per distinct set.
    """

    def __init__(self, budget: Budget):
        self.budget = budget
        self.memos: dict = {}
        self.interned: dict = {}
        self.chains: dict = {}
        self.read: dict = {}
        self.table: dict = {}
        self.model = self.memo = self.states = None

    def truth_set(self, m: KripkeModel, f: Formula) -> frozenset[str]:
        kind = type(f)
        if kind is Atom:
            return m.valuation.get(f.name, frozenset())  # undeclared propositions are false everywhere
        if kind is Bot:
            return frozenset()
        if m is not self.model:
            self.states = self.states or frozenset(m.states)  # a model has at least one state
            self.model, self.memo = m, self.memos.setdefault(m._fingerprint[3], {})
        states, memo = self.states, self.memo  # memo stays this model's across the calls below
        if kind is Top:
            return states
        out = memo.get(id(f))
        if out is not None:
            return out
        if kind is Not:
            out = states - self.truth_set(m, f.body)
        elif kind is And or kind is Or:
            # a right-nested chain is one n-ary node, each operand one frame below it
            parts = self.chains.get(id(f)) or self.chains.setdefault(id(f), flatten_conj(f, kind))
            sets = [self.truth_set(m, g) for g in parts]
            out = frozenset.intersection(*sets) if kind is And else frozenset.union(*sets)
        elif kind is Implies or kind is Iff:
            left = self.truth_set(m, f.left)
            right = self.truth_set(m, f.right)
            out = (states - left) | right if kind is Implies else states - (left ^ right)
        elif kind is Box:
            body = self.truth_set(m, f.body)
            out = states - {s for s, t in m.arrow_set(f.agent) if t not in body}
        elif kind is Diamond:
            body = self.truth_set(m, f.body)
            out = frozenset(s for s, t in m.arrow_set(f.agent) if t in body)
        elif kind is UpdateBox or kind is UpdateDiamond:
            updated = apply_update(m, f.update, lambda g: self.truth_set(m, g))
            out = self.truth_set(updated, f.body)
        elif kind is ArbBox or kind is ArbDiamond:
            # [*] intersects the unions' sets and stops once none is left;
            # <*> unites them and stops once every state is in
            box = kind is ArbBox
            out = states if box else frozenset()
            if not (box and type(f.body) is Top):
                try:
                    for _, sub in _distinct_unions(m, f.body, self):
                        got = self.truth_set(sub, f.body)
                        out = out & got if box else out | got
                        if len(out) == (0 if box else len(states)):
                            break
                except _PastCap as past:
                    out = _Symbolic(self, m, *past.args).decide(f)
        else:
            raise TypeError(f"not a formula: {f!r}")
        out = memo[id(f)] = self.interned.setdefault(out, out)
        return out

    def blocks(self, m: KripkeModel) -> tuple[Partition, tuple[ArrowBlock, ...]]:
        """m's partition and arrow blocks, from `table`, refined on a miss."""
        key = m._fingerprint[3]
        found = self.table.get(key)
        if found is None:
            part = coarsest_partition(m)
            found = self.table[key] = (part, arrow_blocks(m, part))
        return found

    def checked(self, m: KripkeModel) -> tuple[Partition, tuple[ArrowBlock, ...]]:
        """`blocks(m)`, which a walk may range over: _PastCap when there
        are more blocks than the budget's cap."""
        found = self.blocks(m)
        if len(found[1]) > self.budget.max_arrow_blocks:
            raise _PastCap(*found)
        return found


MAX_BDD_NODES = 200_000  # per symbolic decision; each node costs about 300 bytes with its tables


class _BDD:
    """Reduced ordered binary decision diagrams (Bryant, "Graph-Based
    Algorithms for Boolean Function Manipulation", IEEE ToC 1986) over the
    variables 0, 1, 2, ..., tested in that order from the root. A diagram
    is a node number: 0 is false, 1 is true, and a node n > 1 tests
    variable var[n] and goes on to lo[n] when it is false, hi[n] when it is
    true. Nodes are made only by `node`, which keeps them unique and
    reduced, so two diagrams are the same function exactly when they are
    the same number. Making more than MAX_BDD_NODES nodes refuses, with
    kind "bdd_nodes", before memory runs out."""

    def __init__(self):
        self.var = [_LEAF, _LEAF]
        self.lo = [0, 1]
        self.hi = [0, 1]
        self.unique: dict = {}
        self.applied: dict = {}
        self.negated: dict = {}
        self.dropped: dict = {}

    def node(self, v: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (v, lo, hi)
        n = self.unique.get(key)
        if n is None:
            n = len(self.var)
            if n - 1 > MAX_BDD_NODES:
                raise BudgetExceededError(f"{n - 1} BDD nodes exceed the cap of {MAX_BDD_NODES}", kind="bdd_nodes")
            self.unique[key] = n
            self.var.append(v)
            self.lo.append(lo)
            self.hi.append(hi)
        return n

    def apply(self, op: int, f: int, g: int) -> int:
        """f & g for op 0, f | g for op 1: op is the value that settles the
        result alone, and 1 - op the one that leaves the other operand."""
        if f == op or g == op:
            return op
        if f == 1 - op or f == g:
            return g
        if g == 1 - op:
            return f
        if f > g:
            f, g = g, f
        key = (op, f, g)
        out = self.applied.get(key)
        if out is None:
            var, lo, hi = self.var, self.lo, self.hi
            v = min(var[f], var[g])
            f0, f1 = (lo[f], hi[f]) if var[f] == v else (f, f)
            g0, g1 = (lo[g], hi[g]) if var[g] == v else (g, g)
            out = self.applied[key] = self.node(v, self.apply(op, f0, g0), self.apply(op, f1, g1))
        return out

    def and_(self, f: int, g: int) -> int:
        return self.apply(0, f, g)

    def or_(self, f: int, g: int) -> int:
        return self.apply(1, f, g)

    def not_(self, f: int) -> int:
        if f < 2:
            return 1 - f
        out = self.negated.get(f)
        if out is None:
            out = self.negated[f] = self.node(self.var[f], self.not_(self.lo[f]), self.not_(self.hi[f]))
        return out

    def drop(self, f: int, first: int, exists: bool) -> int:
        """f with every variable from `first` on quantified out: exists,
        or for all. f must test no variable after them, so a node that
        tests one of them is a function of them alone, and not a constant
        one (f is reduced): some assignment makes it true and some false."""
        if f < 2:
            return f
        if self.var[f] >= first:
            return int(exists)
        key = (f, first, exists)
        out = self.dropped.get(key)
        if out is None:
            lo, hi = self.drop(self.lo[f], first, exists), self.drop(self.hi[f], first, exists)
            out = self.dropped[key] = self.node(self.var[f], lo, hi)
        return out


_LEAF = float("inf")  # the variable of the two constants: after every real one


class _SymModel:
    """A family of models over the states of the `_Symbolic`'s model, one
    per assignment to the BDD variables. arrows maps each agent to a tuple
    of (source index, target index, block, presence): the arrow is in the
    model of an assignment when its presence BDD is true there; arrows
    whose presence is the constant false are left out. depth counts the
    [*]/<*> this family is nested in, which fixes its variables."""

    __slots__ = ("arrows", "depth", "memo")

    def __init__(self, arrows: dict, depth: int):
        self.arrows, self.depth, self.memo = arrows, depth, {}


class _Symbolic:
    """[*]g and <*>g at a concrete model m, decided with one BDD variable
    per arrow block of m instead of a walk over the 2^B unions. It uses m's
    own partition and blocks, from the evaluator's table: m may be a model
    an update derived, whose partition is not the root's.

    Block i of m gets variable i. The family of all unions of m's blocks is
    m's arrows, each with presence x_i for its block i, and g is evaluated
    once over that family (`truth`): one BDD per state, over the x_i. By
    induction on g, for every assignment X (the union of the blocks i with
    x_i true), the BDD at state s is true at X exactly when g holds at s in
    the model of X:
    - atoms and constants do not depend on X, since every union keeps m's
      valuation, and the connectives act state by state;
    - [c]h holds at s when every c-arrow (s,t) present at X has h at t: the
      AND over those arrows of (not present, or h at t); <c>h is the OR of
      (present, and h at t);
    - an update keeps an arrow (s,t) of agent c when it is present and
      some c-clause has its pre true at s and its post true at t, both in
      the model before the update, as `apply_update` does; so its presence
      becomes (present, and the OR over c's clauses of pre at s and post
      at t), and the updated family has, at each X, the updated model;
    - a nested [*]h or <*>h, met at a family whose m is separated (its
      partition P took no refinement round). By facts (i) and (ii) of
      `_distinct_unions`, every model of the family (a union of m's blocks,
      or derived from one by the updates in g) has the partition P,
      numbered alike, and its arrow blocks are its arrows in each of m's
      blocks. So its range is its arrows cut to every union Y of m's
      blocks. The nested body gets B fresh variables y_i, with presence
      (present, and y_i) for an arrow of block i, and at (X, Y) its BDD is
      h in the model of X cut to Y. [*]h holds at X when that is true for
      every Y, and <*>h when for some: the y_i are quantified out, for
      all or exists. A body at depth d uses variables d*B to d*B + B - 1,
      after all those of the families around it; every quantifier inside
      has already quantified its own out, so the y_i are the last
      variables its BDDs test, and `_BDD.drop` removes them.

    [*]g at m ranges over every X, so it holds at s exactly when g's BDD at
    s is true at every X: when it is the constant true, which in a reduced
    ordered BDD is the node 1. <*>g holds where the BDD is not the node 0.
    The answer is exact; it does not depend on the walk's order, its early
    exits or its cap. A body with a nested [*]/<*> at a non-separated m
    has a range that depends on each union's own partition, and is refused
    as the walk refuses it, over the block cap.

    A clause formula is evaluated only when an arrow that no earlier clause
    of its agent keeps may be present (its pre), and may start where the
    pre holds (its post), at some assignment, as `apply_update` judges it
    on some union; so one that no union needs cannot refuse.
    """

    def __init__(self, ev: _Evaluator, m: KripkeModel, part: Partition, blocks: tuple[ArrowBlock, ...]):
        self.ev, self.m, self.blocks, self.separated = ev, m, blocks, part.rounds == 0
        self.bdd = _BDD()
        n = len(m.states)
        self.true, self.false = (1,) * n, (0,) * n
        self.atoms = {p: tuple(int(s in holds) for s in m.states) for p, holds in m.valuation.items()}

    def decide(self, f: ArbBox | ArbDiamond) -> frozenset[str]:
        """f's truth set in m: the family of m alone, every arrow present,
        quantified over m's blocks."""
        if not self.separated and not is_quantifier_free(f.body):
            raise _cap_refusal(self.blocks, self.ev.budget)
        index = self.m._index
        arrows: dict = {a: [] for a in self.m.agents}
        for i, b in enumerate(self.blocks):
            pairs = sorted((index[s], index[t]) for s, t in b.arrows)  # an order that no hash seed moves
            arrows[b.agent].extend((s, t, i, 1) for s, t in pairs)
        root = _SymModel({a: tuple(pairs) for a, pairs in arrows.items()}, 0)
        got = self.quantified(root, f.body, type(f) is ArbBox)
        return frozenset(s for s, v in zip(self.m.states, got) if v)

    def quantified(self, sm: _SymModel, body: Formula, box: bool) -> tuple[int, ...]:
        """[*]body (box) or <*>body over the family sm, at each state."""
        bdd, first = self.bdd, sm.depth * len(self.blocks)
        ys = [bdd.node(first + i, 0, 1) for i in range(len(self.blocks))]
        inner = _SymModel(
            {a: tuple((s, t, i, bdd.and_(p, ys[i])) for s, t, i, p in pairs) for a, pairs in sm.arrows.items()},
            sm.depth + 1,
        )
        return tuple(bdd.drop(g, first, not box) for g in self.truth(inner, body))

    def truth(self, sm: _SymModel, f: Formula) -> tuple[int, ...]:
        """f's BDD at each state of the family sm, in m's state order."""
        kind = type(f)
        if kind is Atom:
            return self.atoms.get(f.name, self.false)
        if kind is Top:
            return self.true
        if kind is Bot:
            return self.false
        out = sm.memo.get(id(f))
        if out is not None:
            return out
        bdd = self.bdd
        if kind is Not:
            out = tuple(map(bdd.not_, self.truth(sm, f.body)))
        elif kind is And or kind is Or:
            chains = self.ev.chains
            parts = chains.get(id(f)) or chains.setdefault(id(f), flatten_conj(f, kind))
            op = bdd.and_ if kind is And else bdd.or_
            out = self.truth(sm, parts[0])
            for g in parts[1:]:
                out = tuple(map(op, out, self.truth(sm, g)))
        elif kind is Implies or kind is Iff:
            left, right = self.truth(sm, f.left), self.truth(sm, f.right)
            if kind is Implies:
                out = tuple(bdd.or_(bdd.not_(x), y) for x, y in zip(left, right))
            else:
                out = tuple(bdd.or_(bdd.and_(x, y), bdd.and_(bdd.not_(x), bdd.not_(y))) for x, y in zip(left, right))
        elif kind is Box or kind is Diamond:
            body = self.truth(sm, f.body)
            pairs = sm.arrows.get(f.agent)
            if pairs is None:
                self.m.arrow_set(f.agent)  # raises UnknownAgentError
            if kind is Box:
                acc = list(self.true)
                for s, t, _, p in pairs:
                    acc[s] = bdd.and_(acc[s], bdd.or_(bdd.not_(p), body[t]))
            else:
                acc = list(self.false)
                for s, t, _, p in pairs:
                    acc[s] = bdd.or_(acc[s], bdd.and_(p, body[t]))
            out = tuple(acc)
        elif kind is UpdateBox or kind is UpdateDiamond:
            out = self.truth(self.updated(sm, f.update), f.body)
        elif kind is ArbBox or kind is ArbDiamond:
            out = self.quantified(sm, f.body, kind is ArbBox)
        else:
            raise TypeError(f"not a formula: {f!r}")
        sm.memo[id(f)] = out
        return out

    def updated(self, sm: _SymModel, u: Update) -> _SymModel:
        """The family sm after u, clause by clause as `apply_update`: left
        is, per arrow, where it is present and no earlier clause kept it."""
        bdd = self.bdd
        arrows = {}
        for agent, pairs in sm.arrows.items():
            left = [p for *_, p in pairs]
            for c in u.clauses:
                if c.agent != agent or not any(left):
                    continue
                pre = self.truth(sm, c.pre)
                starting = [bdd.and_(x, pre[s]) for (s, *_), x in zip(pairs, left)]
                if any(starting):
                    post = self.truth(sm, c.post)
                    left = [
                        bdd.and_(x, bdd.not_(bdd.and_(y, post[t]))) for (_, t, *_), x, y in zip(pairs, left, starting)
                    ]
            kept = ((s, t, i, bdd.and_(p, bdd.not_(x))) for (s, t, i, p), x in zip(pairs, left))
            arrows[agent] = tuple(arrow for arrow in kept if arrow[3])
        return _SymModel(arrows, sm.depth)


def _guarded(call, *args):
    """call(*args), with a stack overflow turned into a budget refusal.
    The evaluator and the oracle recurse; the overflow is caught here, at
    their entries, so evaluation pays nothing per node. It is the only
    limit on nesting."""
    try:
        return call(*args)
    except RecursionError:
        raise BudgetExceededError("formula nested too deeply", kind="recursion") from None


def core_checker(budget: Budget = DEFAULT_BUDGET):
    """The kernel's one entry: check(m, f), the truth set in m of the
    formula f. The calls of one check share one fresh
    evaluator, whose memo is keyed by arrows alone, so every model given to
    one check must share states, valuation and point with the first, as
    the unions and updates of one model do."""
    ev = _Evaluator(budget)
    return lambda m, f: _guarded(ev.truth_set, m, f)


def truth_set(m: KripkeModel, f: Formula, budget: Budget = DEFAULT_BUDGET) -> frozenset[str]:
    """The states of m where f holds."""
    return core_checker(budget)(m, f)


def satisfies(m: KripkeModel, state: str, f: Formula, budget: Budget = DEFAULT_BUDGET) -> bool:
    m.state_index(state)
    return state in truth_set(m, f, budget)


def update_model(m: KripkeModel, u: Update, budget: Budget = DEFAULT_BUDGET) -> KripkeModel:
    """m after the update u, every clause judged in m by one evaluator."""
    check = core_checker(budget)
    return apply_update(m, u, lambda g: check(m, g))


def witness_update(m: KripkeModel, state: str, f: Formula, budget: Budget = DEFAULT_BUDGET):
    """For f = <*>body: the first union (in enumeration order) whose induced
    model satisfies body at state, materialized as a concrete update; None if
    no union works. Applying the result and checking body reproduces True.
    It keeps the walk and its cap: past the block cap it refuses once the
    empty union does not answer.
    """
    if not isinstance(f, ArbDiamond):
        raise TypeError("witness_update expects a <*> formula")
    m.state_index(state)
    ev = _Evaluator(budget)
    try:
        for chosen, sub in _distinct_unions(m, f.body, ev):
            if state in _guarded(ev.truth_set, sub, f.body):
                return _materialize_update(m, ev, chosen)
    except _PastCap as past:
        raise _cap_refusal(past.args[1], budget) from None
    return None


def _lex_subsets(n: int, start: int = 0):
    """All subsets of range(n) as sorted tuples, in lexicographic order:
    (), (0,), (0,1), (0,1,2), ..., (0,2), ..., (1,), (1,2), ...
    """
    yield ()
    for i in range(start, n):
        for rest in _lex_subsets(n, i + 1):
            yield (i,) + rest


class _Oracle:
    """Per-state recursive evaluation of the full (sugared) language.

    Used as the slow reference in differential tests. Boolean connectives
    evaluate both sides, modalities visit every successor, and quantified
    modalities materialize every union through clause text, reparse it and
    apply it as a plain update. No memoization anywhere. It enumerates the
    unions with its own recursive `_lex_subsets` and never calls the
    checker's incremental `_unions`, so a fault in that walk cannot hide
    in both.
    """

    def __init__(self, budget: Budget):
        self.budget = budget

    def holds(self, m: KripkeModel, w: str, f: Formula) -> bool:
        if isinstance(f, Atom):
            return w in m.valuation.get(f.name, frozenset())
        if isinstance(f, Top):
            return True
        if isinstance(f, Bot):
            return False
        if isinstance(f, Not):
            return not self.holds(m, w, f.body)
        if isinstance(f, (And, Or, Implies, Iff)):
            left = self.holds(m, w, f.left)
            right = self.holds(m, w, f.right)
            if isinstance(f, And):
                return left and right
            if isinstance(f, Or):
                return left or right
            if isinstance(f, Implies):
                return (not left) or right
            return left == right
        if isinstance(f, (Box, Diamond)):
            # a plain loop, not a comprehension: one frame per level on every Python
            results = []
            for v in m.successors(f.agent, w):
                results.append(self.holds(m, v, f.body))
            return all(results) if isinstance(f, Box) else any(results)
        if isinstance(f, (UpdateBox, UpdateDiamond)):
            # applying an update is deterministic, so [U] and <U> coincide
            updated = apply_update(m, f.update, self._truth(m))
            return self.holds(updated, w, f.body)
        if isinstance(f, (ArbBox, ArbDiamond)):
            results = []
            for updated in self._all_updated_models(m):
                results.append(self.holds(updated, w, f.body))
            if isinstance(f, ArbBox):
                return all(results)
            return any(results)
        raise TypeError(f"not a formula: {f!r}")

    def _truth(self, m: KripkeModel):
        """g's truth set in m, judged state by state."""
        return lambda g: frozenset(w for w in m.states if self.holds(m, w, g))

    def _all_updated_models(self, m: KripkeModel):
        part, blocks = _checked_blocks(m, self.budget)
        chars = characteristic_formulas(m, part)
        clause_text = [
            f"({print_formula(chars[b.source_block])},{b.agent},{print_formula(chars[b.target_block])})"
            for b in blocks
        ]
        fallback_agent = m.agents[0] if m.agents else "a"
        for chosen in _lex_subsets(len(blocks)):
            if chosen:
                text = "{" + ",".join(clause_text[i] for i in chosen) + "}"
            else:
                text = "{(false," + fallback_agent + ",false)}"
            update = parse_update(text)
            yield apply_update(m, update, self._truth(m))


def brute_force_arb_oracle(m: KripkeModel, state: str, f: Formula, budget: Budget = DEFAULT_BUDGET) -> bool:
    m.state_index(state)
    return _guarded(_Oracle(budget).holds, m, state, f)
