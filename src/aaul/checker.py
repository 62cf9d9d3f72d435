"""Model checking, including the arbitrary-update modalities.

[*]f quantifies over every update whose clause formulas are quantifier
free. On a finite model that range collapses to a finite one: a
quantifier-free formula can only define a union of bisimulation blocks, so
the arrow set an update keeps is a union of arrow blocks (see bisim), and
every such union is realizable by clauses built from characteristic
formulas. The checker therefore enumerates the 2^k unions of the k arrow
blocks, in lexicographic order over the sorted index tuples. k is capped by
Budget.max_arrow_blocks; hitting a cap raises BudgetExceededError rather
than guessing. The first union is the empty one, which needs no block: the
partition, the blocks and the cap are computed only once a walk goes past
it. So [*]g where g is false everywhere without arrows, and <*>g where g
is true everywhere without arrows, are answered exactly at any block
count.

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
as an ordinary update.
"""

from __future__ import annotations

import functools
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
    """Caps on the work one check may do. Exceeding a cap raises, never approximates."""

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


def _distinct_unions(m: KripkeModel, checked, body: Formula, ev: _Evaluator):
    """The items of `_unions(m, blocks)` whose arrows for the agents body
    reads differ from those of every earlier item, each cut to those agents
    when body holds a nested [*]/<*>. checked(), cached, gives m's partition
    and arrow blocks past the cap (`_checked_blocks`), asked for once the
    walk goes past the empty union. After the second union, m is judged
    separated when that partition took no refinement round, and the pair
    (`_read_agents(body, separated)`, whether body holds a quantifier) is
    kept in `ev.read` under (id(body), separated): one body can be met at
    models of both kinds.

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
    `ev.known` under C's arrows, where the nested walk at C reads it
    instead of refining, and by (i) it needs no cap. g's truth set is the
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
    unions = _unions(m, lambda: checked()[1])
    first = next(unions)
    yield first
    second = next(unions, None)  # calls checked(), which raises over the cap
    if second is None:
        return
    part, blocks = checked()
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
                ev.known[sub._fingerprint[3]] = (part, tuple(blocks[i] for i in chosen if blocks[i].agent in read))
            yield chosen, sub


def _materialize_update(m: KripkeModel, checked, chosen: tuple[int, ...]) -> Update:
    """An update literal that keeps exactly the chosen blocks' arrows;
    checked() gives the partition and the blocks.

    The empty union becomes a single never-matching clause, since updates
    need at least one clause, and asks checked() for nothing.
    """
    if not chosen:
        agent = m.agents[0] if m.agents else "a"
        return Update((Clause(BOT, agent, BOT),))
    part, blocks = checked()
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


def _checked_blocks(m: KripkeModel, budget: Budget) -> tuple[Partition, tuple[ArrowBlock, ...]]:
    part = coarsest_partition(m)
    blocks = arrow_blocks(m, part)
    if len(blocks) > budget.max_arrow_blocks:
        raise BudgetExceededError(
            f"{len(blocks)} arrow blocks exceed the cap of {budget.max_arrow_blocks}",
            kind="arrow_blocks",
        )
    return part, blocks


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
    read agents found once per node and kind of model. A cut model it
    yields comes with its partition and arrow blocks, kept in `known` by
    the model's arrow tuple; the table is looked in only once it holds
    one, and a model not in it is refined as any other.

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
        self.known: dict = {}
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
                known = self.known and self.known.get(m._fingerprint[3])
                checked = (lambda: known) if known else functools.cache(lambda: _checked_blocks(m, self.budget))
                unions = _distinct_unions(m, checked, f.body, self)
                for _, sub in unions:
                    got = self.truth_set(sub, f.body)
                    out = out & got if box else out | got
                    if len(out) == (0 if box else len(states)):
                        break
        else:
            raise TypeError(f"not a formula: {f!r}")
        out = memo[id(f)] = self.interned.setdefault(out, out)
        return out


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
    """
    if not isinstance(f, ArbDiamond):
        raise TypeError("witness_update expects a <*> formula")
    m.state_index(state)
    checked = functools.cache(lambda: _checked_blocks(m, budget))
    ev = _Evaluator(budget)
    for chosen, sub in _distinct_unions(m, checked, f.body, ev):
        if state in _guarded(ev.truth_set, sub, f.body):
            return _materialize_update(m, checked, chosen)
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
