"""Shared generators and slow reference implementations for the tests.

Everything here is deliberately independent of the production code paths it
is used to judge: naive_bisim iterates a greatest fixpoint instead of
refining a partition, naive_eval/naive_apply recurse over states
directly instead of computing truth sets, naive_arb_models lists the
range of [*] from naive_bisim for naive_eval to try in full, and
naive_sat_search tries every relabelling on every candidate model and
checks the whole formula on it. `invoke` runs the command line in process.
"""

from __future__ import annotations

import io
import itertools
import random

from aaul import (
    And,
    ArbBox,
    ArbDiamond,
    Atom,
    BOT,
    Bot,
    Box,
    Clause,
    DEFAULT_BUDGET,
    Diamond,
    Formula,
    Iff,
    Implies,
    KripkeModel,
    Not,
    Or,
    TOP,
    Top,
    Update,
    UpdateBox,
    UpdateDiamond,
    satisfies,
)
from aaul.cli import run

AGENTS = ("a", "b")
PROPS = ("p", "q")


def random_model(
    rng: random.Random,
    max_states: int = 4,
    agents: tuple[str, ...] = AGENTS,
    props: tuple[str, ...] = PROPS,
    density: float = 0.28,
) -> KripkeModel:
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    arrows = {
        a: {
            (states[i], states[j])
            for i in range(n)
            for j in range(n)
            if rng.random() < density
        }
        for a in agents
    }
    valuation = {p: {s for s in states if rng.random() < 0.5} for p in props}
    return KripkeModel(states, agents, props, arrows, valuation, point=states[0])


def random_leaf(rng: random.Random, props=PROPS) -> Formula:
    r = rng.random()
    if r < 0.35:
        return Atom(rng.choice(props))
    if r < 0.55:
        return Not(Atom(rng.choice(props)))
    if r < 0.8:
        return TOP
    return BOT


def random_quantifier_free(rng: random.Random, depth: int, props=PROPS, agents=AGENTS) -> Formula:
    """Random formula without [*]/<*>; may contain update modalities."""
    if depth <= 0:
        return random_leaf(rng, props)
    r = rng.random()
    sub = lambda: random_quantifier_free(rng, depth - 1, props, agents)
    if r < 0.18:
        return random_leaf(rng, props)
    if r < 0.30:
        return Not(sub())
    if r < 0.42:
        return And(sub(), sub())
    if r < 0.50:
        return Or(sub(), sub())
    if r < 0.58:
        return Implies(sub(), sub())
    if r < 0.62:
        return Iff(sub(), sub())
    if r < 0.76:
        return Box(rng.choice(agents), sub())
    if r < 0.90:
        return Diamond(rng.choice(agents), sub())
    ctor = UpdateBox if rng.random() < 0.5 else UpdateDiamond
    return ctor(random_update(rng, depth - 1, props, agents), sub())


def random_update(rng: random.Random, depth: int = 1, props=PROPS, agents=AGENTS) -> Update:
    """Random update with quantifier-free clause formulas."""
    k = rng.randint(1, 2)
    clauses = tuple(
        Clause(
            random_quantifier_free(rng, max(depth, 0), props, agents),
            rng.choice(agents),
            random_quantifier_free(rng, max(depth, 0), props, agents),
        )
        for _ in range(k)
    )
    return Update(clauses)


def shallow_quantifier_free(rng: random.Random, props=PROPS, agents=AGENTS) -> Formula:
    """Quantifier free with modal depth at most 1."""
    r = rng.random()
    a = rng.choice(agents)
    if r < 0.4:
        return random_leaf(rng, props)
    if r < 0.55:
        return Box(a, random_leaf(rng, props))
    if r < 0.7:
        return Diamond(a, random_leaf(rng, props))
    if r < 0.85:
        return And(random_leaf(rng, props), Diamond(a, random_leaf(rng, props)))
    return Or(Box(a, random_leaf(rng, props)), random_leaf(rng, props))


def single_quantifier_formula(rng: random.Random, props=PROPS, agents=AGENTS) -> Formula:
    """Exactly one [*]/<*>, total modal depth at most 2."""
    core_ctor = ArbBox if rng.random() < 0.5 else ArbDiamond
    core = core_ctor(shallow_quantifier_free(rng, props, agents))
    r = rng.random()
    a = rng.choice(agents)
    if r < 0.2:
        return core
    if r < 0.35:
        return Not(core)
    if r < 0.5:
        return Box(a, core)
    if r < 0.6:
        return Diamond(a, core)
    if r < 0.75:
        return And(core, random_leaf(rng, props))
    if r < 0.9:
        return Implies(random_leaf(rng, props), core)
    u = Update((Clause(random_leaf(rng, props), a, random_leaf(rng, props)),))
    return UpdateBox(u, core)


def random_formula(rng: random.Random, depth: int, props=PROPS, agents=AGENTS) -> Formula:
    """Full language, quantifiers allowed anywhere."""
    if depth <= 0:
        return random_leaf(rng, props)
    if rng.random() < 0.15:
        ctor = ArbBox if rng.random() < 0.5 else ArbDiamond
        return ctor(random_quantifier_free(rng, depth - 1, props, agents))
    return random_quantifier_free(rng, depth, props, agents)


def deep_formula(rng: random.Random, levels: int, props=PROPS, agents=AGENTS) -> Formula:
    """A formula nested `levels` levels deep along one spine, built up
    from a leaf: each level puts the spine under ~, a modality, an update
    (as its body) or on the left of a binary connective beside a leaf, so
    that no level joins a flat chain. Update clauses hold leaves only, so
    naive_eval judges each level at most once per state on a model where
    each state has at most one successor per agent."""
    f = random_leaf(rng, props)
    for _ in range(levels - 1):
        pick = rng.randrange(4)
        if pick == 0:
            f = Not(f)
        elif pick == 1:
            f = rng.choice((Box, Diamond))(rng.choice(agents), f)
        elif pick == 2:
            u = Update((Clause(random_leaf(rng, props), rng.choice(agents), random_leaf(rng, props)),))
            f = rng.choice((UpdateBox, UpdateDiamond))(u, f)
        else:
            f = rng.choice((And, Or, Implies, Iff))(f, random_leaf(rng, props))
    return f


_WEIRD_NAMES = ("p", "q", "p1", "x_y", "A", "state0", "z")


def random_ast(rng: random.Random, depth: int) -> Formula:
    """Arbitrary syntax tree for print/parse round trips."""
    if depth <= 0:
        r = rng.random()
        if r < 0.6:
            return Atom(rng.choice(_WEIRD_NAMES))
        return TOP if r < 0.8 else BOT
    r = rng.random()
    sub = lambda: random_ast(rng, depth - 1)
    agent = rng.choice(("a", "b", "agent_1", "u"))
    if r < 0.1:
        return Atom(rng.choice(_WEIRD_NAMES))
    if r < 0.2:
        return Not(sub())
    if r < 0.3:
        return And(sub(), sub())
    if r < 0.4:
        return Or(sub(), sub())
    if r < 0.5:
        return Implies(sub(), sub())
    if r < 0.58:
        return Iff(sub(), sub())
    if r < 0.68:
        return Box(agent, sub())
    if r < 0.78:
        return Diamond(agent, sub())
    if r < 0.84:
        return ArbBox(sub())
    if r < 0.90:
        return ArbDiamond(sub())
    clauses = tuple(
        Clause(sub(), rng.choice(("a", "b")), sub()) for _ in range(rng.randint(1, 2))
    )
    ctor = UpdateBox if rng.random() < 0.5 else UpdateDiamond
    return ctor(Update(clauses), sub())


# ------------------------------------------------------------ slow oracles

def naive_bisim(m: KripkeModel) -> set[tuple[str, str]]:
    """Greatest fixpoint bisimilarity as a relation on states."""
    rel = {
        (s, t)
        for s in m.states
        for t in m.states
        if all((s in m.valuation[p]) == (t in m.valuation[p]) for p in m.props)
    }
    changed = True
    while changed:
        changed = False
        for s, t in sorted(rel):
            ok = True
            for a in m.agents:
                succ_s = m.successors(a, s)
                succ_t = m.successors(a, t)
                for s2 in succ_s:
                    if not any((s2, t2) in rel for t2 in succ_t):
                        ok = False
                        break
                if ok:
                    for t2 in succ_t:
                        if not any((s2, t2) in rel for s2 in succ_s):
                            ok = False
                            break
                if not ok:
                    break
            if not ok:
                rel.discard((s, t))
                changed = True
    return rel


def naive_apply(m: KripkeModel, update: Update) -> KripkeModel:
    """Arrow filtering done longhand, clause truth judged by naive_eval on m."""
    new_arrows = {}
    for agent in m.agents:
        kept = set()
        for s, t in m.arrows[agent]:
            for c in update.clauses:
                if c.agent == agent and naive_eval(m, s, c.pre) and naive_eval(m, t, c.post):
                    kept.add((s, t))
                    break
        new_arrows[agent] = kept
    return KripkeModel(m.states, m.agents, m.props, new_arrows, m.valuation, m.point)


def naive_eval(m: KripkeModel, w: str, f: Formula) -> bool:
    """Direct recursive semantics for the whole language: [*] and <*> try
    every model of naive_arb_models, with no early exit."""
    if isinstance(f, Atom):
        return w in m.valuation.get(f.name, frozenset())
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Not):
        return not naive_eval(m, w, f.body)
    if isinstance(f, And):
        return naive_eval(m, w, f.left) and naive_eval(m, w, f.right)
    if isinstance(f, Or):
        return naive_eval(m, w, f.left) or naive_eval(m, w, f.right)
    if isinstance(f, Implies):
        return (not naive_eval(m, w, f.left)) or naive_eval(m, w, f.right)
    if isinstance(f, Iff):
        return naive_eval(m, w, f.left) == naive_eval(m, w, f.right)
    if isinstance(f, Box):
        return all(naive_eval(m, v, f.body) for v in m.successors(f.agent, w))
    if isinstance(f, Diamond):
        return any(naive_eval(m, v, f.body) for v in m.successors(f.agent, w))
    if isinstance(f, UpdateBox):
        return naive_eval(naive_apply(m, f.update), w, f.body)
    if isinstance(f, UpdateDiamond):
        return naive_eval(naive_apply(m, f.update), w, f.body)
    if isinstance(f, ArbBox):
        return all([naive_eval(sub, w, f.body) for sub in naive_arb_models(m)])
    if isinstance(f, ArbDiamond):
        return any([naive_eval(sub, w, f.body) for sub in naive_arb_models(m)])
    raise TypeError(f"naive_eval cannot handle {f!r}")


def naive_arb_models(m: KripkeModel):
    """Every model [*] ranges over at m, as validated models: m keeping the
    arrows of some set of groups, an arrow's group being its agent and the
    naive_bisim classes of its source and target."""
    rel = naive_bisim(m)
    cls = {s: frozenset(t for t in m.states if (s, t) in rel) for s in m.states}
    groups: dict = {}
    for a in m.agents:
        for s, t in m.arrows[a]:
            groups.setdefault((a, cls[s], cls[t]), set()).add((s, t))
    for keep in itertools.product((False, True), repeat=len(groups)):
        arrows = {a: set() for a in m.agents}
        for (a, _, _), pairs, k in zip(groups, groups.values(), keep):
            if k:
                arrows[a] |= pairs
        yield KripkeModel(m.states, m.agents, m.props, arrows, m.valuation, m.point)


def naive_canonical(prop_masks, arrow_masks, n: int) -> bool:
    """Is this labelled digraph the lexicographically least among all
    relabellings that keep state 0 (the point) fixed?"""
    me = (prop_masks, arrow_masks)
    for perm in itertools.permutations(range(1, n)):
        mapping = (0, *perm)
        moved_props = tuple(
            sum(((mask >> i) & 1) << mapping[i] for i in range(n)) for mask in prop_masks
        )
        moved_arrows = tuple(
            sum(
                ((mask >> (i * n + j)) & 1) << (mapping[i] * n + mapping[j])
                for i in range(n)
                for j in range(n)
            )
            for mask in arrow_masks
        )
        if (moved_props, moved_arrows) < me:
            return False
    return True


def _naive_sat_search_n(f, n, agents, props, budget):
    states = tuple(f"s{i}" for i in range(n))
    prop_space = itertools.product(range(1 << n), repeat=len(props))
    for prop_masks in prop_space:
        arrow_space = itertools.product(range(1 << (n * n)), repeat=len(agents))
        for arrow_masks in arrow_space:
            if not naive_canonical(prop_masks, arrow_masks, n):
                continue
            arrows = {
                a: {
                    (states[i], states[j])
                    for i in range(n)
                    for j in range(n)
                    if (arrow_masks[ai] >> (i * n + j)) & 1
                }
                for ai, a in enumerate(agents)
            }
            valuation = {
                p: {states[i] for i in range(n) if (prop_masks[pi] >> i) & 1}
                for pi, p in enumerate(props)
            }
            m = KripkeModel(states, agents, props, arrows, valuation, point=states[0])
            if satisfies(m, states[0], f, budget):
                return m
    return None


def naive_sat_search(f: Formula, max_states: int, agents, props, budget=DEFAULT_BUDGET):
    """Reference for `aaul sat-search` (without its --limit): the first
    canonical candidate model, by size and then in the command's candidate
    order, that satisfies f at s0; None if none up to max_states states.
    Raises whatever checking f whole on a candidate raises."""
    for n in range(1, max_states + 1):
        found = _naive_sat_search_n(f, n, agents, props, budget)
        if found is not None:
            return found
    return None


def invoke(argv, stdin_text=""):
    """(exit code, stdout, stderr) of the command line run on argv."""
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()
