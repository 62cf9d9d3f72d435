"""The bounded satisfiability search (`aaul.search`), called as a library
and instrumented in place: what it draws, builds and evaluates, and its
outputs against the reference `naive_sat_search`, which checks f whole on
every canonical candidate."""

import contextlib
import io
import itertools
import random
import sys
import threading

import pytest

from aaul import (
    AaulError,
    And,
    ArbBox,
    ArbDiamond,
    Atom,
    Box,
    Budget,
    Clause,
    Diamond,
    Iff,
    Implies,
    Not,
    Or,
    TOP,
    Update,
    UpdateBox,
    UpdateDiamond,
    UnknownAgentError,
    conj,
    load_model,
    parse_formula,
    print_formula,
    sat_search,
    satisfies,
    save_model,
)
from aaul import search
from aaul.cli import run
from aaul.search import _canonical_candidates
from aaul.syntax import flatten_conj, local_depth, signature, subformulas
from helpers import (
    deep_formula,
    invoke,
    naive_canonical,
    naive_eval,
    naive_sat_search,
    random_leaf,
    random_quantifier_free,
    single_quantifier_formula,
)


@contextlib.contextmanager
def evaluators_built(cache=True):
    """Counts the evaluators sat-search builds, one per candidate it has to
    evaluate, each as the list of (model, formula) pairs it is asked
    about; cache=False turns off deciding a conjunct once per type of
    s0, by giving every conjunct's plan no local depth."""
    built = []
    real, plans = search.core_checker, search._plans

    def counted(budget):
        check, asked = real(budget), []
        built.append(asked)
        return lambda m, f: asked.append((m, f)) or check(m, f)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "core_checker", counted)
        if not cache:
            mp.setattr(search, "_plans", lambda *args: tuple((*p[:2], None, *p[3:]) for p in plans(*args)))
        yield built


def _cache_conjunct(rng, agents, props):
    kind = rng.randrange(5)
    if kind == 0:  # propositional
        return Iff(random_leaf(rng, props), Or(random_leaf(rng, props), random_leaf(rng, props)))
    if kind == 1:  # modal depth 1 to 3
        body = random_quantifier_free(rng, rng.randint(0, 2), props, agents)
        return rng.choice((Box, Diamond))(rng.choice(agents), body)
    if kind == 2:  # an update whose clause formulas look past the state they judge
        clauses = tuple(
            Clause(Diamond(rng.choice(agents), random_leaf(rng, props)), rng.choice(agents),
                   random_quantifier_free(rng, 1, props, agents))
            for _ in range(rng.randint(1, 2))
        )
        body = random_quantifier_free(rng, rng.randint(0, 2), props, agents)
        return rng.choice((UpdateBox, UpdateDiamond))(Update(clauses), body)
    if kind == 3:
        return single_quantifier_formula(rng, props, agents)
    # a chain of modalities with a literal at each step, so that the first
    # model found depends on the arrows two or three steps from s0
    f = random_leaf(rng, props)
    for _ in range(rng.randint(2, 3)):
        f = rng.choice((Box, Diamond, Diamond))(rng.choice(agents), And(random_leaf(rng, props), f))
    return f


def cache_formula(rng, agents, props):
    return conj([_cache_conjunct(rng, agents, props) for _ in range(rng.randint(1, 3))])


def _refusing_conjunct(rng, agents, props):
    """A conjunct that names the agent z, which no search here declares. An
    update whose clause formula is <z>p or [*][z]p refuses wherever an
    arrow needs that formula, and nowhere else; [*]g or <*>g with <z>p or
    [z]p in g refuses wherever it is checked, the model with no arrows
    included."""
    named = rng.choice((Box, Diamond))("z", random_leaf(rng, props))
    if rng.random() < 0.5:
        g = rng.choice((And, Or, Implies))(random_quantifier_free(rng, 1, props, agents), named)
        return rng.choice((ArbBox, ArbDiamond))(g)
    if rng.random() < 0.5:
        named = rng.choice((ArbBox, ArbDiamond))(named)
    leaf = random_leaf(rng, props)
    pre, post = (named, leaf) if rng.random() < 0.5 else (leaf, named)
    body = random_quantifier_free(rng, rng.randint(0, 1), props, agents)
    return rng.choice((UpdateBox, UpdateDiamond))(Update((Clause(pre, rng.choice(agents), post),)), body)


def _with_refusals(rng, f, agents, props, capped):
    """f under the default budget, f under the block cap `capped`, or f
    with a `_refusing_conjunct` added under the default budget, at random:
    the formula and the budget. Over the block cap [*]/<*> are decided
    symbolically, so `capped` refuses only a nested body at a candidate
    that is not separated; the refusals come from the conjunct."""
    pick = rng.randrange(3)
    if pick == 2:
        return conj([*flatten_conj(f), _refusing_conjunct(rng, agents, props)]), Budget()
    return f, (Budget(), capped)[pick]


def _outcome(f, max_states, agents, props, budget):
    """What sat-search does with f: the model found as text, None, or the error."""
    try:
        found = sat_search(f, max_states, agents, props, budget)
    except AaulError as e:
        return e
    return None if found is None else save_model(found)


def test_sat_search_library_entry():
    found = sat_search(parse_formula("<a>p & <a>~p"), 2)
    assert save_model(found) == "states: s0 s1\nagent a: s0->s0 s0->s1\nval p: s0\npoint: s0\n"
    assert sat_search(parse_formula("<a>p & [a]~p"), 2) is None
    # None stands for the formula's own names, and an empty tuple for none
    assert save_model(sat_search(parse_formula("p"), 1, agents=("a",))) == (
        "states: s0\nagent a:\nval p: s0\npoint: s0\n"
    )
    assert sat_search(parse_formula("p"), 1, agents=()).agents == ()
    assert sat_search(parse_formula("p | ~p"), 1, props=()).props == ()
    with pytest.raises(UnknownAgentError, match="unknown agent 'a'"):
        sat_search(parse_formula("<a>p"), 1, agents=())
    with pytest.raises(AaulError, match="over limit 100"):
        sat_search(parse_formula("<a>p & [a]~p"), 3, limit=100)
    with pytest.raises(AaulError, match="max_states must be at least 1"):
        sat_search(parse_formula("p"), 0)
    # a repeated or bad name is refused as the package's error, in the
    # model constructor's words
    with pytest.raises(AaulError, match="duplicate agent name 'a'"):
        sat_search(parse_formula("p"), 2, agents=("a", "a"))
    with pytest.raises(AaulError, match="bad proposition name 'p q'"):
        sat_search(parse_formula("p"), 1, props=("p q",))


def test_sat_search_skips_candidates_s0_does_not_reach():
    # the z clause is needed only by an a-arrow out of a ~p state. Every
    # candidate whose a-arrows reach such a state fails a conjunct first,
    # or is one s0 does not reach all of, which is skipped outright
    f = "<{(~p,a,p & true),(<z>p,a,<z>~p)}><a>~(~p & p) & <{(~~~~false,a,true)}><a>~p & <a><a>true"
    out, err = io.StringIO(), io.StringIO()
    code = run(["sat-search", f, "--agents", "a", "--props", "p", "--max-states", "3"], stdout=out, stderr=err)
    assert (code, out.getvalue(), err.getvalue()) == (1, "none up to 3 states\n", "")
    # the answer is right: that conjunct alone is unsatisfiable
    conjunct = parse_formula("<{(~~~~false,a,true)}><a>~p")
    assert naive_sat_search(conjunct, 3, ("a",), ("p",)) is None


def _arrow_tuples_drawn(f: str, n: int) -> tuple:
    """(what sat-search finds at n states, the number of arrow tuples it
    draws from the enumeration there)."""
    drawn = []
    real = search._canonical_candidates

    def counted(*args):
        for prop_masks, arrow_tuples in real(*args):
            yield prop_masks, lambda trie=None, tuples=arrow_tuples: (
                drawn.append(masks) or masks for masks in tuples(trie)
            )

    f = parse_formula(f)
    atoms, agents = signature(f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_canonical_candidates", counted)
        found = search._sat_search_n(flatten_conj(f), n, tuple(sorted(agents)), tuple(sorted(atoms)), Budget())
    return found, len(drawn)


def test_sat_search_draws_only_arrow_tuples_whose_rows_pass():
    # every row of s0 fails [a]~q or, where that holds, the update's <a>q:
    # no arrow tuple is drawn (16,640 canonical ones without the trie)
    assert _arrow_tuples_drawn("<{(p,a,q)}><a>q & [a]~q", 3) == (None, 0)
    # nothing is drawn before the valuation found, where only the row of s0
    # to all three states passes: the one tuple drawn is the model (10,888
    # drawn without the trie)
    found, drawn = _arrow_tuples_drawn("<a>(p & q) & <a>(p & ~q) & <a>(~p & q)", 3)
    assert drawn == 1
    assert save_model(found) == (
        "states: s0 s1 s2\nagent a: s0->s0 s0->s1 s0->s2\nval p: s0 s1\nval q: s0 s2\npoint: s0\n"
    )


def test_sat_search_cache_changes_no_decision_at_one_size():
    """Each quantifier-free conjunct decided once per key (its top atoms
    true at s0 and its successors' types) gives the decisions of checking
    it on every candidate, at one size of 2 or 3 states, and under small
    budgets: where the uncached search decides, the cached one returns the
    same model; every refusal is kept, unless a cached verdict stands in
    for an update. Refusals come from the block cap and from clause
    formulas that name an undeclared agent."""
    rng = random.Random(13)
    refused = decided = 0
    for _ in range(80):
        agents, props, n = rng.choice(
            ((("a", "b"), ("p",), 2), (("a",), ("p", "q"), 2), (("a",), ("p",), 3), (("a",), ("p", "q"), 3))
        )
        f, budget = _with_refusals(rng, cache_formula(rng, agents, props), agents, props, Budget(max_arrow_blocks=2))
        outcomes = []
        for cache in (True, False):
            with evaluators_built(cache):
                try:
                    found = search._sat_search_n(flatten_conj(f), n, agents, props, budget)
                    outcomes.append(None if found is None else save_model(found))
                except AaulError as e:
                    outcomes.append(e)
        cached, uncached = outcomes
        if not isinstance(uncached, AaulError):
            decided += 1
            assert cached == uncached, print_formula(f)
        else:
            refused += 1
            updates = any(isinstance(g, (UpdateBox, UpdateDiamond)) for g in subformulas(f))
            if isinstance(cached, AaulError) or not updates:
                assert str(cached) == str(uncached), print_formula(f)
    assert refused >= 10 and decided >= 50


def test_sat_search_decides_clauses_nested_past_64_levels():
    """An update whose clause formula is nested 50 to 90 levels deep,
    beside another conjunct. Nesting is not budgeted, so every search
    decides, with the reference's output, wherever an arrow needs the
    clause or not."""
    rng = random.Random(20261020)
    deep = found = refuted = 0
    for _ in range(60):
        agents, props, max_states = rng.choice(((("a",), ("p",), 2), (("a", "b"), ("p",), 2), (("a",), ("p", "q"), 2)))
        levels = rng.randint(50, 90)
        nested, leaf = deep_formula(rng, levels, props, agents), random_leaf(rng, props)
        clause = Clause(*((nested, rng.choice(agents), leaf) if rng.random() < 0.5 else (leaf, rng.choice(agents), nested)))
        body = random_quantifier_free(rng, rng.randint(0, 1), props, agents)
        update = rng.choice((UpdateBox, UpdateDiamond))(Update((clause,)), body)
        f = conj([_cache_conjunct(rng, agents, props), update])
        expected = naive_sat_search(f, max_states, agents, props)
        assert _outcome(f, max_states, agents, props, Budget()) == (
            None if expected is None else save_model(expected)
        ), print_formula(f)
        deep += levels > 66
        found += expected is not None
        refuted += expected is None
    assert deep >= 30 and found >= 25 and refuted >= 15


def _generated(arrow_masks, n: int) -> bool:
    """Is every state of the candidate reachable from state 0?"""
    seen, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for mask in arrow_masks:
            for j in range(n):
                if mask >> (i * n + j) & 1 and j not in seen:
                    seen.add(j)
                    todo.append(j)
    return len(seen) == n


def _masks(m, agents, props):
    """The candidate masks of a model over states s0..s{n-1}."""
    n = len(m.states)
    index = {s: i for i, s in enumerate(m.states)}
    return (
        tuple(sum(1 << index[s] for s in m.valuation[p]) for p in props),
        tuple(sum(1 << (index[s] * n + index[t]) for s, t in m.arrows[a]) for a in agents),
    )


def test_sat_search_builds_only_point_generated_models():
    # "<a>p & [a]~p" is unsatisfiable, so each size is searched in full, and
    # uncached each candidate checked gets an evaluator of its own: they are
    # exactly the canonical candidates whose every state s0 reaches, in order
    f = parse_formula("<a>p & [a]~p")
    for agents, props, n in ((("a",), ("p",), 3), (("a", "b"), ("p",), 2), (("a",), ("p", "q"), 3)):
        with evaluators_built(cache=False) as built:
            assert search._sat_search_n(flatten_conj(f), n, agents, props, Budget()) is None
        assert all(len({m for m, _ in asked}) == 1 for asked in built)
        canonical = [
            (prop_masks, arrow_masks)
            for prop_masks, arrow_tuples in search._canonical_candidates(n, len(props), len(agents))
            for arrow_masks in arrow_tuples()
        ]
        expected = [c for c in canonical if _generated(c[1], n)]
        assert [_masks(asked[0][0], agents, props) for asked in built] == expected
        assert len(expected) < len(canonical)
    # cached, with update and [*]/<*> conjuncts and small budgets: every
    # candidate built is one s0 generates, whatever its conjuncts. The
    # models that settle a conjunct before the candidates (`_settled`) hold
    # only arrows out of s0, are asked only about a conjunct of local depth
    # at most 1 or, without arrows, a top-level [*]/<*>, and are never
    # returned
    rng = random.Random(211)
    checked = probed = 0
    real = search._settled
    for _ in range(40):
        agents, props, n = rng.choice(((("a",), ("p",), 3), (("a", "b"), ("p",), 2)))
        f = cache_formula(rng, agents, props)
        conjuncts = flatten_conj(f)
        budget = rng.choice((Budget(), Budget(max_arrow_blocks=2)))
        probes = []
        with evaluators_built() as built, pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_settled", lambda check, m, c: probes.append((m, c)) or real(check, m, c))
            try:
                found = search._sat_search_n(conjuncts, n, agents, props, budget)
            except AaulError:
                found = None
        assert found is None or _generated(_masks(found, agents, props)[1], n)
        assert all(m is not found for m, _ in probes)
        for m, c in probes:
            assert c in conjuncts and all(s == "s0" for a in agents for s, _ in m.arrows[a])
            if local_depth(c) is None:
                assert isinstance(c, (ArbBox, ArbDiamond)) and not any(m.arrows.values())
            else:
                assert local_depth(c) <= 1
            probed += 1
        probe_models = {id(m) for m, _ in probes}
        candidates = {id(m): m for asked in built for m, _ in asked if id(m) not in probe_models}
        assert all(_generated(_masks(m, agents, props)[1], n) for m in candidates.values())
        checked += len(candidates)
    assert checked >= 100 and probed >= 100


def _settling_conjunct(rng, agents, props):
    """A conjunct of a kind that sat-search may settle before looking at a
    candidate's arrows, or one it may not."""
    leaf = lambda: random_leaf(rng, props)
    kind = rng.randrange(7)
    if kind == 0:  # propositional
        return rng.choice((Iff, Or, And))(leaf(), leaf())
    if kind == 1:  # modal depth 1
        return rng.choice((Box, Diamond))(rng.choice(agents), rng.choice((Or, And))(leaf(), leaf()))
    if kind in (2, 3):  # an update of depth 0 (body on s0 alone) or 1
        deep = Not(Not(Not(Not(leaf())))) if rng.random() < 0.3 else leaf()
        clauses = tuple(
            Clause(rng.choice((leaf(), deep)), rng.choice(agents), rng.choice((leaf(), deep)))
            for _ in range(rng.randint(1, 2))
        )
        body = leaf() if kind == 2 else rng.choice((Box, Diamond))(rng.choice(agents), leaf())
        return rng.choice((UpdateBox, UpdateDiamond))(Update(clauses), body)
    if kind == 4:  # top-level [*]g / <*>g
        body = random_quantifier_free(rng, rng.randint(0, 2), props, agents)
        return rng.choice((ArbBox, ArbDiamond))(body)
    if kind == 5:  # one [*]/<*>, mostly below a connective or a modality
        return single_quantifier_formula(rng, props, agents)
    # up to depth 2: one of depth 2 is checked on the candidates
    return random_quantifier_free(rng, 2, props, agents)


def test_sat_search_settling_changes_no_decision():
    """Against the same search with no conjunct settled before the
    candidates (every `_settled` check refused, so every conjunct goes the
    way it went before), and against the reference, which checks f whole
    on every canonical candidate: where the unsettled search decides, the
    same output; a refusal only where it refuses."""
    rng = random.Random(20261019)
    decided = answered = refused = naive_checked = 0
    real, settles = search._settled, []

    def counted(check, m, c):
        settles.append(real(check, m, c))
        return settles[-1]

    for _ in range(250):
        agents, props, max_states = rng.choice(
            ((("a",), ("p",), 3), (("a", "b"), ("p",), 2), (("a",), ("p", "q"), 2), (("a",), ("p",), 2))
        )
        f = conj([_settling_conjunct(rng, agents, props) for _ in range(rng.randint(1, 4))])
        f, budget = _with_refusals(rng, f, agents, props, Budget(max_arrow_blocks=rng.randint(1, 3)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_settled", counted)
            settled = _outcome(f, max_states, agents, props, budget)
            mp.setattr(search, "_settled", lambda check, m, c: None)
            unsettled = _outcome(f, max_states, agents, props, budget)
        if not isinstance(unsettled, AaulError):
            assert settled == unsettled, print_formula(f)
            decided += 1
        elif not isinstance(settled, AaulError):
            answered += 1
        else:
            refused += 1
        if max_states < 3:
            try:
                found = naive_sat_search(f, max_states, agents, props, budget)
            except AaulError:
                if isinstance(settled, str):
                    m = load_model(settled)
                    assert naive_eval(m, m.point, f), print_formula(f)
                continue
            assert settled == (None if found is None else save_model(found)), print_formula(f)
            naive_checked += 1
    assert decided >= 200 and answered >= 3 and refused >= 10 and naive_checked >= 60
    # checks that settled a conjunct true, false, and that refused
    assert min(settles.count(True), settles.count(False), settles.count(None)) >= 10


def _undeclared_conjunct(rng, agents, props):
    """A conjunct of up to depth 2 whose update's clause formulas may name
    the agent z, which no search here declares, in a modality or in a
    [*]/<*> body."""
    if rng.random() < 0.3:
        return random_quantifier_free(rng, 2, props, agents)

    def clause_formula():
        r = rng.random()
        if r < 0.45:
            named = rng.choice((Box, Diamond))("z", random_leaf(rng, props))
            return named if r < 0.3 else rng.choice((ArbBox, ArbDiamond))(named)
        return random_quantifier_free(rng, 1, props, agents)

    clauses = tuple(
        Clause(clause_formula(), rng.choice(agents), clause_formula()) for _ in range(rng.randint(1, 2))
    )
    body = random_quantifier_free(rng, rng.randint(0, 2), props, agents)
    return rng.choice((UpdateBox, UpdateDiamond))(Update(clauses), body)


def test_sat_search_undeclared_agent_matches_naive_reference():
    """Clause formulas that name an undeclared agent refuse wherever an
    arrow needs them. Where the reference decides, the search gives its
    output; where it refuses, the search refuses too, or returns a model
    that satisfies f as it is, with no agent added: the search checks f
    whole on the model it returns."""
    rng = random.Random(20261102)
    decided = answered = refused = 0
    for _ in range(300):
        agents, props, max_states = rng.choice(((("a",), ("p",), 3), (("a", "b"), ("p",), 2), (("a",), ("p", "q"), 2)))
        f = conj([_undeclared_conjunct(rng, agents, props) for _ in range(rng.randint(1, 3))])
        outcome = _outcome(f, max_states, agents, props, Budget())
        try:
            found = naive_sat_search(f, max_states, agents, props)
        except AaulError:
            if isinstance(outcome, str):
                m = load_model(outcome)
                assert satisfies(m, m.point, f) and naive_eval(m, m.point, f), print_formula(f)
                answered += 1
            else:
                refused += isinstance(outcome, AaulError)
            continue
        assert outcome == (None if found is None else save_model(found)), print_formula(f)
        decided += 1
    assert decided >= 40 and answered >= 13 and refused >= 20


@pytest.mark.parametrize("n,props,agents", [(2, 2, 2), (3, 2, 1), (3, 0, 2), (4, 1, 1)])
def test_sat_search_candidates_are_exactly_the_canonical_ones(n, props, agents):
    kept = [
        (prop_masks, arrow_masks)
        for prop_masks, arrow_tuples in _canonical_candidates(n, props, agents)
        for arrow_masks in arrow_tuples()
    ]
    assert kept == sorted(kept)
    kept = set(kept)
    rng = random.Random(n * 100 + props * 10 + agents)
    for _ in range(3000):
        prop_masks = tuple(rng.randrange(1 << n) for _ in range(props))
        arrow_masks = tuple(rng.randrange(1 << (n * n)) for _ in range(agents))
        assert ((prop_masks, arrow_masks) in kept) == naive_canonical(prop_masks, arrow_masks, n)


def _trie(row_tuples) -> dict:
    """The trie of row tuples, one level per agent, keys ascending."""
    trie = {}
    for rows in sorted(row_tuples):
        node = trie
        for r in rows:
            node = node.setdefault(r, {})
    return trie


@pytest.mark.parametrize("n,props,agents", [(2, 2, 2), (3, 2, 1), (3, 0, 2), (4, 1, 1), (3, 1, 0)])
def test_sat_search_trie_keeps_exactly_the_candidates_whose_rows_it_holds(n, props, agents):
    rng = random.Random(n * 100 + props * 10 + agents + 1)
    every = list(itertools.product(range(1 << n), repeat=agents))
    kept_rows = [{rows for rows in every if rng.random() < 0.5}]
    if agents == 2:  # no tuple starts with most first rows
        firsts = set(rng.sample(range(1 << n), 2))
        kept_rows.append({rows for rows in every if rows[0] in firsts})
    if agents == 0:  # the trie of the empty tuple has no level
        kept_rows = [{()}]
    full = (1 << n) - 1
    for kept in kept_rows:
        trie = _trie(kept)
        for prop_masks, arrow_tuples in _canonical_candidates(n, props, agents):
            expected = [masks for masks in arrow_tuples() if tuple(m & full for m in masks) in kept]
            assert list(arrow_tuples(trie)) == expected, (prop_masks, kept)


def test_sat_search_cache_changes_no_decision():
    """Each quantifier-free conjunct decided once per key (its top atoms
    true at s0 and its successors' types) gives the decisions of checking
    it on every candidate."""
    rng = random.Random(20261019)
    shapes = (
        (("a", "b"), ("p",), 2), (("a",), ("p", "q"), 3), (("a", "b"), ("p", "q"), 1), (("a",), ("p",), 3),
    )
    saved = naive_checked = 0
    for _ in range(60):
        agents, props, max_states = rng.choice(shapes)
        f = cache_formula(rng, agents, props)
        argv = [
            "sat-search", print_formula(f), "--max-states", str(max_states),
            "--agents", ",".join(agents), "--props", ",".join(props),
        ]
        budget = Budget()
        if rng.random() < 0.3:
            budget = Budget(max_arrow_blocks=rng.randint(1, 3))
            argv += ["--max-blocks", str(budget.max_arrow_blocks)]
        with evaluators_built() as cached_built:
            cached = invoke(argv)
        with evaluators_built(cache=False) as uncached_built:
            uncached = invoke(argv)
        if uncached[0] != 2:
            assert cached == uncached, argv
        saved += len(uncached_built) - len(cached_built)
        if uncached[0] != 2 and max_states < 3:
            try:  # checking f whole, the reference may refuse where a conjunct rejects first
                found = naive_sat_search(f, max_states, agents, props, budget)
            except AaulError:
                continue
            assert (found is not None) == (uncached[0] == 0), argv
            naive_checked += 1
    assert saved >= 10000 and naive_checked >= 10


def _edge_conjunct(rng, agents, props, depth: int, atom: str):
    """A conjunct of local depth `depth` that reads `atom` at distance
    exactly `depth` from s0: a chain of modalities with a literal or `true`
    at each step or, at depth 2, an update whose clause formulas look one
    step, over a chain of one."""
    literal = lambda: rng.choice((TOP, Atom(rng.choice(props)), Not(Atom(rng.choice(props)))))
    if depth == 2 and rng.random() < 0.4:
        look = lambda: rng.choice((Box, Diamond))(rng.choice(agents), literal())
        clauses = tuple(
            Clause(look(), rng.choice(agents), rng.choice((look(), literal()))) for _ in range(rng.randint(1, 2))
        )
        body = _edge_conjunct(rng, agents, props, 1, atom)
        return rng.choice((UpdateBox, UpdateDiamond))(Update(clauses), body)
    f = rng.choice((Atom(atom), Not(Atom(atom))))
    for _ in range(depth):
        f = rng.choice((Box, Diamond, Diamond))(rng.choice(agents), And(literal(), f))
    return f


def test_sat_search_shares_views_across_valuations():
    """A conjunct of local depth d decided once per key (its top atoms true
    at s0 and its successors' (d-1)-types, which the states within
    distance d fix), across every valuation: against the same search
    deciding every conjunct on every candidate, and against the reference,
    which checks f whole. Each formula has a conjunct that reads an atom at
    distance exactly d (the edge of what its key reads) and one that reads
    another atom one step further."""
    rng = random.Random(20261020)
    shapes = ((("a",), ("p", "q"), 2), (("a", "b"), ("p", "q"), 2), (("a",), ("p", "q"), 3), (("a",), ("p",), 3))
    found = refuted = naive_checked = 0
    checks = {True: 0, False: 0}  # kernel checks, with and without shared verdicts
    for _ in range(40):
        agents, props, max_states = rng.choice(shapes)
        d = rng.choice((1, 2))
        near, far = rng.sample(props, 2) if len(props) == 2 else props * 2
        # a literal at s0 on the near atom: where the chain needs the other
        # one at distance d, s0 cannot be its own successor
        parts = [
            _edge_conjunct(rng, agents, props, d, near),
            _edge_conjunct(rng, agents, props, d + 1, far),
            rng.choice((Atom(near), Not(Atom(near)))),
        ]
        f = conj(rng.sample(parts, len(parts)))
        with evaluators_built() as cached_built:
            shared = _outcome(f, max_states, agents, props, Budget())
        with evaluators_built(cache=False) as uncached_built:
            assert shared == _outcome(f, max_states, agents, props, Budget()), print_formula(f)
        checks[True] += sum(map(len, cached_built))
        checks[False] += sum(map(len, uncached_built))
        found += isinstance(shared, str)
        refuted += shared is None
        if max_states == 2 or len(props) == 1:
            expected = naive_sat_search(f, max_states, agents, props)
            assert shared == (None if expected is None else save_model(expected)), print_formula(f)
            naive_checked += 1
    assert found >= 20 and refuted >= 10 and naive_checked >= 25
    assert checks[True] * 3 < checks[False]


def _typed_conjunct(rng, agents, props, depth: int):
    """A conjunct of local depth `depth`: an atom at s0 joined by &, | or
    <-> to a chain of modalities with a literal or `true` at each step or,
    a step shorter, an update whose clause formulas look one step."""
    literal = lambda: rng.choice((TOP, Atom(rng.choice(props)), Not(Atom(rng.choice(props)))))
    chain = lambda k: _edge_conjunct(rng, agents, props, k, rng.choice(props)) if k else literal()
    if rng.random() < 0.4:
        look = lambda: rng.choice((Box, Diamond))(rng.choice(agents), literal())
        clauses = tuple(
            Clause(look(), rng.choice(agents), rng.choice((look(), literal()))) for _ in range(rng.randint(1, 2))
        )
        deep = rng.choice((UpdateBox, UpdateDiamond))(Update(clauses), chain(depth - 1))
    else:
        deep = chain(depth)
    return rng.choice((And, Or, Iff))(Atom(rng.choice(props)), deep)


def _bisim_type(m, s, k: int, agents, atoms):
    """s's type_k in m over `agents` and `atoms`, built from the model as
    it is: its atoms, and per agent the set of its successors' type_{k-1}."""
    here = frozenset(p for p in atoms if s in m.valuation[p])
    if k == 0:
        return here
    return here, tuple(
        frozenset(_bisim_type(m, t, k - 1, agents, atoms) for u, t in m.arrows[a] if u == s) for a in agents
    )


def test_sat_search_types_match_naive_reference():
    """Verdicts keyed by s0's type, shared by every valuation of every size,
    against the same search deciding every conjunct on every candidate and
    against the reference, which checks f whole, at 1 to 3 states, with
    conjuncts of local depth 2 and 3 that read s0's atoms too. Each
    conjunct is checked at most once per type of s0 (computed here from the
    models checked), so candidates that differ only in which successor
    carries which atoms, in two successors with the same atoms, or in s0
    being its own successor, share one verdict."""
    rng = random.Random(20261103)
    shapes = ((("a",), ("p",), 3), (("a",), ("p", "q"), 2), (("a", "b"), ("p",), 2), (("a",), ("p", "q"), 1))
    found = refuted = 0
    checks = {True: 0, False: 0}  # kernel checks, with and without shared verdicts
    for _ in range(45):
        agents, props, max_states = rng.choice(shapes)
        parts = [_typed_conjunct(rng, agents, props, d) for d in rng.sample((2, 3), rng.randint(1, 2))]
        parts += [_cache_conjunct(rng, agents, props) for _ in range(rng.randint(0, 1))]
        f = conj(rng.sample(parts, len(parts)))
        with evaluators_built() as built:
            shared = _outcome(f, max_states, agents, props, Budget())
        with evaluators_built(cache=False) as uncached:
            assert shared == _outcome(f, max_states, agents, props, Budget()), print_formula(f)
        expected = naive_sat_search(f, max_states, agents, props)
        assert shared == (None if expected is None else save_model(expected)), print_formula(f)
        found += isinstance(shared, str)
        refuted += shared is None
        if isinstance(shared, str):
            built.pop()  # the check of f whole on the model found
        typed = set()
        for m, c in (pair for asked in built for pair in asked):
            d = local_depth(c)
            if d is not None:
                atoms, names = signature(c)
                key = c, _bisim_type(m, m.point, d, [a for a in agents if a in names], atoms)
                assert key not in typed, print_formula(f)
                typed.add(key)
        checks[True] += sum(map(len, built))
        checks[False] += sum(map(len, uncached))
    assert found >= 20 and refuted >= 10
    assert checks[True] * 3 < checks[False]


def _top_conjunct(rng, agents, props):
    """A conjunct that reads an atom at s0 beside a modality: a literal and
    a modality joined by ->, | or <->, either way round, or an update whose
    clause pre is a literal, judged at s0, over a modal body."""
    literal = lambda: rng.choice((Atom(rng.choice(props)), Not(Atom(rng.choice(props)))))
    modal = lambda: rng.choice((Box, Diamond))(
        rng.choice(agents), rng.choice((literal(), random_quantifier_free(rng, 1, props, agents)))
    )
    if rng.random() < 0.6:
        parts = [literal(), modal()]
        rng.shuffle(parts)
        return rng.choice((Implies, Or, Iff))(*parts)
    clauses = tuple(
        Clause(literal(), rng.choice(agents), rng.choice((TOP, literal()))) for _ in range(rng.randint(1, 2))
    )
    return rng.choice((UpdateBox, UpdateDiamond))(Update(clauses), modal())


def _top_atoms(f) -> frozenset:
    """The atoms f reads at the state it is judged at, walked from the top:
    those outside every [a]/<a>, or all f's atoms when an update or a
    [*]/<*> is outside every [a]/<a>."""
    todo, top = [f], set()
    while todo:
        g = todo.pop()
        if isinstance(g, (UpdateBox, UpdateDiamond, ArbBox, ArbDiamond)):
            return signature(f)[0]
        if isinstance(g, Atom):
            top.add(g.name)
        elif not isinstance(g, (Box, Diamond)):
            todo += [getattr(g, part) for part in ("left", "right", "body") if hasattr(g, part)]
    return frozenset(top)


def test_sat_search_plans_walk_each_conjunct_once():
    """One walk per conjunct gives its group, its local depth, the agents
    and atoms it mentions and its top atoms, as `local_depth`, `signature`
    and a walk from the top give them."""
    rng = random.Random(20261104)
    agents, props = ("a", "b"), ("p", "q")
    real = search.subformulas
    for _ in range(200):
        conjuncts = [
            rng.choice((_cache_conjunct, _top_conjunct, _settling_conjunct))(rng, agents, props)
            for _ in range(rng.randint(1, 4))
        ]
        walked = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "subformulas", lambda f: walked.append(f) or real(f))
            plans = search._plans(conjuncts, agents, props)
        assert walked == conjuncts
        updates = lambda c: any(isinstance(g, (UpdateBox, UpdateDiamond)) for g in subformulas(c))
        group = lambda c: 2 if local_depth(c) is None else int(updates(c))
        assert [plan[1] for plan in plans] == sorted(conjuncts, key=group)
        for i, (index, c, depth, read, atoms, top) in enumerate(plans):
            names, agents_c = signature(c)
            mask = lambda chosen: sum(1 << k for k, p in enumerate(props) if p in chosen)
            assert (index, depth) == (i, local_depth(c)), print_formula(c)
            assert read == tuple(j for j, a in enumerate(agents) if a in agents_c), print_formula(c)
            assert (atoms, top) == (mask(names), mask(_top_atoms(c))), print_formula(c)


def test_sat_search_top_atoms_match_naive_reference():
    """A conjunct of local depth d >= 1 keyed by only its top atoms true at
    s0 and its successors' types, so valuations that differ only in atoms
    it does not read at s0 share a verdict: against the same search
    deciding every conjunct on every candidate and against the reference,
    which checks f whole, at 1 to 3 states. Each formula has a conjunct
    that reads an atom at s0 beside a modality (under ->, | or <->, or in
    an update's clause pre) and one that reads none there."""
    rng = random.Random(20261105)
    shapes = ((("a",), ("p",), 3), (("a",), ("p", "q"), 2), (("a", "b"), ("p",), 2), (("a",), ("p", "q"), 1))
    found = refuted = 0
    checks = {True: 0, False: 0}  # kernel checks, with and without shared verdicts
    for _ in range(60):
        agents, props, max_states = rng.choice(shapes)
        parts = [_top_conjunct(rng, agents, props) for _ in range(rng.randint(1, 2))]
        parts.append(_edge_conjunct(rng, agents, props, rng.choice((1, 2)), rng.choice(props)))
        f = conj(rng.sample(parts, len(parts)))
        with evaluators_built() as built:
            shared = _outcome(f, max_states, agents, props, Budget())
        with evaluators_built(cache=False) as uncached:
            assert shared == _outcome(f, max_states, agents, props, Budget()), print_formula(f)
        expected = naive_sat_search(f, max_states, agents, props)
        assert shared == (None if expected is None else save_model(expected)), print_formula(f)
        found += isinstance(shared, str)
        refuted += shared is None
        checks[True] += sum(map(len, built))
        checks[False] += sum(map(len, uncached))
    assert found >= 20 and refuted >= 10
    assert checks[True] * 3 < checks[False]
    # a rule that left s0's atoms out of these keys would share the verdict
    # of p -> [a]~p, or of the update, between the valuations with p at s0
    # and without it, and answer none
    for text in ("(p -> [a]~p) & <a>p", "<{(p,a,true)}>[a]false & <a>p"):
        assert save_model(sat_search(parse_formula(text), 2)) == (
            "states: s0 s1\nagent a: s0->s1\nval p: s1\npoint: s0\n"
        ), text


def test_sat_search_types_do_not_collide_across_sizes():
    # both conjuncts have local depth 2, and one verdict dict serves every
    # size. A positional key would collide: the arrow mask of s0->s1 and
    # s1->s0 at two states is that of s0->s1 and s0->s2 at three, and the
    # two-state verdict would reject the three-state model. Types name no
    # state: s0's successor has a successor at two states, and neither of
    # its successors has one at three
    f = parse_formula("<a>(p & [a]false) & <a>(~p & [a]false)")
    assert sat_search(f, 2) is None and naive_sat_search(f, 2, ("a",), ("p",)) is None
    expected = "states: s0 s1 s2\nagent a: s0->s1 s0->s2\nval p: s1\npoint: s0\n"
    assert save_model(sat_search(f, 3)) == save_model(naive_sat_search(f, 3, ("a",), ("p",))) == expected


def test_sat_search_kernel_checks_pinned():
    # every row of s0 fails [a]~q or the update's <a>q at three states; each
    # conjunct is checked once per key: [a]~q's reads no atom at s0, only
    # the set of atoms where s0's a-arrows lead, whatever the valuation and
    # whichever successor carries which atoms; the update's pre is judged
    # at s0, so its key holds s0's atoms too
    f = parse_formula("<{(p,a,q)}><a>q & [a]~q")
    with evaluators_built() as built:
        assert search._sat_search_n(flatten_conj(f), 3, ("a",), ("p", "q"), Budget()) is None
    assert sum(map(len, built)) == 20
    # the benchmark's found3_plain, sizes 1 to 3 and the check of the model
    # found: no conjunct reads an atom at s0, so valuations that differ only
    # there share every verdict (75 checks when s0's atoms were in every key)
    with evaluators_built() as built:
        assert sat_search(parse_formula("<a>(p & q) & <a>(p & ~q) & <a>(~p & q)"), 3) is not None
    assert sum(map(len, built)) == 26
    # the other three templates, with the two above 102 checks per pass: a
    # shared verdict lost, or a probe no longer settling, shows here
    for text, found, checks in (
        ("<a>p & [a]q & [*]<a>true", False, 1),
        ("<a>(p & q) & <a>(p & ~q) & <a>(~p & q) & [a]<*>[a]false", True, 27),
        ("<a>(p & <a>q) & [a]~q & <*>[a][a]false", True, 28),
    ):
        with evaluators_built() as built:
            assert (sat_search(parse_formula(text), 3) is not None) == found, text
        assert sum(map(len, built)) == checks, text


def test_sat_search_skips_dead_type_profiles():
    # a valuation whose row trie comes out empty keeps its profile: its atoms
    # at s0 that conjuncts of depth 1 read there, and the set of type_0 over
    # their atoms that its states show. A later valuation of any size with
    # that profile shows only row keys already judged false, and is skipped
    # without a trie (46, 60 and 46 tries when every valuation built one)
    model = "states: s0 s1 s2\nagent a: s0->s0 s0->s1 s0->s2\nval p: s0 s1\nval q: s0 s2\npoint: s0\n"
    real = search._row_trie
    for text, tries, printed in (
        ("<a>(p & q) & <a>(p & ~q) & <a>(~p & q)", 14, (0, model, "")),
        ("<{(p,a,q)}><a>q & [a]~q", 28, (1, "none up to 3 states\n", "")),
        ("<a>(p & q) & <a>(p & ~q) & <a>(~p & q) & [a]<*>[a]false", 14, (0, model, "")),
    ):
        levels = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_row_trie", lambda level, *args: levels.append(level) or real(level, *args))
            assert invoke(["sat-search", text, "--max-states", "3"]) == printed, text
        assert levels.count(0) == tries, text


def _literal(rng, props):
    p = Atom(rng.choice(props))
    return p if rng.random() < 0.5 else Not(p)


def _profile_conjunct(rng, agents, props):
    """A conjunct of local depth 1, a modality over one or two atoms, alone
    or joined to a literal at s0; or of local depth 0, a literal, or an
    update whose clause, four negations deep, is judged only where an arrow
    needs it."""
    kind = rng.randrange(7)
    if kind == 0:
        return _literal(rng, props)
    if kind == 1:
        clause = Clause(Not(Not(Not(Not(_literal(rng, props))))), rng.choice(agents), TOP)
        return rng.choice((UpdateBox, UpdateDiamond))(Update((clause,)), _literal(rng, props))
    body = rng.choice((_literal(rng, props), rng.choice((And, Or))(_literal(rng, props), _literal(rng, props))))
    modal = rng.choice((Box, Diamond, Diamond))(rng.choice(agents), body)
    if kind <= 3:
        return modal
    parts = [_literal(rng, props), modal]
    rng.shuffle(parts)
    return rng.choice((Implies, Or, Iff))(*parts)


def test_sat_search_dead_profiles_match_naive_reference():
    """Arrowless outcomes kept per atoms of s0, and valuations skipped by a
    dead profile (`_sat_search_n`, "Profiles"), over three atoms: against
    the same search deciding every conjunct on every candidate, and against
    the reference, which checks f whole, at up to 2 states. Each formula
    has two <a> conjuncts that need different successors, so most answers
    take 2 or 3 states, and conjuncts of depth 1 that read 1-2 atoms past
    s0 and some at s0. A valuation skipped by a profile that left out s0's
    atoms answers wrongly here. Half the formulas get a conjunct that
    names the undeclared agent z (`_refusing_conjunct`). In the others,
    `_settled` also refuses the first conjunct of depth 0 on every model
    with no arrows, as a real refusal there would, since it reads the
    formula alone: the arrowless outcome is kept per atoms of s0 with that
    conjunct left to the candidates, which are asked it, and no pair of
    atoms of s0 and conjunct gets a second arrowless probe."""
    rng = random.Random(20261106)
    agents, props = ("a",), ("p", "q", "r")
    found = refuted = refused = naive_checked = asked = 0
    real = search._settled
    for _ in range(90):
        max_states = rng.choice((1, 2, 2, 3, 3))
        x = rng.choice(props)
        others = [p for p in props if p != x]
        parts = [Diamond("a", And(Atom(x), _literal(rng, others))), Diamond("a", And(Not(Atom(x)), _literal(rng, others)))]
        parts += [_profile_conjunct(rng, agents, props) for _ in range(rng.randint(1, 3))]
        undeclared = rng.random() < 0.5
        if undeclared:
            # the uncached search then tries every candidate that a refusal
            # never reaches: seconds each at 3 states
            max_states = min(max_states, 2)
            parts.append(_refusing_conjunct(rng, agents, props))
        f = conj(parts)
        budget = Budget()
        shared = _outcome(f, max_states, agents, props, budget)
        with evaluators_built(cache=False):
            uncached = _outcome(f, max_states, agents, props, budget)
        if not isinstance(uncached, AaulError):
            assert shared == uncached, print_formula(f)
        if max_states < 3:
            try:
                expected = naive_sat_search(f, max_states, agents, props, budget)
            except AaulError:
                pass
            else:
                assert shared == (None if expected is None else save_model(expected)), print_formula(f)
                naive_checked += 1
        found += isinstance(shared, str)
        refuted += shared is None
        refused += isinstance(shared, AaulError)
        depth0 = [c for c in flatten_conj(f) if local_depth(c) == 0]
        if not undeclared and depth0:
            probes, arrowless = [], []

            def settled(check, m, c):
                probes.append(m)
                if any(m.arrows.values()) or not any(c is g for g in depth0):
                    return real(check, m, c)
                arrowless.append((frozenset(p for p in props if m.point in m.valuation[p]), id(c)))
                return None if c is depth0[0] else real(check, m, c)

            with evaluators_built() as built, pytest.MonkeyPatch.context() as mp:
                mp.setattr(search, "_settled", settled)
                assert _outcome(f, max_states, agents, props, budget) == shared, print_formula(f)
            assert len(arrowless) == len(set(arrowless)), print_formula(f)
            probed = {id(m) for m in probes}
            asked += any(c is depth0[0] and id(m) not in probed for pairs in built for m, c in pairs)
    assert found >= 25 and refuted >= 20 and refused >= 20 and naive_checked >= 25
    assert asked >= 8


def test_sat_search_builds_fewer_evaluators():
    # "<a>p & [a]~p" is unsatisfiable, so every point-generated candidate up
    # to 3 states is visited; its conjuncts read no atom at s0, only the set
    # of p's values where s0's arrows lead, so each is decided once per such
    # set a row of s0 shows, shared by every size, by a probe on an
    # evaluator of its own: <a>p on the empty set, {~p} and {p} at one state
    # and on {p, ~p} at two, and [a]~p, reached only where <a>p holds, on
    # {p} and {p, ~p}; no candidate is built
    argv = ["sat-search", "<a>p & [a]~p", "--max-states", "3"]
    with evaluators_built() as cached:
        assert invoke(argv) == (1, "none up to 3 states\n", "")
    with evaluators_built(cache=False) as uncached:
        assert invoke(argv) == (1, "none up to 3 states\n", "")
    assert (len(cached), len(uncached)) == (6, 1092)


def test_sat_search_cache_may_answer_where_a_skipped_clause_is_refused():
    # the clause names z, which the search does not declare, and it is
    # judged only on a candidate with an a-arrow; the update's body reads
    # s0's valuation alone, so its verdict from the arrowless candidate is
    # kept for the looping one, where checking the conjunct would refuse
    argv = ["sat-search", "~p & [{(<z>p,a,true)}]p", "--agents", "a", "--max-states", "1"]
    assert invoke(argv) == (1, "none up to 1 states\n", "")
    with evaluators_built(cache=False):
        assert invoke(argv) == (2, "", "error: unknown agent 'z'\n")
    # at two states the update conjunct still has local depth 0, so it is
    # settled once per valuation on the model without arrows, where no arrow
    # needs the clause: every valuation is rejected there, before any
    # candidate is built
    argv[-1] = "2"
    assert invoke(argv) == (1, "none up to 2 states\n", "")
    # [a][*]false meets two arrow blocks over the cap of 1, on a candidate
    # with p false at s0, where it is decided symbolically. There the update
    # conjunct, checked first on the model with no arrows, is false, so the
    # search rejects the candidate unchecked; the reference, checking f
    # whole on every candidate, answers none as well
    f = parse_formula("<{(true,a,true),(true,a,p)}>p & [a][*]false & <*><a>~p")
    budget = Budget(max_arrow_blocks=1)
    assert sat_search(f, 3, budget=budget) is None
    assert naive_sat_search(f, 3, ("a",), ("p",), budget) is None


def test_sat_search_keeps_arrowless_outcomes_past_refused_probes():
    # on the model with no arrows the kernel's path reads the formula alone
    # (`_sat_search_n`, "Profiles" (1)), so a probe refused there is refused
    # for every valuation: [z]q names an agent the search does not declare,
    # and [*] evaluates it on the empty union under each of the 4 sets of
    # s0's atoms. The arrowless outcome, the [*] conjunct left to the
    # candidates, is kept per set (18 refused probes when no outcome is
    # kept). A candidate then meets the same refusal
    f = parse_formula("<a>(p & q) & <a>(p & ~q) & [*][z]q")
    real, refused = search._settled, []

    def counted(check, m, c):
        holds = real(check, m, c)
        if holds is None and not any(m.arrows.values()):
            refused.append((frozenset(p for p in m.props if m.point in m.valuation[p]), c))
        return holds

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_settled", counted)
        with pytest.raises(UnknownAgentError, match="unknown agent 'z'"):
            sat_search(f, 3, agents=("a",))
    assert len(refused) == len(set(refused)) == 4


def _shown(outcome):
    """An outcome of `_outcome` as plain data, a refusal by type and text."""
    return (type(outcome).__name__, str(outcome)) if isinstance(outcome, AaulError) else outcome


def test_sat_search_kept_tables_change_no_output():
    """The tables kept per size and number of props (`search._KEPT`) give
    every output, refusal messages included, that tables built afresh for
    each call give, over seeded cases whose shapes interleave, so that one
    kept key serves searches over other agent and prop names."""
    rng = random.Random(20261107)
    names = (("a",), ("b",), ("a", "b"), ("c", "a"))
    prop_sets = ((), ("p",), ("q",), ("p", "q"), ("r", "p"), ("p", "q", "r"), ("s", "r", "q"))
    generators = (_cache_conjunct, _settling_conjunct, _undeclared_conjunct, _profile_conjunct, _top_conjunct)
    cases = []
    for _ in range(300):
        agents, props = rng.choice(names), rng.choice(prop_sets)
        drawn = props or ("p",)  # with no props, its atoms are false everywhere
        f = conj([rng.choice(generators)(rng, agents, drawn) for _ in range(rng.randint(1, 3))])
        f, budget = _with_refusals(rng, f, agents, drawn, Budget(max_arrow_blocks=rng.randint(1, 3)))
        cases.append((f, rng.randint(1, 3), agents, props, budget))
    outputs, built = {}, []
    real = search._size_tables
    for warm in (False, True):
        search._KEPT.clear()
        outputs[warm] = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_size_tables", lambda *key: built.append((warm, key)) or real(*key))
            for case in cases:
                if not warm:
                    search._KEPT.clear()
                outputs[warm].append(_shown(_outcome(*case)))
    for case, cold, warm in zip(cases, outputs[False], outputs[True]):
        assert warm == cold, print_formula(case[0])
    # kept, each key is built once and serves names other than its first's
    kept = [key for warm, key in built if warm]
    assert len(kept) == len(set(kept)) < len(built) - len(kept)
    for width in (1, 2, 3):
        assert len({case[3] for case in cases if len(case[3]) == width}) >= 2
    kinds = [str if isinstance(o, str) else type(o) for o in outputs[True]]
    assert min(kinds.count(str), kinds.count(type(None)), kinds.count(tuple)) >= 30


def test_sat_search_kept_tables_keep_limits_and_bound():
    # a kept table never lets through a call its own limit refuses: a
    # warm process raises what a cold one does, before any table is read
    refusals = (
        (parse_formula("<a>p & [a]~p"), 100, "search space at 3 states needs 4096 candidates, over limit 100"),
        (parse_formula("false"), 5, "relabelling table at 3 states needs 8 entries, over limit 5"),
    )
    for warm in (False, True):
        search._KEPT.clear()
        for f, limit, message in refusals:
            if warm:
                assert sat_search(f, 3) is None
            with pytest.raises(AaulError) as refused:
                sat_search(f, 3, limit=limit)
            assert str(refused.value) == message
    # a second search at kept sizes builds no table; a size over the bound
    # (2^15 valuations at 5 states over 3 props) is built afresh for each
    # use and kept by none, and so is 6 states' 7,680 relabelling entries
    real, built = search._size_tables, []
    search._KEPT.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_size_tables", lambda *key: built.append(key) or real(*key))
        for _ in range(2):
            assert sat_search(parse_formula("<a>p & [a]~p"), 3) is None
        assert built == [(1, 1), (2, 1), (3, 1)]
        for _ in range(2):
            assert sat_search(parse_formula("p & ~p"), 5, props=("p", "q", "r")) is None
        assert built[3:7] == [(1, 3), (2, 3), (3, 3), (4, 3)] and set(built[7:]) == {(5, 3)}
    assert (4, 3) in search._KEPT and (5, 3) not in search._KEPT
    assert sat_search(parse_formula("false"), 6) is None
    assert (6, 0) not in search._KEPT
    # a kept size lists its valuations once a search has drawn them all,
    # in the enumeration's order; one that stops early lists none
    assert sat_search(parse_formula("p & q"), 1) is not None
    assert search._KEPT[1, 2][-1] == []
    assert sat_search(parse_formula("p & ~p"), 1, props=("p", "q")) is None
    assert search._KEPT[1, 2][-1] == list(search._least_tuples(1, 2, search._relabel_states, ()))


def test_sat_search_kept_tables_shared_by_threads():
    """Threads that build and list the same kept sizes at once give the
    outputs of one search at a time, and leave each size's valuations
    listed once, in the enumeration's order."""
    texts = ("<a>(p & q) & <a>(p & ~q) & <a>(~p & q)", "<a>p & [a]~p", "<{(p,a,q)}><a>q & [a]~q", "<a>(p & <a>q) & [a]~q")
    formulas = [parse_formula(t) for t in texts]
    expected = []
    for f in formulas:
        search._KEPT.clear()
        expected.append(_shown(_outcome(f, 3, ("a",), ("p", "q"), Budget())))
    search._KEPT.clear()
    got = {}

    def searches(k):
        got[k] = [_shown(_outcome(f, 3, ("a",), ("p", "q"), Budget())) for f in formulas[k % 4 :] + formulas[: k % 4]]

    threads = [threading.Thread(target=searches, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [got[k] for k in range(6)] == [expected[k % 4 :] + expected[: k % 4] for k in range(6)]
    for n in (1, 2, 3):
        assert search._KEPT[n, 2][-1] == list(search._least_tuples(n, 2, search._relabel_states, search._relabellings(n)))
    # and a size over the bound draws its valuations lazily: a search there
    # that stops at an early valuation relabels a fraction of the state
    # masks that listing them all does
    calls, relabel = [], search._relabel_states
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_relabel_states", lambda *args: calls.append(args) or relabel(*args))
        found = search._sat_search_n(flatten_conj(parse_formula("p & q & r")), 5, ("a",), ("p", "q", "r"), Budget())
        drawn = len(calls)
        listed = sum(1 for _ in search._least_tuples(5, 3, search._relabel_states, search._relabellings(5)))
    assert found is not None and listed == 2640 and 4 * drawn < len(calls) - drawn
