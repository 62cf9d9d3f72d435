import dataclasses
import itertools
import random
import re
import threading

import pytest

from aaul import (
    And,
    ArbBox,
    ArbDiamond,
    Atom,
    BOT,
    Box,
    Budget,
    BudgetExceededError,
    Clause,
    DEFAULT_BUDGET,
    Diamond,
    Iff,
    Implies,
    KripkeModel,
    Not,
    Or,
    TOP,
    UnknownAgentError,
    UnknownStateError,
    Update,
    UpdateBox,
    UpdateDiamond,
    arrow_blocks,
    brute_force_arb_oracle,
    build_torus_model,
    coarsest_partition,
    encode_parts,
    find_periodic_tiling,
    is_quantifier_free,
    load_model,
    parse_formula,
    parse_tiles,
    print_formula,
    print_update,
    satisfies,
    truth_set,
    update_model,
    witness_update,
)
from aaul import checker
from aaul.checker import _unions, core_checker
from aaul.tiling import DIRECTIONS
from helpers import (
    deep_formula,
    naive_apply,
    naive_arb_models,
    naive_eval,
    random_leaf,
    random_model,
    random_quantifier_free,
    random_update,
    single_quantifier_formula,
)


def test_budget_defaults_and_validation():
    assert DEFAULT_BUDGET.max_arrow_blocks == 20
    assert [field.name for field in dataclasses.fields(Budget)] == ["max_arrow_blocks"]
    with pytest.raises(ValueError):
        Budget(max_arrow_blocks=0)
    # nesting has no cap of its own: the stack guard is the one depth limit
    with pytest.raises(TypeError):
        Budget(20, 64)


def test_quantifier_free_fragment_matches_naive_semantics():
    rng = random.Random(41)
    for _ in range(300):
        m = random_model(rng)
        f = random_quantifier_free(rng, rng.randint(0, 3))
        ts = truth_set(m, f)
        for s in m.states:
            assert (s in ts) == naive_eval(m, s, f)


def test_truth_set_basics():
    m = load_model("states: w v\nagent a: w->v v->v\nval p: v\n")
    assert truth_set(m, parse_formula("p")) == frozenset({"v"})
    assert truth_set(m, parse_formula("[a]p")) == frozenset({"w", "v"})
    assert truth_set(m, parse_formula("<a>p")) == frozenset({"w", "v"})
    assert truth_set(m, parse_formula("undeclared")) == frozenset()


def test_unknown_agent_and_state_raise():
    m = load_model("states: w\nagent a:\n")
    with pytest.raises(UnknownAgentError):
        truth_set(m, parse_formula("[zz]true"))
    with pytest.raises(UnknownStateError):
        satisfies(m, "nope", TOP)


def test_arb_box_laws():
    rng = random.Random(43)
    for _ in range(60):
        m = random_model(rng, max_states=3, density=0.25)
        # valuation is untouched by updates
        assert truth_set(m, parse_formula("[*]p")) == truth_set(m, parse_formula("p"))
        # the empty update removes every arrow
        assert truth_set(m, parse_formula("<*>[a]false")) == frozenset(m.states)
        assert truth_set(m, parse_formula("[*]<a>true")) == frozenset()
        # keeping everything is also an option
        f = random_quantifier_free(rng, 2)
        arb = truth_set(m, ArbBox(f))
        assert arb <= truth_set(m, f)


def _sixteen_blocks():
    # 4 propositionally distinct states, complete relation: 16 arrow blocks
    return KripkeModel(
        states=("s0", "s1", "s2", "s3"),
        agents=("a",),
        props=("p", "q"),
        arrows={"a": {(s, t) for s in ("s0", "s1", "s2", "s3") for t in ("s0", "s1", "s2", "s3")}},
        valuation={"p": {"s1", "s3"}, "q": {"s2", "s3"}},
    )


def test_arb_top_shortcut_skips_enumeration():
    m = _sixteen_blocks()
    tight = Budget(max_arrow_blocks=10)
    assert satisfies(m, "s0", parse_formula("[*]true"), tight)
    with pytest.raises(BudgetExceededError) as exc:
        satisfies(m, "s0", parse_formula("[*]p"), tight)
    assert exc.value.kind == "arrow_blocks"


def test_over_cap_model_decided_at_the_empty_union(monkeypatch):
    # the walk's first union is the empty one; a quantifier that stops there
    # never builds a partition, so the cap of 10 on 16 blocks is not met
    m = _sixteen_blocks()
    tight = Budget(max_arrow_blocks=10)
    partitions = []
    real = checker.coarsest_partition
    monkeypatch.setattr(checker, "coarsest_partition", lambda m: partitions.append(m) or real(m))
    assert truth_set(m, parse_formula("[*]<a>true"), tight) == frozenset()
    assert truth_set(m, parse_formula("<*>[a]false"), tight) == frozenset(m.states)
    w = witness_update(m, "s0", parse_formula("<*>[a]false"), tight)
    assert print_update(w) == "{(false,a,false)}"
    assert partitions == []
    with pytest.raises(BudgetExceededError) as exc:
        satisfies(m, "s0", parse_formula("[*]p"), tight)
    assert exc.value.kind == "arrow_blocks" and len(partitions) == 1


def test_results_are_reproducible():
    rng = random.Random(47)
    m = random_model(rng)
    f = single_quantifier_formula(rng)
    first = truth_set(m, f, Budget(max_arrow_blocks=12))
    for _ in range(3):
        assert truth_set(m, f, Budget(max_arrow_blocks=12)) == first


def test_checker_vs_oracle_smoke():
    rng = random.Random(53)
    budget = Budget(max_arrow_blocks=10)
    done = 0
    while done < 40:
        m = random_model(rng, max_states=3)
        f = single_quantifier_formula(rng)
        s = rng.choice(m.states)
        try:
            got = satisfies(m, s, f, budget)
            want = brute_force_arb_oracle(m, s, f, budget)
        except BudgetExceededError:
            continue
        assert got == want
        done += 1


def test_oracle_handles_plain_formulas():
    rng = random.Random(59)
    for _ in range(60):
        m = random_model(rng, max_states=3)
        f = random_quantifier_free(rng, 2)
        s = rng.choice(m.states)
        assert brute_force_arb_oracle(m, s, f) == naive_eval(m, s, f)


def test_witness_update_fixed_example():
    m = load_model("states: s t\nagent a: s->t t->t\nval p: t\npoint: s\n")
    f = parse_formula("<*><a>[a]false")
    w = witness_update(m, "s", f)
    assert w is not None
    assert all(is_quantifier_free(c.pre) and is_quantifier_free(c.post) for c in w.clauses)
    after = update_model(m, w)
    assert satisfies(after, "s", f.body)


def test_witness_update_trivial_formula():
    m = load_model("states: s\nagent a: s->s\n")
    w = witness_update(m, "s", ArbDiamond(TOP))
    assert w is not None
    after = update_model(m, w)
    assert satisfies(after, "s", TOP)


def test_witness_update_none_when_unsatisfiable():
    m = load_model("states: s\nagent a:\n")
    assert witness_update(m, "s", ArbDiamond(Diamond("a", TOP))) is None


def test_witness_update_agreement_with_satisfies():
    rng = random.Random(61)
    budget = Budget(max_arrow_blocks=12)
    checked = 0
    while checked < 60:
        m = random_model(rng, max_states=3)
        body = random_quantifier_free(rng, 2)
        s = rng.choice(m.states)
        f = ArbDiamond(body)
        try:
            expected = satisfies(m, s, f, budget)
            w = witness_update(m, s, f, budget)
        except BudgetExceededError:
            continue
        assert (w is not None) == expected
        if w is not None:
            after = update_model(m, w, budget)
            assert satisfies(after, s, body, budget)
        checked += 1


def test_witness_update_requires_arb_diamond():
    m = load_model("states: s\nagent a:\n")
    with pytest.raises(TypeError):
        witness_update(m, "s", ArbBox(TOP))


def test_update_box_inside_quantifier_body():
    # [*][U]f mixes quantified and concrete updates
    rng = random.Random(67)
    budget = Budget(max_arrow_blocks=10)
    done = 0
    while done < 20:
        m = random_model(rng, max_states=3)
        f = ArbBox(UpdateBox(random_update(rng, 0), random_quantifier_free(rng, 1)))
        s = rng.choice(m.states)
        try:
            got = satisfies(m, s, f, budget)
            want = brute_force_arb_oracle(m, s, f, budget)
        except BudgetExceededError:
            continue
        assert got == want
        done += 1


def test_quantifiers_allowed_inside_user_update_clauses():
    # the quantifier ranges over quantifier-free updates, but a user-written
    # update literal may itself contain [*] in clause formulas
    m = load_model("states: w v\nagent a: w->v v->v\nval p: v\n")
    f = parse_formula("[{([*]p | ~[*]p,a,true)}]<a>true")
    assert satisfies(m, "w", f)
    assert brute_force_arb_oracle(m, "w", f)


def _nested_diamonds(n, leaf=Atom("p")):
    f = leaf
    for _ in range(n):
        f = Diamond("a", f)
    return f


def test_deep_nesting_decides():
    # nesting costs one evaluator frame per level and no budget counts it:
    # 600 nested <a>, well within the interpreter's stack, decide; the
    # oracle spends one frame per level too
    m = load_model("states: w\nagent a: w->w\n")
    assert satisfies(m, "w", _nested_diamonds(600, TOP))
    assert not satisfies(m, "w", _nested_diamonds(600))
    assert brute_force_arb_oracle(m, "w", _nested_diamonds(600, TOP))


def _functional_model(rng, agents=("a", "b")):
    """1-3 states, each with at most one successor per agent."""
    states = tuple(f"s{i}" for i in range(rng.randint(1, 3)))
    arrows = {a: {(s, rng.choice(states)) for s in states if rng.random() < 0.7} for a in agents}
    valuation = {p: {s for s in states if rng.random() < 0.5} for p in ("p", "q")}
    return KripkeModel(states, agents, ("p", "q"), arrows, valuation, point=states[0])


def test_formulas_nested_past_64_levels_match_naive_eval():
    # nesting is not budgeted: formulas 40 to 100 levels deep, under [*]/<*>
    # half the time, decide as naive_eval does at every state
    rng = random.Random(151)
    deep = 0
    for _ in range(150):
        m = _functional_model(rng)
        levels = rng.randint(40, 100)
        f = deep_formula(rng, levels)
        if rng.random() < 0.5:
            f = rng.choice((ArbBox, ArbDiamond))(f)
        assert truth_set(m, f) == {s for s in m.states if naive_eval(m, s, f)}, print_formula(f)
        deep += levels > 66
    assert deep >= 50


DEEP_CALLS = [
    lambda m, f, b: truth_set(m, f, b),
    lambda m, f, b: satisfies(m, "w", f, b),
    lambda m, f, b: witness_update(m, "w", ArbDiamond(f), b),
    lambda m, f, b: brute_force_arb_oracle(m, "w", f, b),
]
DEEP_IDS = ["truth_set", "satisfies", "witness_update", "oracle"]


@pytest.mark.parametrize("call", DEEP_CALLS, ids=DEEP_IDS)
@pytest.mark.parametrize("formula", [lambda: _nested_diamonds(3000)], ids=["evaluator"])
def test_formula_too_deep_for_the_stack_is_a_budget_refusal(call, formula):
    # built through the API, so no parser stands in front: 3000 nested <a>,
    # one evaluator frame each, overflow the interpreter's stack, and the
    # default budget has no other limit on nesting
    m = load_model("states: w\nagent a: w->w\n")
    with pytest.raises(BudgetExceededError) as exc:
        call(m, formula(), Budget())
    assert exc.value.kind == "recursion"


@pytest.mark.parametrize("call", DEEP_CALLS, ids=DEEP_IDS)
def test_formula_too_deep_for_the_stack_is_a_budget_refusal_in_a_thread(call):
    # a worker thread has a stack of its own, and the guard holds there too
    m = load_model("states: w\nagent a: w->w\n")
    raised = []

    def run():
        try:
            call(m, _nested_diamonds(3000), Budget())
        except Exception as e:
            raised.append(e)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert [(type(e), getattr(e, "kind", None)) for e in raised] == [(BudgetExceededError, "recursion")]


def test_long_conjunction_is_one_level_deep():
    m = load_model("states: w v\nagent a: w->v\nval p: w v\nval q: w\n")
    assert truth_set(m, parse_formula(" & ".join(["p"] * 70))) == frozenset({"w", "v"})


def _nested_formula(rng, depth, agents="ab", clause_agents="ab", quantified=True):
    """The full language with [*]/<*> at any depth, update clauses included:
    modalities over `agents`, update clauses over `clause_agents`. With
    quantified false, ~ takes the place of [*]/<*>."""
    if depth <= 0:
        return random_leaf(rng)
    sub = lambda: _nested_formula(rng, depth - 1, agents, clause_agents, quantified)
    pick = rng.randrange(6)
    if pick == 0:
        return rng.choice((ArbBox, ArbDiamond))(sub()) if quantified else Not(sub())
    if pick == 1:
        u = Update((Clause(sub(), rng.choice(clause_agents), sub()),))
        return rng.choice((UpdateBox, UpdateDiamond))(u, sub())
    if pick == 2:
        return rng.choice((Box, Diamond))(rng.choice(agents), sub())
    if pick == 3:
        return Not(sub())
    return rng.choice((And, Or, Implies, Iff))(sub(), sub())


# each sugared node beside its definition, one level deep, over the same operands
SUGAR_TWINS = [
    ("diamond", lambda g, h, u: (Diamond("a", g), Not(Box("a", Not(g))))),
    ("or", lambda g, h, u: (Or(g, h), Not(And(Not(g), Not(h))))),
    ("implies", lambda g, h, u: (Implies(g, h), Not(And(g, Not(h))))),
    ("iff", lambda g, h, u: (Iff(g, h), And(Not(And(g, Not(h))), Not(And(h, Not(g)))))),
    ("update_diamond", lambda g, h, u: (UpdateDiamond(u, g), Not(UpdateBox(u, Not(g))))),
    ("arb_diamond", lambda g, h, u: (ArbDiamond(g), Not(ArbBox(Not(g))))),
    ("false", lambda g, h, u: (BOT, Not(TOP))),
]


def _record(monkeypatch):
    """Patch the checker to record each union it draws and each node it
    evaluates, in two lists returned."""
    drawn, evaluated = [], []
    walk, evaluate = checker._unions, checker._Evaluator.truth_set

    def counted(m, blocks):
        for item in walk(m, blocks):
            drawn.append(item)
            yield item

    def traced(self, m, g):
        evaluated.append(g)
        return evaluate(self, m, g)

    monkeypatch.setattr(checker, "_unions", counted)
    monkeypatch.setattr(checker._Evaluator, "truth_set", traced)
    return drawn, evaluated


def _outcome(m, f, budget):
    try:
        return truth_set(m, f, budget)
    except BudgetExceededError as e:
        assert e.kind == "arrow_blocks"
        return str(e)


@pytest.mark.parametrize("twins", [t for _, t in SUGAR_TWINS], ids=[n for n, _ in SUGAR_TWINS])
def test_sugared_node_matches_its_definition(twins, monkeypatch):
    # the same truth set or the same refusal, after the same number of
    # unions drawn: the twins visit the operands, the unions and the early
    # exits of [*] in the same order
    drawn, _ = _record(monkeypatch)
    rng = random.Random(97)
    answers = refusals = 0
    for _ in range(1100):
        m = random_model(rng, max_states=3)
        g, h = _nested_formula(rng, 2), _nested_formula(rng, 2)
        u = Update((Clause(_nested_formula(rng, 1), rng.choice("ab"), _nested_formula(rng, 1)),))
        sugared, defined = twins(g, h, u)
        for cap in (1, 2, 4, 8):
            budget = Budget(max_arrow_blocks=cap)
            got = _outcome(m, sugared, budget)
            unions = len(drawn)
            assert got == _outcome(m, defined, budget)
            assert len(drawn) == 2 * unions
            drawn.clear()
            answers += isinstance(got, frozenset)
            refusals += isinstance(got, str)
    assert answers >= 800 and (refusals >= 200 or sugared is BOT)


def _validated_union(m, blocks, chosen):
    arrows = {a: set() for a in m.agents}
    for i in chosen:
        arrows[blocks[i].agent] |= blocks[i].arrows
    return m.with_arrows(arrows)


def _assert_equal_models(sub, checked):
    assert sub == checked
    assert sub.fingerprint == checked.fingerprint and hash(sub) == hash(checked)


def test_unions_walk_lexicographic_order():
    # three states told apart by their propositions, so each arrow is a block
    # of its own, spread over two agents
    states = ("s0", "s1", "s2")
    every_arrow = [(a, (s, t)) for a in ("a", "b") for s in states for t in states]
    rng = random.Random(83)
    for size in range(9):
        for _ in range(3):
            arrows = {"a": set(), "b": set()}
            for a, pair in rng.sample(every_arrow, size):
                arrows[a].add(pair)
            m = KripkeModel(states, ("a", "b"), ("p0", "p1", "p2"), arrows, {f"p{i}": {s} for i, s in enumerate(states)})
            blocks = arrow_blocks(m, coarsest_partition(m))
            assert len(blocks) == size
            walked = list(_unions(m, lambda: blocks))
            expected = sorted(c for k in range(size + 1) for c in itertools.combinations(range(size), k))
            assert [chosen for chosen, _ in walked] == expected
            for chosen, sub in walked:
                _assert_equal_models(sub, _validated_union(m, blocks, chosen))


def test_unchecked_models_equal_validated_ones():
    rng = random.Random(71)
    for _ in range(60):
        m = random_model(rng, max_states=4)
        blocks = arrow_blocks(m, coarsest_partition(m))
        if len(blocks) > 8:
            continue
        walked = list(_unions(m, lambda: blocks))
        for chosen, sub in walked:
            _assert_equal_models(sub, _validated_union(m, blocks, chosen))
        for _, sub in walked[-3:]:
            updated = update_model(sub, random_update(rng))
            _assert_equal_models(updated, m.with_arrows(updated.arrows))


# Pinned from the recursive enumeration the incremental walk replaced: the
# witness is the first satisfying union in lexicographic order, so a walk in
# another order would return another update.
WITNESS_MODEL = (
    "states: s t u v\nagent a: s->t s->u t->v u->u v->s\nagent b: s->s t->u u->v v->t\n"
    "val p: t v\nval q: u v\npoint: s\n"
)
PINNED_WITNESSES = [
    ("<*>(<a>p & <b>q)", "s", None),
    (
        "<*>(<a>p & <b>q)",
        "t",
        "{(~p & ~q,a,p & ~q),(~p & ~q,a,~p & q),(p & ~q,a,p & q),(~p & q,a,~p & q),"
        "(p & q,a,~p & ~q),(~p & ~q,b,~p & ~q),(p & ~q,b,~p & q)}",
    ),
    ("<*><a><a>(p & [b]false)", "s", "{(~p & ~q,a,p & ~q),(~p & ~q,a,~p & q),(p & ~q,a,p & q)}"),
    (
        "<*>([a]~q & <a><b>q & ~<b>~q)",
        "s",
        "{(~p & ~q,a,p & ~q),(p & ~q,a,p & q),(~p & q,a,~p & q),(p & q,a,~p & ~q),(p & ~q,b,~p & q)}",
    ),
    ("<*>(<a>p & <a>q & [b]false)", "s", "{(~p & ~q,a,p & ~q),(~p & ~q,a,~p & q)}"),
    ("<*>(<a>p & <a>q & [b]false)", "t", "{(~p & ~q,a,p & ~q),(~p & ~q,a,~p & q),(p & ~q,a,p & q)}"),
    ("<*>[a][a][a]false", "t", "{(false,a,false)}"),
]


@pytest.mark.parametrize("text, state, printed", PINNED_WITNESSES)
def test_witness_update_pinned(text, state, printed):
    m = load_model(WITNESS_MODEL)
    assert len(arrow_blocks(m, coarsest_partition(m))) == 9
    w = witness_update(m, state, parse_formula(text))
    assert (None if w is None else print_update(w)) == printed


def test_arrows_only_memo_key_matches_naive_semantics():
    # [*][U]g: distinct unions often become equal models once U is applied,
    # and the memo then answers g on the second one from the first
    rng = random.Random(73)
    checked = merged = 0
    while checked < 150:
        m = random_model(rng, max_states=3)
        u = random_update(rng, 1)
        g = random_quantifier_free(rng, 2)
        ranged = list(naive_arb_models(m))
        if len(ranged) > 256:
            continue
        merged += len({naive_apply(sub, u) for sub in ranged}) < len(ranged)
        for f, box in ((ArbBox(UpdateBox(u, g)), True), (ArbDiamond(UpdateBox(u, g)), False)):
            got = truth_set(m, f)
            for s in m.states:
                results = [naive_eval(sub, s, UpdateBox(u, g)) for sub in ranged]
                assert (s in got) == (all(results) if box else any(results))
        checked += 1
    assert merged >= 100


def test_one_check_switches_models():
    # one check, asked about the root, some of its unions and an updated
    # model in shuffled order, each model twice: every answer must come from
    # the memo of the model it is asked about, and [U] switches models
    # inside a call as well
    rng = random.Random(89)
    checked = 0
    while checked < 40:
        m = random_model(rng, max_states=3)
        blocks = arrow_blocks(m, coarsest_partition(m))
        if not 2 <= len(blocks) <= 8:
            continue
        u = random_update(rng)
        subs = [sub for _, sub in _unions(m, lambda: blocks)]
        visits = [m, *rng.sample(subs, 3), update_model(m, u)] * 2
        rng.shuffle(visits)
        after = UpdateBox(u, random_quantifier_free(rng, 1))
        formulas = [random_quantifier_free(rng, 2) for _ in range(3)]
        formulas += [after, And(random_quantifier_free(rng, 1), after)]
        check = core_checker()
        for model in visits:
            for g in formulas:
                assert check(model, g) == {s for s in model.states if naive_eval(model, s, g)}
        checked += 1


def _answer(call, *args):
    """call(*args), or the kind and message of the refusal it raises: a
    budget's, or an undeclared agent's ("agent")."""
    try:
        return call(*args)
    except BudgetExceededError as e:
        return e.kind, str(e)
    except UnknownAgentError as e:
        return "agent", str(e)


def _undeclared(f, agent):
    """f with its [agent]/<agent> modalities over the undeclared agent z:
    a check refuses wherever it reaches one, and nowhere else."""
    return parse_formula(re.sub(rf"([<\[]){agent}([>\]])", r"\1z\2", print_formula(f)))


def test_blocks_are_asked_for_only_past_the_empty_union():
    # [*]g and <*>g meet the block cap only when the walk goes past the
    # empty union: where g holds nowhere there ([*]), or everywhere (<*>),
    # they answer at any block count, and otherwise they refuse over the
    # cap. [*]true answers without a walk. witness_update likewise stops at
    # the empty union when g holds at the state there. Every answer matches
    # naive_eval, which builds every range in full.
    rng = random.Random(139)
    answered_over_cap = refusals = naive_checked = 0
    for _ in range(300):
        m = random_model(rng, max_states=3)
        blocks = len(arrow_blocks(m, coarsest_partition(m)))
        body = random_quantifier_free(rng, rng.randint(1, 3))
        empty = truth_set(m.with_arrows({a: frozenset() for a in m.agents}), body)
        for quantifier, stops in ((ArbBox, not empty or body == TOP), (ArbDiamond, len(empty) == len(m.states))):
            f = quantifier(body)
            for cap in (1, 2, 4):
                budget = Budget(max_arrow_blocks=cap)
                got = _answer(truth_set, m, f, budget)
                if blocks > cap and not stops:
                    assert got == ("arrow_blocks", f"{blocks} arrow blocks exceed the cap of {cap}")
                    refusals += 1
                    continue
                answered_over_cap += blocks > cap
                if blocks <= 8:
                    assert got == {s for s in m.states if naive_eval(m, s, f)}
                    naive_checked += 1
        for cap in (1, 2, 4):
            w = _answer(witness_update, m, m.point, ArbDiamond(body), Budget(max_arrow_blocks=cap))
            if blocks > cap and m.point not in empty:
                assert w == ("arrow_blocks", f"{blocks} arrow blocks exceed the cap of {cap}")
            elif blocks <= 8:
                assert (w is not None) == naive_eval(m, m.point, ArbDiamond(body))
                assert w is None or naive_eval(naive_apply(m, w), m.point, body)
    assert answered_over_cap >= 300 and refusals >= 300 and naive_checked >= 1000


def _modal(rng, agents):
    return rng.choice((Box, Diamond))(rng.choice(agents), random_leaf(rng))


def test_skipped_unions_change_no_outcome(monkeypatch):
    # [*]/<*> evaluate their body once per distinct set of arrows of the
    # agents it reads. Forcing that set to every agent skips nothing: both
    # runs must give the same truth sets, refusals and witnesses, and every
    # answer must match naive_eval. Updates also name an agent the model
    # does not declare (z), and a fifth run turns the modalities of the last
    # agent into z's, refused wherever they are reached. Both runs draw the
    # same unions unless a nested walk can be skipped: on a separated model
    # (partition = valuation partition), when f holds a quantifier (nested
    # under the witness's <*>), the skipping run may draw fewer.
    drawn, calls = _record(monkeypatch)
    skipping = checker._read_agents
    budgets = [Budget(max_arrow_blocks=cap) for cap in (1, 2, 4, 8)]
    rng = random.Random(101)
    answers = refusals = undeclared = naive_checked = skipped = 0
    for _ in range(600):
        agents = ("a", "b", "c")[: rng.randint(2, 3)]
        m = random_model(rng, max_states=3, agents=agents, density=0.2)
        named = agents + ("z",)
        if rng.random() < 0.5:
            f = _nested_formula(rng, 3, agents, named)
        else:
            # a quantifier-free body whose modalities name a alone, under an
            # update whose clause formulas may read the other agents
            u = Update(tuple(
                Clause(_modal(rng, agents), c, _modal(rng, agents)) for c in ("a", rng.choice(named))
            ))
            g = rng.choice((Box, Diamond))("a", _nested_formula(rng, 1, "a", named, False))
            f = rng.choice((ArbBox, ArbDiamond))(rng.choice((UpdateBox, UpdateDiamond))(u, g))
        for budget, h in [(budget, f) for budget in budgets] + [(budgets[-1], _undeclared(f, agents[-1]))]:
            runs = []
            for read in (skipping, lambda body, separated: None):
                monkeypatch.setattr(checker, "_read_agents", read)
                got = _answer(truth_set, m, h, budget)
                witness = _answer(witness_update, m, m.point, ArbDiamond(h), budget)
                runs.append((got, witness, len(drawn), len(calls)))
                drawn.clear()
                calls.clear()
            assert runs[0][:2] == runs[1][:2] and runs[0][3] <= runs[1][3]
            if coarsest_partition(m).rounds == 0 and not is_quantifier_free(h):
                assert runs[0][2] <= runs[1][2]
            else:
                assert runs[0][2] == runs[1][2]
            skipped += runs[0][3] < runs[1][3]
            got = runs[0][0]
            answers += isinstance(got, frozenset)
            refusals += not isinstance(got, frozenset)
            undeclared += isinstance(got, tuple) and got[0] == "agent"
            if isinstance(got, frozenset) and sum(map(len, m.arrows.values())) <= 5 and h is f and budget is budgets[-1]:
                assert got == {s for s in m.states if naive_eval(m, s, f)}
                naive_checked += 1
    assert answers >= 1400 and refusals >= 300 and undeclared >= 100 and naive_checked >= 300 and skipped >= 120


def _discrete_model(rng, agents):
    """2-3 states, each with its own valuation of p and q."""
    states = tuple(f"s{i}" for i in range(rng.randint(2, 3)))
    labels = dict(zip(states, rng.sample(range(4), len(states))))
    valuation = {p: {s for s in states if labels[s] >> i & 1} for i, p in enumerate(("p", "q"))}
    arrows = {a: {(s, t) for s in states for t in states if rng.random() < 0.25} for a in agents}
    return KripkeModel(states, agents, ("p", "q"), arrows, valuation, point=states[0])


def _separated_model(rng, agents):
    """A `_discrete_model` plus a copy of 1-2 of its states: each copy has
    its original's valuation and outgoing arrows, and takes some of the
    arrows into its original. A copy is bisimilar to its original, so the
    partition is the valuation partition, and it is not discrete."""
    m = _discrete_model(rng, agents)
    copies = {s: f"c{s}" for s in rng.sample(m.states, rng.randint(1, 2))}
    arrows = {a: set(m.arrows[a]) for a in agents}
    for a in agents:
        arrows[a] |= {(s, copies[t]) for s, t in m.arrows[a] if t in copies and rng.random() < 0.5}
        arrows[a] |= {(copies[s], t) for s, t in arrows[a] if s in copies}
    valuation = {p: m.valuation[p] | {copies[s] for s in m.valuation[p] if s in copies} for p in m.props}
    states = m.states + tuple(copies.values())
    return KripkeModel(states, agents, m.props, arrows, valuation, point=m.point)


def _nested_body(rng, agents, named):
    """A body holding a nested [*]/<*>, in a subformula or in an update
    clause formula, whose modalities name only `agents`."""
    inner = rng.choice((ArbBox, ArbDiamond))(_nested_formula(rng, 2, agents, named))
    rest = _nested_formula(rng, 1, agents, named)
    pick = rng.randrange(3)
    if pick == 0:
        return rng.choice((And, Or, Implies))(inner, rest)
    if pick == 1:
        u = Update((Clause(inner, rng.choice(agents), random_leaf(rng)), Clause(TOP, rng.choice(named), inner)))
        return rng.choice((UpdateBox, UpdateDiamond))(u, rest)
    return rng.choice((Box, Diamond))(rng.choice(agents), inner)


def _evaluators(monkeypatch):
    """Patch the checker to record each evaluator it makes, in a list returned."""
    made = []
    init = checker._Evaluator.__init__

    def recorded(self, budget):
        init(self, budget)
        made.append(self)

    monkeypatch.setattr(checker._Evaluator, "__init__", recorded)
    return made


def test_nested_quantifier_reads_its_body_on_a_discrete_model(monkeypatch):
    # On a separated model (partition = valuation partition) a body with a
    # nested [*]/<*> reads only the agents of its modalities and update
    # clauses, and is evaluated on each kept union cut to them. Two
    # families: valuation-discrete models, and separated ones that are not
    # discrete. Forcing the read set to every agent skips and cuts nothing:
    # it must give the same truth sets, refusals and witnesses, its nested
    # walks must draw no fewer unions, and the answers must match
    # naive_eval, which enumerates every range. Each partition and block
    # tuple recorded for a cut model must be the one refinement gives it. A
    # fifth run turns the modalities of one read agent into those of the
    # undeclared z.
    drawn, calls = _record(monkeypatch)
    made = _evaluators(monkeypatch)
    skipping = checker._read_agents
    budgets = [Budget(max_arrow_blocks=cap) for cap in (1, 2, 4, 8)]
    for family, seed in ((_discrete_model, 131), (_separated_model, 137)):
        rng = random.Random(seed)
        answers = refusals = undeclared = naive_checked = fired = cut = 0
        for _ in range(160):
            agents = ("a", "b", "c")[: rng.randint(2, 3)]
            m = family(rng, agents)
            part = coarsest_partition(m)
            valuations = {tuple(s in m.valuation[p] for p in m.props) for s in m.states}
            assert part.rounds == 0 and (len(valuations) == len(m.states)) is (family is _discrete_model)
            read = tuple(rng.sample(agents, rng.randint(1, len(agents) - 1)))
            body = _nested_body(rng, read, read + ("z",))
            f = rng.choice((ArbBox, ArbDiamond))(body)
            for budget, h in [(budget, f) for budget in budgets] + [(budgets[-1], _undeclared(f, read[-1]))]:
                runs = []
                for reads in (skipping, lambda body, separated: None):
                    monkeypatch.setattr(checker, "_read_agents", reads)
                    got = _answer(truth_set, m, h, budget)
                    witness = _answer(witness_update, m, m.point, ArbDiamond(h.body), budget)
                    known = [item for ev in made for item in ev.known.items()]
                    runs.append((got, witness, len(calls), sum(g is h.body for g in calls), len(drawn), known))
                    calls.clear()
                    drawn.clear()
                    made.clear()
                assert runs[0][:2] == runs[1][:2] and runs[0][2] <= runs[1][2] and runs[0][3] <= runs[1][3]
                assert runs[0][4] <= runs[1][4] and not runs[1][5]
                fired += runs[0][3] < runs[1][3]  # the outer walk skipped a body with a nested quantifier
                cut += runs[0][4] < runs[1][4] and bool(runs[0][5])
                for arrows, (cut_part, cut_blocks) in runs[0][5]:
                    c = m.with_arrows(dict(zip(m.agents, arrows)))
                    assert coarsest_partition(c) == cut_part and arrow_blocks(c, cut_part) == cut_blocks
                got = runs[0][0]
                answers += isinstance(got, frozenset)
                refusals += not isinstance(got, frozenset)
                undeclared += isinstance(got, tuple) and got[0] == "agent"
                # for a discrete model the block count is the arrow count
                if isinstance(got, frozenset) and len(arrow_blocks(m, part)) <= 5 and h is f and budget is budgets[-1]:
                    assert got == {s for s in m.states if naive_eval(m, s, f)}
                    naive_checked += 1
        assert answers >= 300 and refusals >= 200 and undeclared >= 50 and naive_checked >= 100, family
        assert fired >= 200 and cut >= 100, family


# Each read-set rule the skip depends on, on a model where breaking it skips a
# union that decides the answer
READ_SET_CASES = [
    # the clause formula reads b: unions differing only in b's arrow must
    # both be evaluated, though the body's modalities name a alone
    ("states: s t\nagent a: s->t\nagent b: s->t\nval p: t\nval q: t\npoint: s\n",
     "<*>[{(<b>p,a,true)}]<a>q", {"s"}),
    # the nested <*> splits r's a-successors only where the c-loop keeps s
    # and t apart, though no modality names c
    ("states: r s t x\nagent a: r->s r->t s->x t->x\nagent c: s->s\nval p: x\npoint: r\n",
     "<*>([a]<a>p & <*>(<a><a>p & <a>[a]~p))", {"r"}),
]


@pytest.mark.parametrize("model, text, expected", READ_SET_CASES)
def test_read_set_rules(model, text, expected):
    m, f = load_model(model), parse_formula(text)
    assert truth_set(m, f) == expected
    assert {s for s in m.states if naive_eval(m, s, f)} == expected


def test_quantifier_evaluates_body_once_per_read_arrow_set(monkeypatch):
    # one a-block and three b-blocks: each walks all 16 unions, but its
    # body reads only a's arrows, which the unions set in 2 ways
    m = load_model(
        "states: s0 s1 s2\nagent a: s0->s1\nagent b: s0->s1 s1->s2 s2->s0\n"
        "val p0: s0\nval p1: s1\nval p2: s2\n"
    )
    assert len(arrow_blocks(m, coarsest_partition(m))) == 4
    drawn, evaluated = _record(monkeypatch)
    for text, expected in (("<*><a>p1", {"s0"}), ("[*]~<a>p1", {"s1", "s2"})):
        f = parse_formula(text)
        assert truth_set(m, f) == expected
        assert (len(drawn), sum(g is f.body for g in evaluated)) == (16, 2)
        drawn.clear()
        evaluated.clear()


def test_nested_tiling_conjuncts_walk_their_read_agents(monkeypatch):
    # The 1x1 self-tiling torus is valuation-discrete, with 8 arrow blocks:
    # an a-loop on each state, b out and back, one loop per direction. The
    # quantifier under propd_x's and return_x's [b] reads a, b and x, 5 of
    # the blocks, so it evaluates its body on 32 of the 256 unions, each cut
    # to those agents. So every nested walk ranges over read blocks alone,
    # the same for each direction, and reads its partition off the cut: the
    # only partitions refined are the root's and, at the empty union, which
    # comes before any cut, one per nested quantifier node met there (two in
    # propd_x, one in return_x).
    inst = parse_tiles("tile T N=c E=c S=c W=c\n")
    m = build_torus_model(inst, find_periodic_tiling(inst, 1))
    part = coarsest_partition(m)
    assert part.rounds == 0 and len(part.blocks) == len(m.states) and len(arrow_blocks(m, part)) == 8
    named = encode_parts(inst).named()
    drawn, evaluated = _record(monkeypatch)
    partitions = []
    refine = checker.coarsest_partition
    monkeypatch.setattr(checker, "coarsest_partition", lambda model: partitions.append(model) or refine(model))
    for x in DIRECTIONS:
        for name, expected, built, walked in ((f"propd_{x}", True, 3, 598), (f"return_{x}", False, 2, 499)):
            quantified = named[name].body
            assert satisfies(m, "s0", named[name]) is expected
            assert sum(g is quantified.body for g in evaluated) == 32
            assert (len(partitions), len(drawn)) == (built, walked), name
            evaluated.clear()
            drawn.clear()
            partitions.clear()
