import random

from aaul import (
    Clause,
    Diamond,
    KripkeModel,
    TOP,
    Update,
    parse_update,
    update_model,
)
from helpers import naive_apply, random_model, random_update


def chain_model():
    return KripkeModel(
        states=("s", "t", "u"),
        agents=("a",),
        props=(),
        arrows={"a": {("s", "t"), ("t", "u")}},
        valuation={},
        point="s",
    )


def test_preconditions_judged_on_original_model():
    # keep arrows into states that (in the original model) still have a way out
    m = chain_model()
    u = Update((Clause(TOP, "a", Diamond("a", TOP)),))
    m2 = update_model(m, u)
    assert m2.arrow_set("a") == frozenset({("s", "t")})
    # judging on the result instead would also drop (s, t); make sure it survives
    assert ("s", "t") in m2.arrow_set("a")


def test_unmentioned_agents_lose_all_arrows():
    m = random_model(random.Random(0), max_states=3)
    u = parse_update("{(true,a,true)}")
    m2 = update_model(m, u)
    assert m2.arrow_set("a") == m.arrow_set("a")
    assert m2.arrow_set("b") == frozenset()


def test_clauses_for_undeclared_agents_do_nothing():
    m = chain_model()
    u = parse_update("{(true,zz,true)}")
    m2 = update_model(m, u)
    assert m2.arrow_set("a") == frozenset()


def test_clauses_are_disjunctive():
    m = chain_model()
    u = parse_update("{(true,a,<a>true),(true,a,[a]false)}")
    assert update_model(m, u).arrow_set("a") == m.arrow_set("a")


def test_frame_and_valuation_preserved():
    rng = random.Random(4)
    for _ in range(100):
        m = random_model(rng)
        u = random_update(rng)
        m2 = update_model(m, u)
        assert m2.states == m.states
        assert m2.valuation == m.valuation
        assert m2.point == m.point
        for a in m.agents:
            assert m2.arrow_set(a) <= m.arrow_set(a)


def test_clause_order_and_duplication_irrelevant():
    rng = random.Random(8)
    for _ in range(100):
        m = random_model(rng)
        u = random_update(rng)
        shuffled = list(u.clauses)
        rng.shuffle(shuffled)
        doubled = Update(tuple(shuffled) + (u.clauses[0],))
        assert update_model(m, u) == update_model(m, doubled)


def test_agrees_with_longhand_filtering():
    rng = random.Random(12)
    for _ in range(150):
        m = random_model(rng)
        u = random_update(rng)
        assert update_model(m, u) == naive_apply(m, u)

