import random

import pytest

from aaul import (
    KripkeModel,
    UnknownStateError,
    arrow_blocks,
    characteristic_formulas,
    coarsest_partition,
    is_quantifier_free,
    load_model,
)
from helpers import naive_bisim, naive_eval, random_model


def test_partition_fixed_examples():
    m = load_model("states: w v\nagent a: w->v v->v\nval p: v\n")
    part = coarsest_partition(m)
    assert part.blocks == (frozenset({"w"}), frozenset({"v"}))
    assert part.block_of("w") == 0 and part.block_of("v") == 1

    sym = load_model("states: s t\nagent a: s->t t->s\n")
    part = coarsest_partition(sym)
    assert part.blocks == (frozenset({"s", "t"}),)
    assert part.rounds == 0


def test_partition_needs_a_round():
    # same valuation everywhere, but only s2 is a dead end
    m = load_model("states: s0 s1 s2\nagent a: s0->s1 s1->s2\n")
    part = coarsest_partition(m)
    assert len(part.blocks) == 3
    assert part.rounds == 2


def test_blocks_ordered_by_first_state():
    m = load_model("states: s0 s1 s2 s3\nagent a:\nval p: s1 s3\n")
    part = coarsest_partition(m)
    assert part.blocks == (frozenset({"s0", "s2"}), frozenset({"s1", "s3"}))


def test_matches_naive_fixpoint():
    rng = random.Random(31)
    for _ in range(120):
        m = random_model(rng, max_states=6)
        part = coarsest_partition(m)
        rel = naive_bisim(m)
        for s in m.states:
            for t in m.states:
                assert (part.block_of(s) == part.block_of(t)) == ((s, t) in rel)


def test_partition_block_of_api():
    m = load_model("states: s t\nagent a: s->t t->s\n")
    part = coarsest_partition(m)
    assert part.block_of("s") == part.block_of("t")
    with pytest.raises(UnknownStateError):
        part.block_of("nope")


def test_arrow_blocks_cover_and_order():
    rng = random.Random(17)
    for _ in range(80):
        m = random_model(rng, max_states=5)
        part = coarsest_partition(m)
        blocks = arrow_blocks(m, part)
        seen = {a: set() for a in m.agents}
        for b in blocks:
            assert b.arrows
            for s, t in b.arrows:
                assert part.block_of(s) == b.source_block
                assert part.block_of(t) == b.target_block
                assert (s, t) in m.arrow_set(b.agent)
                seen[b.agent].add((s, t))
        for a in m.agents:
            assert seen[a] == set(m.arrow_set(a))
        keys = [(m.agents.index(b.agent), b.source_block, b.target_block) for b in blocks]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_characteristic_formulas_define_their_blocks():
    rng = random.Random(23)
    for _ in range(60):
        m = random_model(rng, max_states=4)
        part = coarsest_partition(m)
        chars = characteristic_formulas(m, part)
        assert len(chars) == len(part.blocks)
        for i, block in enumerate(part.blocks):
            assert is_quantifier_free(chars[i])
            for s in m.states:
                assert naive_eval(m, s, chars[i]) == (s in block)


def test_characteristic_formula_empty_relation():
    m = KripkeModel(("s",), ("a",), ("p",), {}, {"p": {"s"}}, None)
    part = coarsest_partition(m)
    assert part.rounds == 0
    chars = characteristic_formulas(m, part)
    assert naive_eval(m, "s", chars[0])
