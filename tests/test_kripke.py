import os
import random
import subprocess
import sys

import pytest

import aaul
from aaul import (
    KripkeModel,
    ModelFormatError,
    UnknownAgentError,
    UnknownStateError,
    export_dot,
    load_model,
    parse_tiles,
    save_model,
)
from helpers import random_model

WV_TEXT = "states: w v\nagent a: w->v v->v\nval p: v\npoint: w\n"


def wv_model():
    return KripkeModel(
        states=("w", "v"),
        agents=("a",),
        props=("p",),
        arrows={"a": {("w", "v"), ("v", "v")}},
        valuation={"p": {"v"}},
        point="w",
    )


def test_load_save_fixed():
    m = load_model(WV_TEXT)
    assert m == wv_model()
    assert save_model(m) == WV_TEXT


def test_load_accepts_comments_and_blanks():
    text = "# a model\n\nstates: w v  # two states\nagent a: w->v v->v\nval p: v\npoint: w\n"
    assert load_model(text) == wv_model()


def test_save_emits_empty_declarations():
    m = KripkeModel(("s",), ("a", "b"), ("p",), {"a": {("s", "s")}}, {}, None)
    text = save_model(m)
    assert "agent b:\n" in text
    assert "val p:\n" in text
    assert load_model(text) == m


def test_round_trip_random():
    rng = random.Random(99)
    for _ in range(150):
        m = random_model(rng, max_states=5)
        assert load_model(save_model(m)) == m


def test_save_deterministic_across_construction_order():
    a = KripkeModel(
        ("s0", "s1"), ("a",), ("p", "q"),
        {"a": {("s1", "s0"), ("s0", "s1")}},
        {"q": {"s1", "s0"}, "p": set()},
        "s0",
    )
    b = KripkeModel(
        ("s0", "s1"), ("a",), ("p", "q"),
        {"a": {("s0", "s1"), ("s1", "s0")}},
        {"p": frozenset(), "q": {"s0", "s1"}},
        "s0",
    )
    assert a == b
    assert a.fingerprint == b.fingerprint
    assert save_model(a) == save_model(b)


def test_declaration_order_is_identity():
    a = KripkeModel(("s", "t"), ("a",), (), {"a": set()}, {}, None)
    b = KripkeModel(("t", "s"), ("a",), (), {"a": set()}, {}, None)
    assert a != b
    assert save_model(a) != save_model(b)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("agent a: w->v\n", "missing states"),
        ("states: w w\n", "duplicate state"),
        ("states: w\nstates: v\n", "duplicate states line"),
        ("states: w\nagent a: w>w\n", "source->target"),
        ("states: w\nagent a: w->v\n", "leaves declared states"),
        ("states: w\nval p: v\n", "unknown state"),
        ("states: w\npoint: v\n", "not a declared state"),
        ("states: w\npoint: w v\n", "exactly one state"),
        ("states: w\npoint: w\npoint: w\n", "duplicate point"),
        ("states: w\nagent a: \nagent a:\n", "duplicate agent"),
        ("states: w\nval p:\nval p: w\n", "duplicate val"),
        ("states: w\nwibble: w\n", "unknown declaration"),
        ("states: w\nagent a w->w\n", "expected 'keyword:'"),
    ],
)
def test_load_errors(text, fragment):
    with pytest.raises(ModelFormatError) as exc:
        load_model(text)
    assert fragment in str(exc.value)


def test_load_error_line_numbers():
    with pytest.raises(ModelFormatError) as exc:
        load_model("states: w\n# fine\nagent a: w->x\n")
    assert str(exc.value) == "line 3: arrow w->x for agent 'a' leaves declared states"
    assert exc.value.line == 3


@pytest.mark.parametrize("seed", ["1", "4"])
def test_bad_arrow_named_in_file_order_under_any_hash_seed(seed):
    # the arrows are checked in the order given, not in the order of the
    # frozenset they are kept in, which changes with the hash seed
    src = os.path.dirname(os.path.dirname(aaul.__file__))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "aaul.cli", "check", "-", "true"],
        input="states: s\nagent a: s->t u->s s->v\n", capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: line 2: arrow s->t for agent 'a' leaves declared states\n"


@pytest.mark.parametrize(
    "parse,text,message",
    [
        # a model the constructor refuses: the line of the declaration at fault
        (load_model, "states: s\nagent a: s->t\n", "line 2: arrow s->t for agent 'a' leaves declared states"),
        (load_model, "states: s\nagent a: s->s\nagent b: s->t", "line 3: arrow s->t for agent 'b' leaves declared states"),
        (load_model, "states: s\nval p: t\npoint: s\n", "line 2: valuation of 'p' mentions unknown state 't'"),
        (load_model, "states: s\n\n# c\npoint: t\n\n", "line 4: point 't' is not a declared state"),
        (load_model, "# c\nstates:\nval p:\n", "line 2: a model needs at least one state"),
        (load_model, "val p:\nstates: s-1\n", "line 2: bad state name 's-1': use [A-Za-z0-9_]+"),
        (load_model, "states: s\nagent a-b:\nagent c:\n", "line 2: bad agent name 'a-b': use [A-Za-z0-9_]+"),
        (load_model, "states: s\nval q:\nval p!: s\n", "line 3: bad proposition name 'p!': use [A-Za-z0-9_]+"),
        # a whole-file error: the last line, or line 1 for an empty file
        (load_model, "agent a:\n", "line 1: missing states line"),
        (load_model, "agent a:\n\n# c", "line 3: missing states line"),
        (load_model, "", "line 1: missing states line"),
        (parse_tiles, "colors: a\n", "line 1: no tiles declared"),
        (parse_tiles, "colors: a\n\n", "line 2: no tiles declared"),
        (parse_tiles, "", "line 1: no tiles declared"),
    ],
)
def test_file_errors_name_their_line(parse, text, message):
    with pytest.raises(ModelFormatError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_constructor_validation():
    with pytest.raises(ValueError):
        KripkeModel((), (), (), {}, {}, None)
    with pytest.raises(ValueError):
        KripkeModel(("s", "s"), (), (), {}, {}, None)
    with pytest.raises(ValueError):
        KripkeModel(("s",), (), (), {"a": set()}, {}, None)
    with pytest.raises(ValueError):
        KripkeModel(("s",), ("a",), (), {"a": {("s", "t")}}, {}, None)
    with pytest.raises(ValueError):
        KripkeModel(("s",), (), ("p",), {}, {"p": {"t"}}, None)
    with pytest.raises(ValueError):
        KripkeModel(("s",), (), (), {}, {}, "t")
    with pytest.raises(ValueError):
        KripkeModel(("bad name",), (), (), {}, {}, None)


def test_accessors():
    m = wv_model()
    assert m.successors("a", "w") == ("v",)
    assert m.successors("a", "v") == ("v",)
    assert m.props_at("v") == ("p",)
    assert m.props_at("w") == ()
    assert m.arrow_set("a") == frozenset({("w", "v"), ("v", "v")})
    with pytest.raises(UnknownAgentError):
        m.successors("b", "w")
    with pytest.raises(UnknownStateError):
        m.successors("a", "nope")
    with pytest.raises(UnknownStateError):
        m.state_index("nope")


def test_with_arrows_and_point():
    m = wv_model()
    m2 = m.with_arrows({"a": {("w", "v")}})
    assert m2.arrow_set("a") == frozenset({("w", "v")})
    assert m2.valuation == m.valuation and m2.point == m.point
    assert m.with_point(None).point is None


def test_export_dot_fixed():
    got = export_dot(wv_model())
    expected = (
        "digraph model {\n"
        '  "w" [label="w", shape=doublecircle];\n'
        '  "v" [label="v\\np", shape=circle];\n'
        '  "w" -> "v" [label="a"];\n'
        '  "v" -> "v" [label="a"];\n'
        "}\n"
    )
    assert got == expected
    assert got.count("->") == 2


def test_export_dot_quotes_keywords_and_leading_digits():
    # unquoted, `node [...]` would set default attributes and `edge -> 1a`
    # would start from a keyword and end at an invalid ID
    m = load_model("states: node edge 1a\nagent a: edge->1a node->node\npoint: node\n")
    assert export_dot(m) == (
        "digraph model {\n"
        '  "node" [label="node", shape=doublecircle];\n'
        '  "edge" [label="edge", shape=circle];\n'
        '  "1a" [label="1a", shape=circle];\n'
        '  "node" -> "node" [label="a"];\n'
        '  "edge" -> "1a" [label="a"];\n'
        "}\n"
    )


def test_fingerprint_tracks_equality():
    rng = random.Random(3)
    for _ in range(100):
        m = random_model(rng, max_states=4)
        again = KripkeModel(m.states, m.agents, m.props, m.arrows, m.valuation, m.point)
        assert m == again and m.fingerprint == again.fingerprint and hash(m) == hash(again)
        if m.arrows["a"]:
            poked = m.with_arrows({**m.arrows, "a": frozenset(list(m.arrows["a"])[1:])})
            assert poked != m and poked.fingerprint != m.fingerprint


def test_with_arrows_and_constructor_still_validate():
    m = wv_model()
    with pytest.raises(ValueError, match="leaves declared states"):
        m.with_arrows({"a": {("w", "x")}})
    with pytest.raises(ValueError, match="undeclared agent"):
        m.with_arrows({"b": set()})
    for names in [(("s", "s"), (), ()), (("s",), ("a", "a"), ()), (("s",), (), ("p", "p"))]:
        with pytest.raises(ValueError, match="duplicate"):
            KripkeModel(*names, {}, {}, None)
    for names in [(("s t",), (), ()), (("s",), ("a-b",), ()), (("s",), (), ("",))]:
        with pytest.raises(ValueError, match="bad"):
            KripkeModel(*names, {}, {}, None)


def test_derived_model_equals_validated_one():
    rng = random.Random(5)
    for _ in range(100):
        m = random_model(rng, max_states=4)
        other = random_model(rng, max_states=4)
        if other.states != m.states:
            continue
        derived = m._derive(other.arrows, other.valuation)
        checked = KripkeModel(m.states, m.agents, m.props, other.arrows, other.valuation, m.point)
        assert derived == checked
        assert derived.fingerprint == checked.fingerprint and hash(derived) == hash(checked)
