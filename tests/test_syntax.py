import random
import re

import pytest
from hypothesis import given, strategies as st

from aaul import (
    AaulError,
    And,
    ArbBox,
    ArbDiamond,
    Atom,
    BOT,
    Box,
    Clause,
    Diamond,
    Iff,
    Implies,
    KripkeModel,
    Not,
    Or,
    ParseError,
    TOP,
    Update,
    UpdateBox,
    conj,
    disj,
    encode,
    flatten_conj,
    is_quantifier_free,
    parse_formula,
    parse_tiles,
    parse_update,
    print_formula,
    print_update,
    satisfies,
    signature,
)
from aaul.syntax import local_depth
from helpers import random_ast, random_model, random_quantifier_free


def test_basic_parse():
    assert parse_formula("p & ~q") == And(Atom("p"), Not(Atom("q")))
    assert parse_formula("true") == TOP
    assert parse_formula("false") == BOT
    assert parse_formula("[a]p -> <a>p") == Implies(Box("a", Atom("p")), Diamond("a", Atom("p")))


def test_update_literal_parse():
    f = parse_formula("[{(p|[a]false,b,true)}]<*>true")
    expected = UpdateBox(
        Update((Clause(Or(Atom("p"), Box("a", BOT)), "b", TOP),)),
        ArbDiamond(TOP),
    )
    assert f == expected
    assert parse_formula("[*]true") == ArbBox(TOP)
    assert parse_formula("<*>false") == ArbDiamond(BOT)


def test_parse_update_entry_point():
    u = parse_update("{(p,a,true),(true,b,~q)}")
    assert u == Update((
        Clause(Atom("p"), "a", TOP),
        Clause(TOP, "b", Not(Atom("q"))),
    ))


def test_precedence():
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert parse_formula("p & q | r") == Or(And(p, q), r)
    assert parse_formula("p | q & r") == Or(p, And(q, r))
    assert parse_formula("p -> q -> r") == Implies(p, Implies(q, r))
    assert parse_formula("p <-> q -> r") == Iff(p, Implies(q, r))
    assert parse_formula("~p & q") == And(Not(p), q)
    assert parse_formula("[a]p & q") == And(Box("a", p), q)


def test_binary_operators_fold_right():
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert parse_formula("p & q & r") == And(p, And(q, r))
    assert parse_formula("p | q | r") == Or(p, Or(q, r))
    assert parse_formula("p <-> q <-> r") == Iff(p, Iff(q, r))


def test_parentheses_override():
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert parse_formula("(p | q) & r") == And(Or(p, q), r)
    assert parse_formula("(p -> q) -> r") == Implies(Implies(p, q), r)


def test_printer_minimal_parens():
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert print_formula(And(Or(p, q), r)) == "(p | q) & r"
    assert print_formula(Or(And(p, q), r)) == "p & q | r"
    assert print_formula(Implies(Implies(p, q), r)) == "(p -> q) -> r"
    assert print_formula(Not(And(p, q))) == "~(p & q)"
    assert print_formula(Box("a", Implies(p, q))) == "[a](p -> q)"
    assert print_formula(And(p, And(q, r))) == "p & q & r"


def test_print_update():
    u = parse_update("{(p | [a]false,b,true)}")
    assert print_update(u) == "{(p | [a]false,b,true)}"
    assert parse_update(print_update(u)) == u


def _position_id(value):
    """A row's id names the position alone, as when only that was pinned."""
    m = re.search(r"\(at (position \d+)\)$", value)
    return m[1] if m else None


@pytest.mark.parametrize(
    "text,message",
    [
        ("p &", "expected a formula, found 'end of input' (at position 3)"),
        ("p q", "trailing input after formula: 'q' (at position 2)"),
        ("[a p", "expected ']', found 'p' (at position 3)"),
        ("(p", "expected ')', found 'end of input' (at position 2)"),
        ("", "expected a formula, found 'end of input' (at position 0)"),
        ("p $ q", "unexpected character '$' (at position 2)"),
        ("[{}]p", "expected '(', found '}' (at position 2)"),
        ("[{(p,a)}]p", "expected ',', found ')' (at position 6)"),
        ("<*", "unexpected character '*' (at position 1)"),
        # an unexpected character anywhere wins over a grammar error before it
        ("p q \u00e9", "unexpected character '\u00e9' (at position 4)"),
        ("p ->\t-> q", "expected a formula, found '->' (at position 5)"),
        ("p) ", "trailing input after formula: ')' (at position 1)"),
        ("[]p", "expected an agent name, found ']' (at position 1)"),
        ("<>p", "expected an agent name, found '>' (at position 1)"),
        ("[a>p", "expected ']', found '>' (at position 2)"),
        ("<a]p", "expected '>', found ']' (at position 2)"),
        ("(p &\n q", "expected ')', found 'end of input' (at position 7)"),
        ("[{(p a,q)}]p", "expected ',', found 'a' (at position 5)"),
        ("[{(p,a,q)]p", "expected '}', found ']' (at position 9)"),
        ("[{(p,a,q)}>p", "expected ']', found '>' (at position 10)"),
        ("<{(p,a,q)}]p", "expected '>', found ']' (at position 10)"),
        ("[{(p,a,q)(q,a,p)}]p", "expected '}', found '(' (at position 9)"),
        ("[{(p,a,q),}]p", "expected '(', found '}' (at position 10)"),
        ("[{(p,&,q)}]p", "expected an agent name, found '&' (at position 5)"),
        ("[{(->,a,q)}]p", "expected a formula, found '->' (at position 3)"),
        ("[{(p,a,[*])}]p", "expected a formula, found ')' (at position 10)"),
        ("[{(p,a,q $)}]p", "unexpected character '$' (at position 9)"),
        ("[ * ]p", "unexpected character '*' (at position 2)"),
    ],
    ids=_position_id,
)
def test_parse_errors_carry_position(text, message):
    with pytest.raises(ParseError) as exc:
        parse_formula(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text,message",
    [
        ("{(p,a,true)} extra", "trailing input after update: 'extra' (at position 13)"),
        ("(p,a,q)", "expected '{', found '(' (at position 0)"),
        ("{(p,a,q)", "expected '}', found 'end of input' (at position 8)"),
        (" ", "expected '{', found 'end of input' (at position 1)"),
        ("{(p,a,q)} -", "unexpected character '-' (at position 10)"),
    ],
    ids=_position_id,
)
def test_update_parse_errors(text, message):
    with pytest.raises(ParseError) as exc:
        parse_update(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "parse,text",
    [
        (parse_formula, "~" * 3000 + "p"),
        (parse_formula, "(" * 3000 + "p" + ")" * 3000),
        (parse_update, "{(" + "~" * 3000 + "p,a,true)}"),
    ],
    ids=["negations", "parentheses", "update"],
)
def test_deep_nesting_is_a_parse_error(parse, text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse(text)


def test_parse_update_rejects_trailing_junk():
    with pytest.raises(ParseError):
        parse_update("{(p,a,true)} extra")


def test_reserved_words_are_constants():
    assert parse_formula("true & p") == And(TOP, Atom("p"))
    f = parse_formula("truely")
    assert f == Atom("truely")


def test_update_needs_clause():
    with pytest.raises(ValueError):
        Update(())


def test_round_trip_seeded():
    rng = random.Random(2024)
    for _ in range(1000):
        f = random_ast(rng, rng.randint(0, 4))
        assert parse_formula(print_formula(f)) == f


_LOOSE_BINARY = {And: "&", Or: "|", Implies: "->", Iff: "<->"}
_LOOSE_PREFIX = {Not: "~", ArbBox: "[*]", ArbDiamond: "<*>"}


def _loose_tokens(f):
    """f's tokens, with each binary operand, and each binary formula, in
    parentheses."""
    kind = type(f)
    if kind is Atom:
        return [f.name]
    if f == TOP or f == BOT:
        return ["true" if f == TOP else "false"]
    if kind in _LOOSE_BINARY:
        left, right = _loose_tokens(f.left), _loose_tokens(f.right)
        return ["(", "(", *left, ")", _LOOSE_BINARY[kind], "(", *right, ")", ")"]
    if kind in _LOOSE_PREFIX:
        return [_LOOSE_PREFIX[kind], *_loose_tokens(f.body)]
    open_, close = ("[", "]") if kind in (Box, UpdateBox) else ("<", ">")
    if kind in (Box, Diamond):
        label = [f.agent]
    else:
        label = ["{"]
        for i, c in enumerate(f.update.clauses):
            label += [","] * (i > 0) + ["(", *_loose_tokens(c.pre), ",", c.agent, ",", *_loose_tokens(c.post), ")"]
        label.append("}")
    return [open_, *label, close, *_loose_tokens(f.body)]


def test_round_trip_of_loose_text():
    # text no printer writes: parentheses around every binary operand, and
    # any run of spaces, tabs and newlines, or none, between tokens
    rng = random.Random(77)
    for _ in range(1000):
        f = random_ast(rng, rng.randint(0, 4))
        text = ""
        for tok in _loose_tokens(f):
            text += rng.choice(["", "", " ", "  ", "\t", "\n", " \n\t"]) + tok
        text += rng.choice(["", " ", "\n"])
        assert parse_formula(text) == f, text


_atom_names = st.sampled_from(["p", "q", "r1", "x_0"])
_agents = st.sampled_from(["a", "b", "c0"])

_formulas = st.recursive(
    st.one_of(
        st.builds(Atom, _atom_names),
        st.just(TOP),
        st.just(BOT),
    ),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Implies, inner, inner),
        st.builds(Iff, inner, inner),
        st.builds(Box, _agents, inner),
        st.builds(Diamond, _agents, inner),
        st.builds(ArbBox, inner),
        st.builds(ArbDiamond, inner),
        st.builds(
            UpdateBox,
            st.builds(
                lambda cs: Update(tuple(cs)),
                st.lists(st.builds(Clause, inner, _agents, inner), min_size=1, max_size=2),
            ),
            inner,
        ),
    ),
    max_leaves=12,
)


@given(_formulas)
def test_round_trip_hypothesis(f):
    assert parse_formula(print_formula(f)) == f


def test_conj_disj_flatten():
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert conj([]) == TOP
    assert disj([]) == BOT
    assert conj([p]) == p
    assert conj([p, q, r]) == And(p, And(q, r))
    assert flatten_conj(conj([p, q, r])) == (p, q, r)
    assert flatten_conj(p) == (p,)
    assert flatten_conj(disj([p, q, r]), Or) == (p, q, r)
    assert flatten_conj(disj([p, q, r])) == (disj([p, q, r]),)


def test_signature():
    f = parse_formula("[{(p,a,q)}]<b>r")
    atoms, agents = signature(f)
    assert atoms == {"p", "q", "r"}
    assert agents == {"a", "b"}


def test_is_quantifier_free():
    assert is_quantifier_free(parse_formula("[a]p & [{(q,b,true)}]r"))
    assert not is_quantifier_free(parse_formula("[*]p"))
    assert not is_quantifier_free(parse_formula("[{(<*>true,a,p)}]q"))


def test_local_depth():
    for text, depth in [
        ("p & ~true", 0),
        ("<a>p | [b]<a>q", 2),
        ("[{(<a><a>p,a,true)}]q", 0),  # the body looks at its state alone
        ("[{(<a><a>p,a,true)}]<a>q", 3),
        ("<{(p,a,[b]q),(true,b,p)}>[a][a]r", 3),
        ("[*]p", None),
        ("[{(<*>true,a,p)}]<a>q", None),
    ]:
        assert local_depth(parse_formula(text)) == depth, text
    f = Atom("p")
    for _ in range(5000):
        f = Diamond("a", f)
    assert local_depth(f) == 5000


def test_local_depth_bounds_what_a_formula_reads():
    # redrawing every arrow out of a state at distance >= local_depth from
    # the point, and every arrow of an agent f never mentions, keeps f's
    # truth at the point
    rng = random.Random(5)
    for _ in range(300):
        m = random_model(rng, max_states=4)
        f = random_quantifier_free(rng, rng.randint(1, 4))
        depth, read = local_depth(f), signature(f)[1]
        near, frontier = set(), {m.point}
        for _ in range(depth):
            near |= frontier
            frontier = {t for a in read for s, t in m.arrows[a] if s in frontier} - near
        arrows = {
            a: {(s, t) for s, t in m.arrows[a] if s in near and a in read}
            | {(s, t) for s in m.states for t in m.states if not (s in near and a in read) and rng.random() < 0.5}
            for a in m.agents
        }
        other = KripkeModel(m.states, m.agents, m.props, arrows, m.valuation, point=m.point)
        assert satisfies(m, m.point, f) == satisfies(other, m.point, f), print_formula(f)


def test_walker_takes_any_depth():
    # built through the API, so no parser stands in front; a recursive walk
    # overflows the stack here
    f = Atom("p")
    for _ in range(5000):
        f = Not(f)
    assert signature(f) == ({"p"}, set())
    assert is_quantifier_free(f)
    assert not is_quantifier_free(And(f, ArbBox(TOP)))


@pytest.mark.parametrize("op", ["&", "|", "->", "<->"])
def test_long_flat_chain_parses_and_prints(op):
    # a flat chain is read and written in a loop; it nests only as a tree
    text = f" {op} ".join(f"p{i}" for i in range(3000))
    f = parse_formula(text)
    assert print_formula(f) == text
    assert flatten_conj(f, type(f)) == tuple(Atom(f"p{i}") for i in range(3000))


def test_print_formula_too_deep_is_a_package_error():
    # built through the API, so no parser stands in front
    f = Atom("p")
    for _ in range(3000):
        f = Not(f)
    with pytest.raises(AaulError, match="nested too deeply"):
        print_formula(f)


def _many_tiles(n):
    return parse_tiles("".join(f"tile T{i} N=c{i} E=c{i} S=c{i} W=c{i}\n" for i in range(n)))


def _nots(n, leaf):
    f = leaf
    for _ in range(n):
        f = Not(f)
    return f


def test_equality_and_hash_take_any_depth():
    # one_tile for 50 tiles is a 1226-part chain, far deeper than the stack
    # allows a recursive == or hash
    f, g = encode(_many_tiles(50)), encode(_many_tiles(50))
    assert f is not g and f == g and hash(f) == hash(g)
    assert f != encode(_many_tiles(49))
    deep_p, deep_q = _nots(5000, Atom("p")), _nots(5000, Atom("q"))
    assert deep_p == _nots(5000, Atom("p")) and deep_p != deep_q
    assert len({deep_p, _nots(5000, Atom("p")), deep_q}) == 2
    u = Update((Clause(deep_p, "a", TOP),))
    assert UpdateBox(u, deep_q) == UpdateBox(Update((Clause(_nots(5000, Atom("p")), "a", TOP),)), deep_q)
    assert UpdateBox(u, deep_q) != UpdateBox(Update((Clause(deep_q, "a", TOP),)), deep_q)



def test_repr_takes_any_depth():
    # the text of the dataclass repr, update clauses included
    assert repr(parse_formula("[{(p,a,~q),(true,b,q)}]<a>r & [*]false")) == (
        "And(left=UpdateBox(update=Update(clauses=("
        "Clause(pre=Atom(name='p'), agent='a', post=Not(body=Atom(name='q'))), "
        "Clause(pre=Top(), agent='b', post=Atom(name='q')))), "
        "body=Diamond(agent='a', body=Atom(name='r'))), right=ArbBox(body=Bot()))"
    )
    assert repr(parse_formula("<{(p,a,q)}>r")) == (
        "UpdateDiamond(update=Update(clauses=(Clause(pre=Atom(name='p'), agent='a', "
        "post=Atom(name='q')),)), body=Atom(name='r'))"
    )
    assert repr(_nots(5000, Atom("p"))) == "Not(body=" * 5000 + "Atom(name='p')" + ")" * 5000
    deep_update = UpdateBox(Update((Clause(_nots(5000, Atom("p")), "a", TOP),)), TOP)
    assert repr(deep_update).count("Not(body=") == 5000
    text = repr(encode(_many_tiles(50)))
    assert text.startswith("And(left=") and "Atom(name='p_T49')" in text

UNEQUAL_TWINS = [
    ("[a]p", "<a>p"), ("[a]p", "[b]p"), ("[*]p", "<*>p"), ("p & q", "p | q"),
    ("p -> q", "q -> p"), ("p -> q", "p <-> q"), ("true", "false"), ("p", "~p"),
    ("(p & q) & r", "p & q & r"), ("[{(p,a,q)}]r", "<{(p,a,q)}>r"),
    ("[{(p,a,q)}]r", "[{(p,b,q)}]r"), ("[{(p,a,q)}]r", "[{(q,a,p)}]r"),
    ("[{(p,a,q)}]r", "[{(p,a,q),(p,a,q)}]r"),
]


@pytest.mark.parametrize("left, right", UNEQUAL_TWINS)
def test_equality_tells_kinds_and_fields_apart(left, right):
    f, g = parse_formula(left), parse_formula(right)
    assert f != g and not f == g
    assert f == parse_formula(left) and hash(f) == hash(parse_formula(left))


def test_equality_is_structural():
    # printing is injective (parse_formula inverts it), so two trees are
    # equal exactly when their texts are
    rng = random.Random(109)
    for _ in range(400):
        f, g = random_ast(rng, 3), random_ast(rng, rng.choice((0, 1, 3)))
        same = print_formula(f) == print_formula(g)
        assert (f == g) == same and (f != g) != same
        again = parse_formula(print_formula(f))
        assert again == f and hash(again) == hash(f)
    assert Atom("p") != "p" and TOP != BOT
    assert Clause(Atom("p"), "a", TOP) == Clause(Atom("p"), "a", TOP)
    assert len({Atom("p"), Atom("p"), TOP, TOP, BOT}) == 3
