import contextlib
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from aaul import (
    AaulError,
    ArbBox,
    ArbDiamond,
    Budget,
    conj,
    encode,
    load_model,
    parse_formula,
    parse_tiles,
    print_formula,
    print_update,
    save_model,
)
from aaul import cli
from helpers import (
    invoke,
    naive_apply,
    naive_eval,
    naive_sat_search,
    random_formula,
    random_model,
    random_quantifier_free,
    random_update,
    single_quantifier_formula,
)

WV = "states: w v\nagent a: w->v v->v\nval p: v\npoint: w\n"
TILES = "tile A N=g E=b S=g W=w\ntile B N=g E=w S=g W=b\n"


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(WV)
    return str(path)


@pytest.fixture
def tiles_file(tmp_path):
    path = tmp_path / "tiles.txt"
    path.write_text(TILES)
    return str(path)


def test_check_true_false(model_file):
    code, out, _ = invoke(["check", model_file, "<a>p"])
    assert (code, out) == (0, "true\n")
    code, out, _ = invoke(["check", model_file, "[*]<a>true"])
    assert (code, out) == (1, "false\n")


def test_check_state_override(model_file):
    code, out, _ = invoke(["check", model_file, "p", "--state", "v"])
    assert (code, out) == (0, "true\n")
    code, _, err = invoke(["check", model_file, "p", "--state", "zz"])
    assert code == 2 and "zz" in err


def test_check_needs_some_state(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("states: w\nagent a:\n")
    code, _, err = invoke(["check", str(path), "true"])
    assert code == 2 and "point" in err


def test_check_stdin_dash():
    code, out, _ = invoke(["check", "-", "p", "--state", "v"], stdin_text=WV)
    assert (code, out) == (0, "true\n")


def test_check_parse_error(model_file):
    code, _, err = invoke(["check", model_file, "p &"])
    assert code == 2 and "position" in err


def test_check_deep_formula_is_a_parse_error(model_file):
    code, _, err = invoke(["check", model_file, "~" * 3000 + "p"])
    assert code == 2 and err.startswith("error:") and "nested too deeply" in err


def test_check_deep_formula_decides(model_file):
    # 400 nested <a> cost 400 evaluator frames, well within the stack
    code, out, err = invoke(["check", model_file, "<a>" * 400 + "true"])
    assert (code, out, err) == (0, "true\n", "")


def test_check_long_conjunction(model_file):
    # a flat conjunction is one node, one frame deep, however long
    code, out, _ = invoke(["check", model_file, " & ".join(["<a>p"] * 2000)])
    assert (code, out) == (0, "true\n")


@pytest.mark.parametrize("n", [30, 70])
def test_check_long_disjunction(model_file, n):
    # a | chain is one n-ary node, like a & chain, so it is as shallow
    code, out, _ = invoke(["check", model_file, " | ".join(["[a]~p"] * (n - 1) + ["<a>p"])])
    assert (code, out) == (0, "true\n")
    code, out, _ = invoke(["check", model_file, " | ".join(["[a]~p"] * n)])
    assert (code, out) == (1, "false\n")


def test_check_budget_option(model_file):
    code, _, err = invoke(["check", model_file, "[*]p", "--max-blocks", "1"])
    assert code == 2 and "arrow blocks" in err


# agent a has no arrows; b's three arrows fall in three blocks
NEEDS = "states: s t\nagent a:\nagent b: s->t t->s s->s\nval p: s\npoint: s\n"


@pytest.mark.parametrize(
    "formula,expected",
    [
        # no arrow of a to judge the clause on
        ("[{([*]p,a,true)}]true", (0, "true\n", "")),
        # the first clause keeps every arrow
        ("[{(true,b,true),([*]p,b,true)}]true", (0, "true\n", "")),
        ("[{([*]p,b,true)}]true", (2, "", "error: 3 arrow blocks exceed the cap of 1\n")),
        # s->t and s->s are left after the first clause, and start in true
        ("[{(~p,b,true),(true,b,[*]p)}]true", (2, "", "error: 3 arrow blocks exceed the cap of 1\n")),
    ],
)
def test_update_judges_only_the_clauses_it_needs(formula, expected):
    assert invoke(["check", "-", formula, "--max-blocks", "1"], NEEDS) == expected


def test_missing_file():
    code, _, err = invoke(["check", "/nonexistent/m.txt", "p"])
    assert code == 2 and err.startswith("error:")


def test_usage_error():
    code, _, err = invoke(["frobnicate"])
    assert code == 2 and err


def test_apply(model_file):
    code, out, _ = invoke(["apply", model_file, "--update", "{(~p,a,p)}"])
    assert code == 0
    assert out == "states: w v\nagent a: w->v\nval p: v\npoint: w\n"


def test_apply_output_file(model_file, tmp_path):
    target = tmp_path / "out.txt"
    code, out, _ = invoke(["apply", model_file, "--update", "{(true,a,true)}", "-o", str(target)])
    assert code == 0 and out == ""
    assert load_model(target.read_text()) == load_model(WV)


def test_apply_matches_naive_reference():
    rng = random.Random(20261018)
    for _ in range(60):
        m = random_model(rng)
        u = random_update(rng, rng.randint(0, 2))
        code, out, _ = invoke(["apply", "-", "--update", print_update(u)], save_model(m))
        assert (code, out) == (0, save_model(naive_apply(m, u))), print_update(u)


def test_bisim(model_file):
    code, out, _ = invoke(["bisim", model_file])
    assert code == 0
    assert out == "w\nv\n"


def test_dot(model_file):
    code, out, _ = invoke(["dot", model_file])
    assert code == 0
    assert "doublecircle" in out
    assert out.count("->") == 2


def test_encode_tiling_full(tiles_file):
    code, out, _ = invoke(["encode-tiling", tiles_file])
    assert code == 0
    assert parse_formula(out.strip()) == encode(parse_tiles(TILES))


def test_encode_tiling_many_tiles():
    # one_tile conjoins n(n-1)/2 + 1 parts, 1226 for 50 tiles: the flat chain
    # is printed and parsed in a loop, and == walks the deep trees in a loop
    tiles = "".join(f"tile T{i} N=c{i} E=c{i} S=c{i} W=c{i}\n" for i in range(50))
    code, out, err = invoke(["encode-tiling", "-"], tiles)
    assert (code, err) == (0, "")
    assert parse_formula(out) == encode(parse_tiles(tiles))
    assert print_formula(parse_formula(out)) + "\n" == out


def test_encode_tiling_conjunct(tiles_file):
    code, out, _ = invoke(["encode-tiling", tiles_file, "--conjunct", "refl_a"])
    assert (code, out) == (0, "<a><a>true & [*]~<a>[a]false\n")
    code, _, err = invoke(["encode-tiling", tiles_file, "--conjunct", "nope"])
    assert code == 2 and "valid names" in err


def test_tile_search_found(tiles_file):
    code, out, _ = invoke(["tile-search", tiles_file, "--max-period", "2"])
    assert code == 0
    assert out.splitlines()[0] == "period 2"
    assert "0 0 A" in out and "1 0 B" in out


def test_tile_search_exhausted(tiles_file):
    code, out, _ = invoke(["tile-search", tiles_file, "--max-period", "1"])
    assert code == 1
    assert "no periodic tiling" in out


def test_witness_model(tiles_file):
    code, out, _ = invoke(["witness-model", tiles_file, "--period", "2"])
    assert code == 0
    m = load_model(out)
    assert len(m.states) == 5 and m.point == "s0"
    assert "cell_0_0" not in m.props

    code, out, _ = invoke(["witness-model", tiles_file, "--period", "2", "--cell-props"])
    assert code == 0
    assert "cell_0_0" in load_model(out).props

    code, out, _ = invoke(["witness-model", tiles_file, "--period", "1"])
    assert code == 1 and "no periodic tiling" in out


def test_witness_model_large_period(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("tile t N=c E=c S=c W=c\n")
    code, out, err = invoke(["witness-model", str(path), "--period", "40"])
    assert (code, err) == (0, "")
    assert len(load_model(out).states) == 1 + 40 * 40


def test_sat_search_finds_minimal_model():
    code, out, _ = invoke(["sat-search", "<a>p & [a]q", "--max-states", "2"])
    assert code == 0
    m = load_model(out)
    assert len(m.states) == 1
    assert m.point == "s0"
    assert parse_formula("<a>p & [a]q") is not None


def test_sat_search_none():
    code, out, _ = invoke(["sat-search", "p & ~p", "--max-states", "2"])
    assert code == 1
    assert "none up to 2 states" in out


def test_sat_search_respects_limit():
    code, _, err = invoke([
        "sat-search", "p & ~p", "--max-states", "4", "--agents", "a,b", "--props", "p,q",
        "--limit", "1000",
    ])
    assert code == 2 and "limit" in err


def test_sat_search_max_states_is_checked_by_the_command():
    # the command words the error by its option; the library by its parameter
    assert invoke(["sat-search", "p", "--max-states", "0"]) == (2, "", "error: --max-states must be at least 1\n")
    code, _, err = invoke(["sat-search", "p", "--max-states", "0", "--max-blocks", "0"])
    assert code == 2 and "budget caps must be positive" in err


def test_sat_search_limit_bounds_the_relabelling_table():
    # no agents: few candidates, but 8 states need 7! - 1 relabelling tables
    # of 2^8 entries each
    code, out, err = invoke(["sat-search", "p & ~p", "--max-states", "8"])
    assert (code, out) == (2, "") and "over limit 1000000" in err
    code, out, _ = invoke(["sat-search", "p & ~p", "--max-states", "7"])
    assert (code, out) == (1, "none up to 7 states\n")


def test_sat_search_bad_agent_name():
    code, _, err = invoke(["sat-search", "<a>p", "--max-states", "2", "--agents", "a b"])
    assert code == 2 and err == "error: bad agent name 'a b': use [A-Za-z0-9_]+\n"


def test_sat_search_empty_names_are_none():
    # an empty --agents or --props gives no names, not the formula's own
    argv = ["sat-search", "p", "--agents", "", "--max-states", "2"]
    assert invoke(argv) == (0, "states: s0\nval p: s0\npoint: s0\n", "")
    argv[1] = "<a>p"
    assert invoke(argv) == (2, "", "error: unknown agent 'a'\n")
    assert invoke(["sat-search", "p | ~p", "--props", "", "--max-states", "1"]) == (0, "states: s0\npoint: s0\n", "")


def test_sat_search_refuses_where_check_refuses():
    # the probe on the arrowless model settles <{(true,a,[z]false)}>true
    # without judging its clause, and the one-state a-loop passes every
    # conjunct; checking f whole on that model judges the clause, and z is
    # not declared, so the search refuses as check does
    f = "<{(~~~~~p,a,<z>true)}>[{(p,a,true)}]p & <{(true,a,[z]false)}>true & <a>true"
    refusal = (2, "", "error: unknown agent 'z'\n")
    assert invoke(["sat-search", f, "--agents", "a", "--max-states", "2"]) == refusal
    assert invoke(["check", "-", f], stdin_text="states: s0\nagent a: s0->s0\npoint: s0\n") == refusal


def test_sat_search_quantified():
    # needs a state with an a-arrow that survives every update: impossible
    code, out, _ = invoke(["sat-search", "[*]<a>true", "--max-states", "2"])
    assert code == 1
    # dual: some update that removes all arrows always exists
    code, out, _ = invoke(["sat-search", "<*>[a]false", "--max-states", "1"])
    assert code == 0


def test_sat_search_checks_conjuncts_one_at_a_time():
    # each conjunct is checked on its own, and the first false one rejects
    # the candidate
    code, out, _ = invoke(["sat-search", " & ".join(["p"] * 70), "--max-states", "1"])
    assert (code, out) == (0, "states: s0\nval p: s0\npoint: s0\n")
    # a candidate that passes the plain conjuncts still reaches the [*] one;
    # <a>true is false everywhere once every arrow is gone, so [*]<a>true is
    # refuted at the empty union, under any cap
    argv = ["sat-search", "<a>p & <a>~p & [*]<a>true", "--max-states", "2", "--max-blocks", "1"]
    assert invoke(argv) == (1, "none up to 2 states\n", "")
    # p | <a>true still holds at the p-states there, so the walk goes on,
    # to the blocks and over the cap
    argv[1] = "<a>p & <a>~p & [*](p | <a>true)"
    assert invoke(argv) == (2, "", "error: 2 arrow blocks exceed the cap of 1\n")


def test_sat_search_deep_formula_decides():
    # nesting is not budgeted: 70 negations, an even number, decide as p
    code, out, err = invoke(["sat-search", "~" * 70 + "p", "--max-states", "1"])
    assert (code, out, err) == (0, "states: s0\nval p: s0\npoint: s0\n", "")


def test_sat_search_first_model_found():
    # pins the first satisfying candidate, so that a change in the
    # candidate order shows up as a different model
    f = "<a>(p & q) & <a>(p & ~q) & <a>(~p & q) & [a]<*>[a]false"
    code, out, _ = invoke(["sat-search", f, "--max-states", "3"])
    assert (code, out) == (
        0,
        "states: s0 s1 s2\nagent a: s0->s0 s0->s1 s0->s2\nval p: s0 s1\nval q: s0 s2\npoint: s0\n",
    )


# (agents, props, max states): each search space stays small enough for the
# reference, which tries every relabelling on every candidate
_SHAPES = (
    (("a",), ("p",), 3),
    (("a",), ("p", "q"), 2),
    (("a", "b"), ("p",), 2),
    (("a", "b"), ("p", "q"), 1),
)


def _random_search_formula(rng, agents, props):
    parts = []
    for _ in range(rng.randint(1, 3)):
        r = rng.random()
        if r < 0.4:
            parts.append(random_quantifier_free(rng, 2, props, agents))
        elif r < 0.7:
            parts.append(single_quantifier_formula(rng, props, agents))
        else:
            parts.append(random_formula(rng, 2, props, agents))
    return conj(parts)


def test_sat_search_matches_naive_reference():
    rng = random.Random(20260301)
    decided = 0
    for _ in range(40):
        agents, props, max_states = rng.choice(_SHAPES)
        f = _random_search_formula(rng, agents, props)
        max_blocks = rng.choice((None, None, 1, 2, 3))
        budget = Budget() if max_blocks is None else Budget(max_arrow_blocks=max_blocks)
        try:
            found = naive_sat_search(f, max_states, agents, props, budget)
        except AaulError:
            continue
        decided += 1
        expected = (0, save_model(found)) if found is not None else (1, f"none up to {max_states} states\n")
        argv = [
            "sat-search", print_formula(f), "--max-states", str(max_states),
            "--agents", ",".join(agents), "--props", ",".join(props),
        ]
        if max_blocks is not None:
            argv += ["--max-blocks", str(max_blocks)]
        code, out, _ = invoke(argv)
        assert (code, out) == expected, argv
    assert decided >= 20


def test_sat_search_quantified_matches_naive_reference():
    # with a [*]/<*> conjunct, against the reference, which checks every
    # canonical candidate whole: where it decides, the same output; where it
    # refuses, a model found must still satisfy f
    rng = random.Random(20261020)
    decided = 0
    for _ in range(40):
        agents, props, max_states = rng.choice(((("a",), ("p",), 3), (("a", "b"), ("p",), 2)))
        parts = [random_quantifier_free(rng, 2, props, agents) for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.5:
            parts.append(single_quantifier_formula(rng, props, agents))
        else:
            parts.append(rng.choice((ArbBox, ArbDiamond))(random_quantifier_free(rng, 2, props, agents)))
        f = conj(parts)
        max_blocks = rng.choice((None, 1, 2, 3))
        budget = Budget() if max_blocks is None else Budget(max_arrow_blocks=max_blocks)
        argv = [
            "sat-search", print_formula(f), "--max-states", str(max_states),
            "--agents", ",".join(agents), "--props", ",".join(props),
        ] + (["--max-blocks", str(max_blocks)] if max_blocks else [])
        code, out, _ = invoke(argv)
        try:
            found = naive_sat_search(f, max_states, agents, props, budget)
        except AaulError:
            if code == 0:
                m = load_model(out)
                assert naive_eval(m, m.point, f), argv
            continue
        expected = (0, save_model(found)) if found is not None else (1, f"none up to {max_states} states\n")
        assert (code, out) == expected, argv
        decided += 1
    assert decided >= 25


def test_sat_search_neighbourhood_reaches_two_steps():
    # the last conjunct reads the row of s2, two steps from s0; the first
    # candidate with the rows of s0 and s1 below has none, so a
    # neighbourhood that stopped at s0's successors would keep its false
    f = "p & q & [a](~p & q) & <a><a>(~q & <a>p)"
    code, out, _ = invoke(["sat-search", f, "--max-states", "3"])
    assert (code, out) == (
        0, "states: s0 s1 s2\nagent a: s0->s1 s1->s2 s2->s0\nval p: s0\nval q: s0 s1\npoint: s0\n",
    )


def test_run_calls_share_no_state():
    # the parser is built once per process, so nothing one call parses may
    # reach the next: neither its options nor a --help
    f = "<a>p & <a>~p & [*](p | <a>true)"
    plain = ["sat-search", f, "--max-states", "2"]
    found = (0, "states: s0 s1\nagent a: s0->s0 s0->s1\nval p: s0\npoint: s0\n", "")
    assert invoke(plain) == found
    refused = (2, "", "error: 2 arrow blocks exceed the cap of 1\n")
    assert invoke(plain + ["--agents", "a,b", "--max-blocks", "1"]) == refused
    assert invoke(plain) == found
    assert invoke(["--help"])[0] == 0 and invoke(["sat-search", "--help"])[0] == 0
    assert invoke(plain) == found
    assert cli._build_parser.cache_info().misses == 1


def test_help_exits_zero(capsys):
    # the help text goes to run's stdout, not the process's
    for argv, usage in ((["--help"], "usage: aaul [-h]"), (["sat-search", "--help"], "usage: aaul sat-search")):
        code, out, err = invoke(argv)
        assert code == 0 and out.startswith(usage) and err == ""
        assert capsys.readouterr().out == ""


# ------------------------------------------------------------- fuzzing

_fuzz_name = st.sampled_from(["w", "v", "x", "p", "q", "a", "b", "w-", "1", "é", ""])


@st.composite
def _fuzz_valid_model(draw):
    states = draw(st.lists(st.sampled_from(["w", "v", "x"]), min_size=1, max_size=3, unique=True))
    lines = ["states: " + " ".join(states)]
    for agent in draw(st.lists(st.sampled_from(["a", "b"]), max_size=2, unique=True)):
        pairs = draw(st.lists(st.tuples(st.sampled_from(states), st.sampled_from(states)), max_size=3))
        lines.append(f"agent {agent}:" + "".join(f" {s}->{t}" for s, t in pairs))
    for prop in draw(st.lists(st.sampled_from(["p", "q"]), max_size=2, unique=True)):
        lines.append(f"val {prop}: " + " ".join(draw(st.lists(st.sampled_from(states), max_size=3, unique=True))))
    if draw(st.integers(0, 3)):
        lines.append(f"point: {draw(st.sampled_from(states))}")
    return "\n".join(lines) + "\n"


_fuzz_model_line = st.one_of(
    st.lists(_fuzz_name, max_size=3).map(lambda ss: "states: " + " ".join(ss)),
    st.builds(
        lambda a, pairs: f"agent {a}:" + "".join(f" {s}->{t}" for s, t in pairs),
        _fuzz_name,
        st.lists(st.tuples(_fuzz_name, _fuzz_name), max_size=3),
    ),
    st.builds(lambda p, ss: f"val {p}: " + " ".join(ss), _fuzz_name, st.lists(_fuzz_name, max_size=3)),
    _fuzz_name.map(lambda s: f"point: {s}"),
    st.text(alphabet="statevlpoin :->#w\t", max_size=16),
)
# well-formed inputs listed more than once, so that most examples get past the parsers
_fuzz_model = st.one_of(_fuzz_valid_model(), _fuzz_valid_model(), st.lists(_fuzz_model_line, max_size=6).map("\n".join))
_fuzz_wellformed = st.recursive(
    st.sampled_from(["p", "q", "r", "true", "false"]),
    lambda inner: st.one_of(
        inner.map(lambda f: "~" + f),
        st.builds(lambda f, op, g: f"({f}{op}{g})", inner, st.sampled_from([" & ", " | ", " -> ", " <-> "]), inner),
        st.builds(str.__add__, st.sampled_from(["[a]", "<b>", "[c]", "[*]", "<*>"]), inner),
        st.builds(lambda pre, a, post, f: f"[{{({pre},{a},{post})}}]{f}", inner, st.sampled_from("ab"), inner, inner),
    ),
    max_leaves=8,
)
_fuzz_formula = st.one_of(
    _fuzz_wellformed,
    _fuzz_wellformed,
    st.builds(lambda f, n: f[:n], _fuzz_wellformed, st.integers(0, 20)),
    st.text(alphabet="pqab~&|-><=[]{}(),* ", max_size=24),
)
_fuzz_update = st.one_of(
    st.lists(
        st.builds(lambda pre, a, post: f"({pre},{a},{post})", _fuzz_wellformed, st.sampled_from("abc"), _fuzz_wellformed),
        max_size=3,
    ).map(lambda clauses: "{" + ",".join(clauses) + "}"),
    st.text(alphabet="pqab~&|-><[]{}(),* ", max_size=24),
)


@st.composite
def _fuzz_valid_tiles(draw):
    colors = draw(st.lists(st.sampled_from(["g", "b", "w"]), min_size=1, max_size=3, unique=True))
    lines = []
    if draw(st.booleans()):
        lines.append("colors: " + " ".join(colors))
    names = draw(st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=3, unique=True))
    for name in names:
        sides = [f"{side}={draw(st.sampled_from(colors))}" for side in "NESW"]
        lines.append(f"tile {name} " + " ".join(draw(st.permutations(sides))))
    return "\n".join(lines) + "\n"


_fuzz_tiles_line = st.one_of(
    st.lists(_fuzz_name, max_size=3).map(lambda cs: "colors: " + " ".join(cs)),
    st.builds(
        lambda name, sides: f"tile {name} " + " ".join(f"{k}={c}" for k, c in sides),
        _fuzz_name,
        st.lists(st.tuples(st.sampled_from(["N", "E", "S", "W", "X", ""]), _fuzz_name), max_size=5),
    ),
    st.text(alphabet="tilecors:NESW= g#\t", max_size=16),
)
_fuzz_tiles = st.one_of(_fuzz_valid_tiles(), _fuzz_valid_tiles(), st.lists(_fuzz_tiles_line, max_size=4).map("\n".join))
_fuzz_model_argv = st.one_of(
    st.builds(
        lambda f, extra: ["check", "-", f, *extra],
        _fuzz_formula,
        st.sampled_from([[], [], ["--state", "v"], ["--max-blocks", "0"], ["--max-blocks", "2"]]),
    ),
    st.builds(lambda u: ["apply", "-", "--update", u], _fuzz_update),
    st.just(["bisim", "-"]),
    st.just(["dot", "-"]),
)
_fuzz_tiles_argv = st.one_of(
    st.builds(lambda extra: ["encode-tiling", "-", *extra], st.sampled_from([[], ["--conjunct", "refl_a"], ["--conjunct", "x"]])),
    st.builds(lambda k: ["tile-search", "-", "--max-period", str(k)], st.integers(-1, 2)),
    st.builds(
        lambda k, extra: ["witness-model", "-", "--period", str(k), *extra],
        st.integers(-1, 2),
        st.sampled_from([[], ["--cell-props"]]),
    ),
)
# --max-states and --limit kept small, so that no search runs long
_fuzz_sat_argv = st.builds(
    lambda f, n, limit, extra: ["sat-search", f, "--max-states", str(n), "--limit", str(limit), *extra],
    st.one_of(_fuzz_wellformed, _fuzz_wellformed, _fuzz_formula),
    st.integers(0, 2),
    st.integers(1, 300),
    st.sampled_from([[], [], ["--agents", "a,b"], ["--props", "p"], ["--agents", "a b"], ["--max-blocks", "1"]]),
)
# (argv, standard input) pairs
_fuzz_case = st.one_of(
    st.tuples(_fuzz_model_argv, _fuzz_model),
    st.tuples(_fuzz_tiles_argv, _fuzz_tiles),
    st.tuples(_fuzz_sat_argv, st.just("")),
)


@settings(max_examples=300, deadline=None)
@given(_fuzz_case)
def test_cli_fuzz_exits_cleanly(case):
    argv, stdin_text = case
    # a traceback printed to the process's stderr would bypass run's stream
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _, run_err = invoke(argv, stdin_text)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue() + run_err
