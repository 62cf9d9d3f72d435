import itertools
import random

import pytest

from aaul import (
    AaulError,
    ArbBox,
    Box,
    Budget,
    Implies,
    ModelFormatError,
    ParseError,
    PeriodicTiling,
    TileInstance,
    TileType,
    build_torus_model,
    check_static_conjuncts,
    coarsest_partition,
    arrow_blocks,
    encode,
    encode_parts,
    find_periodic_tiling,
    flatten_conj,
    is_quantifier_free,
    parse_formula,
    parse_tiles,
    print_formula,
    print_update,
    refl,
    satisfies,
    signature,
    truth_set,
)
from aaul.syntax import ArbDiamond, subformulas
from aaul.tiling import COMMUTE_PAIRS, DIRECTIONS

ALTERNATING = "tile A N=g E=b S=g W=w\ntile B N=g E=w S=g W=b\n"
SELF_TILING = "tile T N=c E=c S=c W=c\n"


def test_parse_tiles_basic():
    inst = parse_tiles(ALTERNATING)
    assert [t.name for t in inst.types] == ["A", "B"]
    assert inst.colors == ("g", "b", "w")  # first-use order: N, E, S, W per tile
    a = inst.types[0]
    assert (a.north, a.east, a.south, a.west) == ("g", "b", "g", "w")
    assert a.side("N") == "g" and a.side("W") == "w"


def test_parse_tiles_side_order_free_and_comments():
    inst = parse_tiles("# demo\ntile T W=x N=y E=x S=y  # trailing\n")
    t = inst.types[0]
    assert (t.north, t.south, t.east, t.west) == ("y", "y", "x", "x")


def test_parse_tiles_colors_line():
    inst = parse_tiles("colors: z y x\ntile T N=x E=x S=x W=x\n")
    assert inst.colors == ("z", "y", "x")
    with pytest.raises(ModelFormatError) as exc:
        parse_tiles("colors: x\ntile T N=x E=y S=x W=x\n")
    assert "unknown color" in str(exc.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "no tiles"),
        ("tile T N=a E=a S=a\n", "expected 'tile NAME"),
        ("tile T N=a E=a S=a W=a X=a\n", "expected 'tile NAME"),
        ("tile T N=a E=a S=a N=a\n", "duplicate side N"),
        ("tile T N=a E=a S=a Q=a\n", "expected side assignment"),
        ("tile T N=a E=a S=a W\n", "expected side assignment"),
        ("tile T N=a E=a S=a W=a\ntile T N=a E=a S=a W=a\n", "duplicate tile"),
        ("tile bad! N=a E=a S=a W=a\n", "bad tile name"),
        ("tile T N=a! E=a S=a W=a\n", "bad color name"),
        ("colors: a\ncolors: a\ntile T N=a E=a S=a W=a\n", "duplicate colors line"),
        ("junk\n", "unknown declaration"),
        # a tile above the colors line is held to it too, reported at the tile
        ("tile T N=x E=x S=x W=x\ncolors: y\n", "line 1: unknown color 'x'"),
    ],
)
def test_parse_tiles_errors(text, fragment):
    with pytest.raises(ModelFormatError) as exc:
        parse_tiles(text)
    assert fragment in str(exc.value)


_FOUR = " N=a E=a S=a W=a\n"


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "line 1: no tiles declared"),
        ("colors: a\n# c\n\n", "line 3: no tiles declared"),
        ("colors: a\ncolors: a\ntile T" + _FOUR, "line 2: duplicate colors line"),
        ("colors: a b!\ntile T" + _FOUR, "line 1: bad color name 'b!': use [A-Za-z0-9_]+"),
        ("colors: a b a\ntile T" + _FOUR, "line 1: duplicate color name 'a'"),
        ("\ntile T N=a E=a S=a\n", "line 2: expected 'tile NAME N=c E=c S=c W=c'"),
        ("tile T N=a E=a S=a W=a X=a\n", "line 1: expected 'tile NAME N=c E=c S=c W=c'"),
        ("tile T N=a E=a S=a N=a\n", "line 1: duplicate side N"),
        ("tile T N=a E=a S=a Q=a\n", "line 1: expected side assignment, found 'Q=a'"),
        ("tile T N=a E=a S=a W\n", "line 1: expected side assignment, found 'W'"),
        ("tile T N=a E=a S=a =a\n", "line 1: expected side assignment, found '=a'"),
        ("tile bad! N=a E=a S=a W=a\n", "line 1: bad tile name 'bad!': use [A-Za-z0-9_]+"),
        ("tile T" + _FOUR + "tile T N=a! E=a S=a W=a\n", "line 2: bad color name 'a!': use [A-Za-z0-9_]+"),
        ("tile T N=a E=a S= W=a\n", "line 1: bad color name '': use [A-Za-z0-9_]+"),
        # a name declared three times: the second declaration is at fault
        ("tile T" + _FOUR + "tile U" + _FOUR + "# c\ntile T" + _FOUR + "tile T" + _FOUR, "line 4: duplicate tile name 'T'"),
        ("colors: a\ntile T" + _FOUR + "tile U N=a E=b S=a W=c\n", "line 3: unknown color 'b'"),
        # a tile above the colors line is held to it too, reported at the tile
        ("tile T" + _FOUR + "tile U N=x E=a S=a W=y\ncolors: a\n", "line 2: unknown color 'x'"),
        ("junk\n", "line 1: unknown declaration 'junk'"),
        ("tile: T" + _FOUR, "line 1: unknown declaration 'tile:'"),
        ("colors a\ntile T" + _FOUR, "line 1: unknown declaration 'colors'"),
    ],
)
def test_parse_tiles_errors_name_their_line(text, message):
    with pytest.raises(ModelFormatError) as exc:
        parse_tiles(text)
    assert str(exc.value) == message


def test_parse_tiles_colors_keyword_needs_no_space():
    assert parse_tiles("colors:w\ntile A N=w E=w S=w W=w\n").colors == ("w",)
    assert parse_tiles("colors :w v # c\ntile A N=w E=w S=w W=w\n").colors == ("w", "v")


@pytest.mark.parametrize("bad", ["a b", "x!"])
def test_constructors_refuse_names_a_formula_cannot_write(bad):
    ok = TileType("T", "w", "w", "w", "w")
    for make, kind in (
        (lambda: TileType(bad, "w", "w", "w", "w"), "tile"),
        (lambda: TileType("T", "w", "w", "w", bad), "color"),
        (lambda: TileInstance((bad, "w"), (ok,)), "color"),
    ):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == f"bad {kind} name {bad!r}: use [A-Za-z0-9_]+"


def test_accepted_instances_encode_and_build():
    # names drawn with characters a formula cannot write: every instance
    # the constructors accept prints a formula that parses back, and
    # realizes a tiling as a model
    rng = random.Random(20261019)
    alphabet = "abcXZ09_" * 6 + " !-."
    accepted = 0
    for _ in range(120):
        def name():
            return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))

        colors = tuple(dict.fromkeys(name() for _ in range(rng.randint(1, 3))))
        try:
            types = tuple(TileType(name(), *(rng.choice(colors) for _ in "NSEW")) for _ in range(rng.randint(1, 3)))
            inst = TileInstance(colors, types)
        except ValueError:
            continue
        accepted += 1
        f = encode(inst)
        assert parse_formula(print_formula(f)) == f
        k = rng.randint(1, 2)
        tiling = PeriodicTiling(k, {(n, m): rng.choice(inst.types) for n in range(k) for m in range(k)})
        m = build_torus_model(inst, tiling)
        assert len(m.states) == 1 + k * k
        assert {f"p_{t.name}" for t in inst.types} <= set(m.props)
    assert accepted >= 30


def test_instance_is_hashable_and_equal_to_its_tuple_twin():
    parsed = parse_tiles(ALTERNATING)
    built = TileInstance(parsed.colors, tuple(parsed.types))
    assert isinstance(parsed.types, tuple)
    assert parsed == built and hash(parsed) == hash(built)
    assert TileInstance(list(parsed.colors), list(parsed.types)) == built


def test_instance_validation():
    t = TileType("T", "a", "a", "a", "a")
    with pytest.raises(ValueError):
        TileInstance(("a",), ())
    with pytest.raises(ValueError):
        TileInstance(("a",), (t, t))
    with pytest.raises(ValueError):
        TileInstance(("b",), (t,))


def test_periodic_tiling_shape_and_constraints():
    inst = parse_tiles(ALTERNATING)
    a, b = inst.types
    good = PeriodicTiling(2, {(0, 0): a, (1, 0): b, (0, 1): a, (1, 1): b})
    assert good.satisfies_constraints()
    bad = PeriodicTiling(2, {(0, 0): a, (1, 0): b, (0, 1): a, (1, 1): a})
    assert not bad.satisfies_constraints()
    with pytest.raises(ValueError):
        PeriodicTiling(2, {(0, 0): a})
    with pytest.raises(ValueError):
        PeriodicTiling(0, {})


def test_find_periodic_tiling():
    inst = parse_tiles(ALTERNATING)
    assert find_periodic_tiling(inst, 1) is None
    t2 = find_periodic_tiling(inst, 2)
    assert t2 is not None and t2.satisfies_constraints()
    assert {pos: t.name for pos, t in t2.grid.items()} == {
        (0, 0): "A", (1, 0): "B", (0, 1): "A", (1, 1): "B",
    }
    # deterministic
    again = find_periodic_tiling(inst, 2)
    assert again.grid == t2.grid


def test_find_periodic_tiling_unsolvable():
    inst = parse_tiles("tile T N=a E=c S=b W=c\n")
    for k in (1, 2, 3):
        assert find_periodic_tiling(inst, k) is None


def test_find_periodic_tiling_large_period():
    # one cell per loop step, not per stack frame: period 40 has 1600 cells
    inst = parse_tiles("tile t N=c E=c S=c W=c\n")
    tiling = find_periodic_tiling(inst, 40)
    assert tiling.period == 40 and {t.name for t in tiling.grid.values()} == {"t"}
    assert len(tiling.grid) == 1600
    # a wrap that needs backtracking: A and B alternate, so an odd period fails
    assert find_periodic_tiling(parse_tiles(ALTERNATING), 41) is None


def test_find_periodic_tiling_first_in_declared_order():
    # every grid, cells row by row, tiles in declared order: the first that
    # fits is the one the search returns
    rng = random.Random(7)
    for _ in range(60):
        names = [f"T{i}" for i in range(rng.randint(1, 3))]
        inst = parse_tiles("".join(
            f"tile {t} N={rng.choice('gb')} E={rng.choice('gb')} S={rng.choice('gb')} W={rng.choice('gb')}\n"
            for t in names
        ))
        for k in (1, 2):
            cells = [(i % k, i // k) for i in range(k * k)]
            first = next(
                (grid for grid in (dict(zip(cells, row)) for row in itertools.product(inst.types, repeat=k * k))
                 if PeriodicTiling(k, grid).satisfies_constraints()),
                None,
            )
            found = find_periodic_tiling(inst, k)
            assert (found and found.grid) == first


def test_encoder_conjunct_count_and_flatten():
    inst = parse_tiles(ALTERNATING)
    parts = encode_parts(inst)
    assert len(parts.conjuncts) == 24
    assert flatten_conj(parts.formula) == parts.conjuncts
    assert encode(inst) == parts.formula
    named = parts.named()
    assert list(named) == [
        "refl_a", "psi1", "psi2",
        "psi3_u", "psi4_u", "propd_u", "return_u",
        "psi3_d", "psi4_d", "propd_d", "return_d",
        "psi3_l", "psi4_l", "propd_l", "return_l",
        "psi3_r", "psi4_r", "propd_r", "return_r",
        "inverse", "commute", "one_tile", "one_color", "tile_colors", "tile_match",
    ]
    # refl_a is the probe's reflexivity formula, and psi1 opens with it
    assert named["refl_a"] == refl("a")
    assert flatten_conj(named["psi1"])[0] == named["refl_a"]


def test_encoder_round_trips():
    inst = parse_tiles(ALTERNATING)
    parts = encode_parts(inst)
    assert parse_formula(print_formula(parts.formula)) == parts.formula
    for f in parts.named().values():
        assert parse_formula(print_formula(f)) == f


def test_encoder_structure_spot_checks():
    inst = parse_tiles(ALTERNATING)
    parts = encode_parts(inst)
    named = parts.named()

    assert named["refl_a"] == parse_formula("<a><a>true & [*]~<a>[a]false")
    assert print_formula(named["psi1"]) == (
        "(<a><a>true & [*]~<a>[a]false) & p & <b>true & [b]~p"
    )
    assert flatten_conj(named["psi1"]) == (
        named["refl_a"],
        parse_formula("p"),
        parse_formula("<b>true"),
        parse_formula("[b]~p"),
    )

    # commute: one implication per ordered direction pair, in the fixed order
    body = named["commute"]
    assert isinstance(body, Box) and body.agent == "b"
    inner = body.body
    assert isinstance(inner, ArbBox)
    imps = flatten_conj(inner.body)
    assert len(imps) == 8
    for (x, y), imp in zip(COMMUTE_PAIRS, imps):
        assert isinstance(imp, Implies)
        assert imp.left.agent == x and imp.left.body.agent == y
        assert imp.right.agent == y and imp.right.body.agent == x

    for x in DIRECTIONS:
        u = parts.updates[x]
        assert [c.agent for c in u.clauses] == ["b", "a", x]
        assert print_formula(named[f"psi4_{x}"]) == (
            f"[*](<a>true -> [b][{x}][b]<a>true)"
        )

    # one_tile for two tile types: a disjunction plus one exclusion
    one_tile = named["one_tile"]
    assert isinstance(one_tile, Box) and one_tile.agent == "b"
    pieces = flatten_conj(one_tile.body)
    assert len(pieces) == 2
    assert print_formula(pieces[0]) == "p_A | p_B"
    assert print_formula(pieces[1]) == "~(p_A & p_B)"


# Every named part and update of the alternating instance, as printed.
ALTERNATING_TEXT = {
    "refl_a": "<a><a>true & [*]~<a>[a]false",
    "psi1": "(<a><a>true & [*]~<a>[a]false) & p & <b>true & [b]~p",
    "psi2": "[b]((<a><a>true & [*]~<a>[a]false) & <b>p) & [*](<a>true -> [b][b]<a>true)",
    "psi3_u": "[b](<u>(~p & (<a><a>true & [*]~<a>[a]false) & <b>p) & [*](<u><a>true -> [u]<a>true))",
    "psi4_u": "[*](<a>true -> [b][u][b]<a>true)",
    "propd_u": "[b][*]([a]false & <u><a>true & <b>(<b>true & [b]<a>true) & <*>(<u><a>true & <b><b>[a]false)"
    " -> [{(p | [a]false,b,true),(true,a,true),([a]false,u,true)}]<*>(<u><a>true & <b><b>[a]false))",
    "return_u": "[b]<*>([a]false & <b>true & <u>(<a>true & <b>(<b>true & [b]<a>true) & [*](<a>true -> [b][b]<a>true)))",
    "psi3_d": "[b](<d>(~p & (<a><a>true & [*]~<a>[a]false) & <b>p) & [*](<d><a>true -> [d]<a>true))",
    "psi4_d": "[*](<a>true -> [b][d][b]<a>true)",
    "propd_d": "[b][*]([a]false & <d><a>true & <b>(<b>true & [b]<a>true) & <*>(<d><a>true & <b><b>[a]false)"
    " -> [{(p | [a]false,b,true),(true,a,true),([a]false,d,true)}]<*>(<d><a>true & <b><b>[a]false))",
    "return_d": "[b]<*>([a]false & <b>true & <d>(<a>true & <b>(<b>true & [b]<a>true) & [*](<a>true -> [b][b]<a>true)))",
    "psi3_l": "[b](<l>(~p & (<a><a>true & [*]~<a>[a]false) & <b>p) & [*](<l><a>true -> [l]<a>true))",
    "psi4_l": "[*](<a>true -> [b][l][b]<a>true)",
    "propd_l": "[b][*]([a]false & <l><a>true & <b>(<b>true & [b]<a>true) & <*>(<l><a>true & <b><b>[a]false)"
    " -> [{(p | [a]false,b,true),(true,a,true),([a]false,l,true)}]<*>(<l><a>true & <b><b>[a]false))",
    "return_l": "[b]<*>([a]false & <b>true & <l>(<a>true & <b>(<b>true & [b]<a>true) & [*](<a>true -> [b][b]<a>true)))",
    "psi3_r": "[b](<r>(~p & (<a><a>true & [*]~<a>[a]false) & <b>p) & [*](<r><a>true -> [r]<a>true))",
    "psi4_r": "[*](<a>true -> [b][r][b]<a>true)",
    "propd_r": "[b][*]([a]false & <r><a>true & <b>(<b>true & [b]<a>true) & <*>(<r><a>true & <b><b>[a]false)"
    " -> [{(p | [a]false,b,true),(true,a,true),([a]false,r,true)}]<*>(<r><a>true & <b><b>[a]false))",
    "return_r": "[b]<*>([a]false & <b>true & <r>(<a>true & <b>(<b>true & [b]<a>true) & [*](<a>true -> [b][b]<a>true)))",
    "inverse": "[b][*]([a]false -> [u][d][a]false & [d][u][a]false & [l][r][a]false & [r][l][a]false)",
    "commute": "[b][*]((<u><l>[a]false -> [l][u][a]false) & (<u><r>[a]false -> [r][u][a]false)"
    " & (<d><l>[a]false -> [l][d][a]false) & (<d><r>[a]false -> [r][d][a]false)"
    " & (<l><u>[a]false -> [u][l][a]false) & (<l><d>[a]false -> [d][l][a]false)"
    " & (<r><u>[a]false -> [u][r][a]false) & (<r><d>[a]false -> [d][r][a]false))",
    "one_tile": "[b]((p_A | p_B) & ~(p_A & p_B))",
    "one_color": "[b]((N_g -> ~N_b & ~N_w) & (N_b -> ~N_g & ~N_w) & (N_w -> ~N_g & ~N_b))"
    " & [b]((S_g -> ~S_b & ~S_w) & (S_b -> ~S_g & ~S_w) & (S_w -> ~S_g & ~S_b))"
    " & [b]((E_g -> ~E_b & ~E_w) & (E_b -> ~E_g & ~E_w) & (E_w -> ~E_g & ~E_b))"
    " & [b]((W_g -> ~W_b & ~W_w) & (W_b -> ~W_g & ~W_w) & (W_w -> ~W_g & ~W_b))",
    "tile_colors": "[b]((p_A -> N_g & S_g & E_b & W_w) & (p_B -> N_g & S_g & E_w & W_b))",
    "tile_match": "[b](((N_g -> [u]S_g) & (W_g -> [l]E_g)) & ((N_b -> [u]S_b) & (W_b -> [l]E_b))"
    " & (N_w -> [u]S_w) & (W_w -> [l]E_w))",
}
UPDATE_TEXT = {x: f"{{(p | [a]false,b,true),(true,a,true),([a]false,{x},true)}}" for x in DIRECTIONS}


@pytest.mark.parametrize(
    "text,expected",
    [
        (ALTERNATING, ALTERNATING_TEXT),
        # one tile, one color: one_tile has no exclusion, and each one_color
        # implication excludes no other color
        (SELF_TILING, {
            **ALTERNATING_TEXT,
            "one_tile": "[b]p_T",
            "one_color": "[b](N_c -> true) & [b](S_c -> true) & [b](E_c -> true) & [b](W_c -> true)",
            "tile_colors": "[b](p_T -> N_c & S_c & E_c & W_c)",
            "tile_match": "[b]((N_c -> [u]S_c) & (W_c -> [l]E_c))",
        }),
    ],
)
def test_encoder_prints_pinned_text(text, expected):
    parts = encode_parts(parse_tiles(text))
    assert {name: print_formula(f) for name, f in parts.named().items()} == expected
    assert {x: print_update(u) for x, u in parts.updates.items()} == UPDATE_TEXT


def test_encoder_deterministic():
    a = print_formula(encode(parse_tiles(ALTERNATING)))
    b = print_formula(encode(parse_tiles(ALTERNATING)))
    assert a == b


def test_torus_model_period_1():
    inst = parse_tiles(SELF_TILING)
    tiling = find_periodic_tiling(inst, 1)
    m = build_torus_model(inst, tiling)
    assert m.states == ("s0", "c0_0")
    assert m.agents == ("a", "b", "u", "d", "l", "r")
    assert m.point == "s0"
    assert m.arrow_set("a") == frozenset({("s0", "s0"), ("c0_0", "c0_0")})
    assert m.arrow_set("b") == frozenset({("s0", "c0_0"), ("c0_0", "s0")})
    for x in DIRECTIONS:
        assert m.arrow_set(x) == frozenset({("c0_0", "c0_0")})
    assert m.valuation["p"] == frozenset({"s0"})
    assert m.valuation["p_T"] == frozenset({"c0_0"})
    assert m.valuation["N_c"] == frozenset({"c0_0"})


def test_torus_model_period_2():
    inst = parse_tiles(ALTERNATING)
    tiling = find_periodic_tiling(inst, 2)
    m = build_torus_model(inst, tiling)
    assert len(m.states) == 5
    assert len(m.arrow_set("b")) == 8
    for x in DIRECTIONS:
        assert len(m.arrow_set(x)) == 4
    # each cell has exactly one tile proposition
    for c in m.states[1:]:
        held = [t.name for t in inst.types if c in m.valuation[f"p_{t.name}"]]
        assert len(held) == 1
    # wrap-around: u from c0_0 goes to c0_1, and from c0_1 back to c0_0
    assert ("c0_0", "c0_1") in m.arrow_set("u")
    assert ("c0_1", "c0_0") in m.arrow_set("u")


def test_torus_model_cell_props():
    inst = parse_tiles(SELF_TILING)
    tiling = find_periodic_tiling(inst, 1)
    m = build_torus_model(inst, tiling, cell_props=True)
    assert "cell_0_0" in m.props
    assert m.valuation["cell_0_0"] == frozenset({"c0_0"})
    plain = build_torus_model(inst, tiling)
    assert "cell_0_0" not in plain.props


def test_static_conjuncts_hold_on_witness():
    inst = parse_tiles(ALTERNATING)
    tiling = find_periodic_tiling(inst, 2)
    m = build_torus_model(inst, tiling)
    verdicts = check_static_conjuncts(m, inst)
    assert verdicts == {
        "one_tile": True, "one_color": True, "tile_colors": True, "tile_match": True,
    }


def test_static_conjuncts_detect_perturbation():
    inst = parse_tiles(ALTERNATING)
    a, b = inst.types
    tiling = find_periodic_tiling(inst, 2)
    broken_grid = dict(tiling.grid)
    broken_grid[(0, 0)] = b if broken_grid[(0, 0)] == a else a
    broken = PeriodicTiling(2, broken_grid)
    assert not broken.satisfies_constraints()
    m = build_torus_model(inst, broken)
    verdicts = check_static_conjuncts(m, inst)
    assert verdicts["one_tile"] and verdicts["one_color"] and verdicts["tile_colors"]
    assert not verdicts["tile_match"]


def test_static_conjuncts_need_a_point():
    inst = parse_tiles(SELF_TILING)
    m = build_torus_model(inst, find_periodic_tiling(inst, 1)).with_point(None)
    with pytest.raises(AaulError):
        check_static_conjuncts(m, inst)


def test_refl_holds_everywhere_on_torus():
    # every state of the witness torus carries a probe loop, and bisimilar
    # states are exactly what the loop formula tolerates
    inst = parse_tiles(SELF_TILING)
    m = build_torus_model(inst, find_periodic_tiling(inst, 1))
    f = refl("a")
    for s in m.states:
        assert satisfies(m, s, f)


def test_all_named_parts_on_cell_props_torus():
    # The ALT 2x2 torus with a proposition per cell, so that no two cells
    # are bisimilar, holds every named part at the origin: return_u/d too,
    # which fail on the plain torus. It has 29 arrow blocks, over the
    # default cap of 20, so each quantifier that goes past its empty union
    # is decided symbolically.
    inst = parse_tiles(ALTERNATING)
    m = build_torus_model(inst, find_periodic_tiling(inst, 2), cell_props=True)
    assert len(arrow_blocks(m, coarsest_partition(m))) == 29
    named = encode_parts(inst).named()
    assert len(named) == 25
    assert {name: satisfies(m, "s0", f) for name, f in named.items()} == dict.fromkeys(named, True)



# Every quantified conjunct without a nested [*]/<*> holds on the plain ALT
# 2x2 torus (15 arrow blocks, 2^15 unions per quantifier). Each [*] body leaves
# at least agent b unread, so it is evaluated on a fraction of the unions.
UNNESTED_ON_PLAIN_TORUS = {
    name: True
    for name in (
        "refl_a", "psi1", "psi2", *(f"psi{k}_{x}" for x in DIRECTIONS for k in (3, 4)),
        "inverse", "commute",
    )
}


def test_unnested_quantified_conjuncts_on_plain_torus():
    inst = parse_tiles(ALTERNATING)
    m = build_torus_model(inst, find_periodic_tiling(inst, 2))
    named = encode_parts(inst).named()
    unnested = {
        name
        for name, f in named.items()
        if not is_quantifier_free(f)
        and all(is_quantifier_free(g.body) for g in subformulas(f) if isinstance(g, (ArbBox, ArbDiamond)))
    }
    assert unnested == set(UNNESTED_ON_PLAIN_TORUS)
    _assert_walk_and_symbolic_path_agree(m, {name: named[name] for name in unnested}, UNNESTED_ON_PLAIN_TORUS)


def _assert_walk_and_symbolic_path_agree(m, formulas, expected):
    """Each formula's verdict at s0 is the expected one, and its whole truth
    set is the same under the default budget, which walks every quantifier
    of the plain torus, and under a cap of one block, where each one that
    goes past its empty union is decided symbolically."""
    walked = {name: truth_set(m, f) for name, f in formulas.items()}
    assert {name: "s0" in states for name, states in walked.items()} == expected
    assert {name: truth_set(m, f, Budget(max_arrow_blocks=1)) for name, f in formulas.items()} == walked


# The nested conjuncts on the same torus. Its partition is its valuation
# partition (3 blocks), so each outer [*] evaluates its body once per set of
# arrows it reads. Vertical neighbours carry the same tile and are
# bisimilar, so no quantifier-free update can unmark a cell while its u- or
# d-successor stays marked: return_u and return_d are False.
NESTED_ON_PLAIN_TORUS = {
    f"{part}_{x}": not (part == "return" and x in ("u", "d")) for part in ("propd", "return") for x in DIRECTIONS
}


def test_nested_quantified_conjuncts_on_plain_torus():
    inst = parse_tiles(ALTERNATING)
    m = build_torus_model(inst, find_periodic_tiling(inst, 2))
    part = coarsest_partition(m)
    assert part.rounds == 0 and len(part.blocks) == 3 and len(arrow_blocks(m, part)) == 15
    named = encode_parts(inst).named()
    nested = {
        name
        for name, f in named.items()
        if any(not is_quantifier_free(g.body) for g in subformulas(f) if isinstance(g, (ArbBox, ArbDiamond)))
    }
    assert nested == set(NESTED_ON_PLAIN_TORUS)
    _assert_walk_and_symbolic_path_agree(m, {name: named[name] for name in nested}, NESTED_ON_PLAIN_TORUS)


# On the 1x1 self-tiling torus every named part holds but return_u/d/l/r.
# There each direction's successor of the cell is the cell itself, so no
# quantifier-free update can unmark the cell (take its a-loop) while keeping
# its successor marked, which is what return_x asks for.
ON_SELF_TILING_TORUS = {
    "refl_a": True, "psi1": True, "psi2": True,
    **{f"{part}_{x}": part != "return" for x in DIRECTIONS for part in ("psi3", "psi4", "propd", "return")},
    "inverse": True, "commute": True,
    "one_tile": True, "one_color": True, "tile_colors": True, "tile_match": True,
}


def test_all_named_parts_on_self_tiling_torus():
    inst = parse_tiles(SELF_TILING)
    m = build_torus_model(inst, find_periodic_tiling(inst, 1))
    named = encode_parts(inst).named()
    assert list(named) == list(ON_SELF_TILING_TORUS)
    assert {name: satisfies(m, "s0", f) for name, f in named.items()} == ON_SELF_TILING_TORUS


def test_refl_other_agent():
    f = refl("b")
    assert print_formula(f) == "<b><b>true & [*]~<b>[b]false"


@pytest.mark.parametrize("bad", ["a b", "x!", "", " a", "{(true,a,true)}"])
def test_refl_refuses_a_name_a_formula_cannot_contain(bad):
    with pytest.raises(ParseError) as exc:
        refl(bad)
    assert str(exc.value) == f"bad agent name {bad!r}: use [A-Za-z0-9_]+ (at position 1)"


@pytest.mark.parametrize("text", [ALTERNATING, SELF_TILING, "colors: x y z\ntile T N=x E=x S=y W=y\n"])
def test_encoding_speaks_the_torus_vocabulary(text):
    # the formula mentions exactly the props and agents of the torus model,
    # colors no tile uses included
    inst = parse_tiles(text)
    m = build_torus_model(inst, PeriodicTiling(1, {(0, 0): inst.types[0]}))
    assert signature(encode(inst)) == (frozenset(m.props), frozenset(m.agents))
