"""Reduction from periodic plane tiling to quantified-update model checking.

A tile instance is a set of tile types with colored sides. The encoder
produces, for an instance, one closed formula over agents a, b, u, d, l, r
whose models look like a tiled grid seen from an origin state:

  - a: probe loops; "has an a-arrow" is the bit that updates toggle to mark
    states, and refl_a pins down states whose a-successors are all alike.
  - b: links the origin to every grid cell and back.
  - u, d, l, r: step to the neighbouring cell (up, down, left, right).

The propositional vocabulary is `p` on the origin, `p_<tile>` for the tile
placed on a cell, and `N_<color>`, `S_<color>`, `E_<color>`, `W_<color>`
for the side colors of the placed tile.

`encode_parts(inst).named()` is the one table of the encoding's parts,
name to formula: refl_a, then the 24 top-level conjuncts of the formula in
order. Each part is written as the line `aaul encode-tiling --conjunct
NAME` prints it, in the package's formula syntax, and read with
`parse_formula`: a fixed text for the parts that do not depend on the
instance, with `{x}` for the direction in the four written once per
direction, and the instance's per-pair, per-tile and per-color pieces
joined as text for the rest. `_tile_prop` and `_side_prop` spell the
tile and side propositions for both the encoder and `build_torus_model`.
The table's quantifier-free entries are the four grid conjuncts (one_tile,
one_color, tile_colors, tile_match), which `check_static_conjuncts`
evaluates.

`build_torus_model` realizes a period-k solution as a finite model: k*k
cells with wrap-around direction arrows, plus the origin hub. The grid
geometry is `STEPS`, and `_meets` is the one side-matching rule that the
tiling check and the solver share. The quantified conjuncts decide under
the default budget on the 1x1 torus (8 arrow blocks) and on the plain 2x2
torus (15 blocks). Both tori are separated (their partition is their
valuation partition), so the outer quantifier of a nested part (propd_*,
return_*) evaluates its body once per set of arrows it reads, on the
union cut to those arrows (see checker), not on every union. On the 1x1 torus of a self-matching tile
every part holds except return_u/d/l/r: there each direction's
successor of the cell is the cell itself, so no update can unmark the
cell while keeping its successor marked. On the plain 2x2 torus of the
alternating instance every part holds except return_u/d: vertical
neighbours carry the same tile and are bisimilar, so no quantifier-free
update can unmark a cell while keeping its u- or d-successor marked.
With one private proposition per cell (`cell_props`) the 2x2 torus has 29
arrow blocks, and the default budget refuses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from .checker import Budget, DEFAULT_BUDGET, satisfies
from .errors import AaulError, ModelFormatError, ParseError
from .kripke import KripkeModel, _check_name, _check_names, _declarations, _DeclarationError
from .syntax import _NAME, Formula, Update, conj, is_quantifier_free, parse_formula, parse_update

PROBE = "a"
HUB = "b"
UP, DOWN, LEFT, RIGHT = "u", "d", "l", "r"
DIRECTIONS = (UP, DOWN, LEFT, RIGHT)
ORIGIN_PROP = "p"
SIDES = ("N", "S", "E", "W")

# (column, row) offset of one step in each direction
STEPS = {UP: (0, 1), DOWN: (0, -1), LEFT: (-1, 0), RIGHT: (1, 0)}

# ordered direction pairs whose composed steps must commute
COMMUTE_PAIRS = (
    (UP, LEFT), (UP, RIGHT), (DOWN, LEFT), (DOWN, RIGHT),
    (LEFT, UP), (LEFT, DOWN), (RIGHT, UP), (RIGHT, DOWN),
)


@dataclass(frozen=True)
class TileType:
    name: str
    north: str
    south: str
    east: str
    west: str

    def __post_init__(self):
        _check_name("tile", self.name, ("tile",))
        for side in SIDES:
            _check_name("color", self.side(side), ("tile",))

    def side(self, side: str) -> str:
        return {"N": self.north, "S": self.south, "E": self.east, "W": self.west}[side]


@dataclass(frozen=True)
class TileInstance:
    """A refusal blames the colors, or the i-th tile: the second to repeat
    a name, or the first to use an undeclared color."""

    colors: tuple[str, ...]
    types: tuple[TileType, ...]

    def __post_init__(self):
        colors = _check_names("color", self.colors, lambda i, c: ("colors",))
        types = tuple(self.types)
        _check_names("tile", (t.name for t in types), lambda i, name: ("tile", i))
        if not types:
            raise _DeclarationError("no tiles declared", ("tile",))
        for i, t in enumerate(types):
            for side in SIDES:
                if t.side(side) not in colors:
                    raise _DeclarationError(f"unknown color {t.side(side)!r}", ("tile", i))
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "types", types)


@dataclass(frozen=True)
class PeriodicTiling:
    """A k*k assignment of tile types, read as repeating over the whole plane.

    Construction only checks the shape; whether the side colors actually
    match is a separate question answered by satisfies_constraints, so
    deliberately broken tilings can be built for testing.
    """

    period: int
    grid: Mapping[tuple[int, int], TileType]

    def __post_init__(self):
        k = self.period
        if k < 1:
            raise ValueError("period must be at least 1")
        expected = {(n, m) for n in range(k) for m in range(k)}
        if set(self.grid) != expected:
            raise ValueError(f"grid must cover exactly [0,{k}) x [0,{k})")
        object.__setattr__(self, "grid", dict(self.grid))

    def satisfies_constraints(self) -> bool:
        """Every north side meets the south side above it, every east side
        meets the west side to the right, with wrap-around."""
        return all(_meets(self.grid, self.period, n, m) for n, m in self.grid)


def _step(pos: tuple[int, int], x: str, k: int) -> tuple[int, int]:
    """The cell one step in direction x from pos on the k*k torus."""
    (n, m), (dn, dm) = pos, STEPS[x]
    return (n + dn) % k, (m + dm) % k


def _meets(grid: Mapping[tuple[int, int], TileType], k: int, n: int, m: int) -> bool:
    """The tile at (n, m) matches whichever of the tiles above it and to its
    right are placed, with wrap-around."""
    here = grid[(n, m)]
    above = grid.get(_step((n, m), UP, k))
    right = grid.get(_step((n, m), RIGHT, k))
    return (above is None or here.north == above.south) and (
        right is None or here.east == right.west
    )


def parse_tiles(text: str) -> TileInstance:
    """Tile file format, one declaration per line, `#` starts a comment:

        colors: white black        # optional; fixes the color universe
        tile T0 N=white E=black S=white W=black

    Side keys may come in any order but each must appear exactly once.
    Without a colors line, colors are collected in order of first use.
    Errors name their line as `load_model`'s do; no tile, the last line.
    """
    colors = None
    types: list[TileType] = []
    declared: dict[tuple, int] = {}  # the line of ("colors",) and of each ("tile", i)
    lines, last = _declarations(text)

    for lineno, line in lines:
        head, sep, rest = line.partition(":")
        tokens = line.split()
        if sep and head.split() == ["colors"]:
            if colors is not None:
                raise ModelFormatError("duplicate colors line", lineno)
            colors = rest.split()
            declared[("colors",)] = lineno
        elif tokens[0] == "tile":
            if len(tokens) != 6:
                raise ModelFormatError("expected 'tile NAME N=c E=c S=c W=c'", lineno)
            sides: dict[str, str] = {}
            for tok in tokens[2:]:
                key, sep, color = tok.partition("=")
                if not sep or key not in SIDES:
                    raise ModelFormatError(f"expected side assignment, found {tok!r}", lineno)
                if key in sides:
                    raise ModelFormatError(f"duplicate side {key}", lineno)
                sides[key] = color  # four keys, none repeated: every side is given
            try:
                types.append(TileType(tokens[1], sides["N"], sides["S"], sides["E"], sides["W"]))
            except _DeclarationError as e:
                raise ModelFormatError(str(e), lineno) from None
            declared[("tile", len(types) - 1)] = lineno
        else:
            raise ModelFormatError(f"unknown declaration {tokens[0]!r}", lineno)

    if colors is None:
        colors = dict.fromkeys(t.side(side) for t in types for side in SIDES)
    try:
        return TileInstance(colors, types)
    except _DeclarationError as e:
        raise ModelFormatError(str(e), declared.get(e.declaration, last)) from None


# ------------------------------------------------------------------ encoder

# Each part as `aaul encode-tiling --conjunct NAME` prints it; {x} stands
# for the direction in the parts written once per direction. refl_a is
# spelled out where psi1, psi2 and psi3_x use it.
_REFL = "<{x}><{x}>true & [*]~<{x}>[{x}]false"
_UPDATE = "{(p | [a]false,b,true),(true,a,true),([a]false,{x},true)}"
_OPENING = {
    "psi1": "(<a><a>true & [*]~<a>[a]false) & p & <b>true & [b]~p",
    "psi2": "[b]((<a><a>true & [*]~<a>[a]false) & <b>p) & [*](<a>true -> [b][b]<a>true)",
}
_PER_DIRECTION = {
    "psi3_{x}": "[b](<{x}>(~p & (<a><a>true & [*]~<a>[a]false) & <b>p) & [*](<{x}><a>true -> [{x}]<a>true))",
    "psi4_{x}": "[*](<a>true -> [b][{x}][b]<a>true)",
    # the marker <{x}><a>true & <b><b>[a]false: "some b-b-successor of a
    # probed x-successor loses its probe"
    "propd_{x}": "[b][*]([a]false & <{x}><a>true & <b>(<b>true & [b]<a>true)"
    " & <*>(<{x}><a>true & <b><b>[a]false) -> [" + _UPDATE + "]<*>(<{x}><a>true & <b><b>[a]false))",
    "return_{x}": "[b]<*>([a]false & <b>true"
    " & <{x}>(<a>true & <b>(<b>true & [b]<a>true) & [*](<a>true -> [b][b]<a>true)))",
}
_INVERSE = "[b][*]([a]false -> [u][d][a]false & [d][u][a]false & [l][r][a]false & [r][l][a]false)"


def refl(agent: str) -> Formula:
    """True exactly where the agent has a successor and every successor is
    bisimilar to the current state: the successor structure survives any
    attempt to cut some successors loose by an update. An agent name that
    a formula cannot contain, such as "a b", raises ParseError."""
    if not _NAME.fullmatch(agent):
        raise ParseError(f"bad agent name {agent!r}: use {_NAME.pattern}", _REFL.index("{x}"))
    return parse_formula(_REFL.replace("{x}", agent))


def _tile_prop(t: TileType) -> str:
    return f"p_{t.name}"


def _side_prop(side: str, color: str) -> str:
    return f"{side}_{color}"


def _all(texts) -> str:
    """The conjunction of formula texts, parsed as `conj` folds their
    trees: true for none, the one text alone for one."""
    return " & ".join(f"({t})" for t in texts) or "true"


@dataclass(frozen=True)
class TilingEncoding:
    """The full formula for an instance, the table of its named parts and
    the updates the propd parts use.

    `parts` holds refl_a first, then the 24 top-level conjuncts of
    `formula` in their order.
    """

    parts: Mapping[str, Formula]
    updates: Mapping[str, Update]
    formula: Formula

    def named(self) -> dict[str, Formula]:
        return dict(self.parts)

    @property
    def conjuncts(self) -> tuple[Formula, ...]:
        return tuple(f for name, f in self.parts.items() if name != "refl_a")


def encode_parts(inst: TileInstance) -> TilingEncoding:
    texts = dict(_OPENING)  # the conjuncts, in order
    for x in DIRECTIONS:
        for name, text in _PER_DIRECTION.items():
            texts[name.replace("{x}", x)] = text.replace("{x}", x)
    tiles = [_tile_prop(t) for t in inst.types]
    exclusions = [f"~({s} & {t})" for s, t in combinations(tiles, 2)]
    commute = [f"<{x}><{y}>[a]false -> [{y}][{x}][a]false" for x, y in COMMUTE_PAIRS]

    def one_color(side: str) -> str:
        props = [_side_prop(side, c) for c in inst.colors]
        return "[b](" + _all(f"{p} -> " + _all(f"~{q}" for q in props if q != p) for p in props) + ")"

    def sides(t: TileType) -> str:
        return f"{_tile_prop(t)} -> " + _all(_side_prop(side, t.side(side)) for side in SIDES)

    def match(c: str) -> str:
        north, south, east, west = (_side_prop(side, c) for side in SIDES)
        return f"({north} -> [u]{south}) & ({west} -> [l]{east})"

    texts["inverse"] = _INVERSE
    texts["commute"] = "[b][*](" + _all(commute) + ")"
    texts["one_tile"] = "[b](" + _all([" | ".join(tiles), *exclusions]) + ")"
    texts["one_color"] = _all(one_color(side) for side in SIDES)
    texts["tile_colors"] = "[b](" + _all(sides(t) for t in inst.types) + ")"
    texts["tile_match"] = "[b](" + _all(match(c) for c in inst.colors) + ")"

    parts = {name: parse_formula(text) for name, text in texts.items()}
    updates = {x: parse_update(_UPDATE.replace("{x}", x)) for x in DIRECTIONS}
    return TilingEncoding({"refl_a": refl(PROBE), **parts}, updates, conj(parts.values()))


def encode(inst: TileInstance) -> Formula:
    return encode_parts(inst).formula


# ------------------------------------------------------------------- solver

def find_periodic_tiling(inst: TileInstance, period: int) -> PeriodicTiling | None:
    """First period x period torus tiling in declared tile order, or None.

    Plain backtracking with an explicit stack: cells are filled row by
    row, each placement checked against the already placed left and lower
    neighbours, wrapping at the edges. Exponential in the worst case, fine
    at demonstration scale.
    """
    k = period
    cells = [(i % k, i // k) for i in range(k * k)]
    grid: dict[tuple[int, int], TileType] = {}
    chosen: list[int] = []  # the index in inst.types of each placed tile, in cell order
    start = 0  # the first index to try in the next cell
    while len(chosen) < len(cells):
        pos = cells[len(chosen)]
        # _meets looks up and right, so the new tile's sides are checked
        # from its own cell and from the cells left of and below it
        around = (pos, _step(pos, LEFT, k), _step(pos, DOWN, k))
        for t in range(start, len(inst.types)):
            grid[pos] = inst.types[t]
            if all(_meets(grid, k, *c) for c in around if c in grid):
                chosen.append(t)
                start = 0
                break
        else:  # no tile fits: take back the previous cell's and try its next
            grid.pop(pos, None)
            if not chosen:
                return None
            start = chosen.pop() + 1
    tiling = PeriodicTiling(k, dict(grid))
    assert tiling.satisfies_constraints()
    return tiling


# ------------------------------------------------------ witness construction

def build_torus_model(inst: TileInstance, tiling: PeriodicTiling, cell_props: bool = False) -> KripkeModel:
    """A finite model realizing the tiling: an origin hub plus a k*k torus.

    Probe arrows loop on every state, the hub links the origin to each cell
    and back, direction arrows step with wrap-around (u increments the row
    coordinate, r the column coordinate). With cell_props each cell also
    gets a private proposition cell_<col>_<row>, which destroys all symmetry
    between cells.
    """
    k = tiling.period
    cell = {(n, m): f"c{n}_{m}" for n in range(k) for m in range(k)}
    states = ("s0", *cell.values())

    arrows = {
        PROBE: {(s, s) for s in states},
        HUB: {(s, t) for c in cell.values() for s, t in (("s0", c), (c, "s0"))},
    }
    for x in DIRECTIONS:
        arrows[x] = {(cell[pos], cell[_step(pos, x, k)]) for pos in cell}

    valuation = {ORIGIN_PROP: {"s0"}}
    for t in inst.types:
        valuation[_tile_prop(t)] = {cell[pos] for pos, placed in tiling.grid.items() if placed == t}
    for side in SIDES:
        for c in inst.colors:
            valuation[_side_prop(side, c)] = {
                cell[pos] for pos, placed in tiling.grid.items() if placed.side(side) == c
            }
    if cell_props:
        for (n, m), c in cell.items():
            valuation[f"cell_{n}_{m}"] = {c}

    return KripkeModel(
        states=states,
        agents=(PROBE, HUB, *DIRECTIONS),
        props=tuple(valuation),
        arrows=arrows,
        valuation=valuation,
        point="s0",
    )


def check_static_conjuncts(
    m: KripkeModel, inst: TileInstance, budget: Budget = DEFAULT_BUDGET
) -> dict[str, bool]:
    """Evaluate the quantifier-free named parts (the four grid conjuncts)
    at the model's point, in table order."""
    if m.point is None:
        raise AaulError("model has no designated point")
    parts = encode_parts(inst).named()
    return {
        name: satisfies(m, m.point, f, budget)
        for name, f in parts.items()
        if is_quantifier_free(f)
    }
