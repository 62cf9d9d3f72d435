"""Command line front end.

    aaul check MODEL FORMULA [--state S] [--max-blocks N]
    aaul apply MODEL --update UPDATE [-o OUT]
    aaul bisim MODEL
    aaul dot MODEL [-o OUT]
    aaul encode-tiling TILES [--conjunct NAME]
    aaul tile-search TILES --max-period K
    aaul witness-model TILES --period K [--cell-props] [-o OUT]
    aaul sat-search FORMULA --max-states N [--agents A,B] [--props P,Q]
                    [--max-blocks N] [--limit N]

MODEL and TILES are file paths; `-` reads standard input. Exit codes:
0 for yes/success, 1 for a definite no, 2 for any error (bad input,
unknown state or agent, exceeded budget or search limit).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys

from .bisim import coarsest_partition
from .checker import Budget, DEFAULT_BUDGET, core_checker, satisfies, update_model
from .errors import AaulError
from .kripke import KripkeModel, export_dot, load_model, save_model
from .syntax import (
    ArbBox,
    ArbDiamond,
    UpdateBox,
    UpdateDiamond,
    flatten_conj,
    is_quantifier_free,
    local_depth,
    parse_formula,
    parse_update,
    print_formula,
    signature,
    subformulas,
)
from .tiling import build_torus_model, encode_parts, find_periodic_tiling, parse_tiles


class _UsageError(AaulError):
    pass


class _Help(Exception):
    """The help text --help asked for, carried to `run`."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        # argparse would print to the process's stdout; run writes it to its own
        raise _Help(self.format_help())


@functools.cache  # once per process: parse_args keeps nothing between calls
def _build_parser() -> _Parser:
    parser = _Parser(prog="aaul", description="arrow update logic toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("check", help="evaluate a formula at a state")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--state", help="defaults to the model's point")
    p.add_argument("--max-blocks", type=int)

    p = sub.add_parser("apply", help="apply an update to a model")
    p.add_argument("model")
    p.add_argument("--update", required=True, help='update literal, e.g. "{(p,a,true)}"')
    p.add_argument("-o", "--output")

    p = sub.add_parser("bisim", help="print bisimulation blocks, one per line")
    p.add_argument("model")

    p = sub.add_parser("dot", help="export a model as graphviz")
    p.add_argument("model")
    p.add_argument("-o", "--output")

    p = sub.add_parser("encode-tiling", help="print the formula for a tile instance")
    p.add_argument("tiles")
    p.add_argument("--conjunct", help="print a single named part instead")

    p = sub.add_parser("tile-search", help="look for a periodic tiling")
    p.add_argument("tiles")
    p.add_argument("--max-period", type=int, required=True)

    p = sub.add_parser("witness-model", help="build the torus model for a periodic tiling")
    p.add_argument("tiles")
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--cell-props", action="store_true", help="add one private proposition per cell")
    p.add_argument("-o", "--output")

    p = sub.add_parser("sat-search", help="search for a small satisfying model")
    p.add_argument("formula")
    p.add_argument("--max-states", type=int, required=True)
    p.add_argument("--agents", help="comma separated; defaults to the formula's agents")
    p.add_argument("--props", help="comma separated; defaults to the formula's atoms")
    p.add_argument("--max-blocks", type=int)
    p.add_argument(
        "--limit", type=int, default=1_000_000,
        help="cap on candidate models, and on relabelling table entries per size",
    )

    return parser


def _read(path: str, stdin) -> str:
    if path == "-":
        return (stdin or sys.stdin).read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(text: str, output: str | None, out):
    if output is None:
        out.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _budget(args) -> Budget:
    if getattr(args, "max_blocks", None) is None:
        return DEFAULT_BUDGET
    return Budget(max_arrow_blocks=args.max_blocks)


def run(argv, stdin=None, stdout=None, stderr=None) -> int:
    out = stdout or sys.stdout
    err = stderr or sys.stderr
    try:
        args = _build_parser().parse_args(argv)
        return _dispatch(args, stdin, out)
    except _Help as h:
        out.write(str(h))
        return 0
    except (AaulError, ValueError, OSError) as e:
        err.write(f"error: {e}\n")
        return 2


def _dispatch(args, stdin, out) -> int:
    if args.command == "check":
        m = load_model(_read(args.model, stdin))
        f = parse_formula(args.formula)
        state = args.state if args.state is not None else m.point
        if state is None:
            raise AaulError("no --state given and the model has no point")
        verdict = satisfies(m, state, f, _budget(args))
        out.write("true\n" if verdict else "false\n")
        return 0 if verdict else 1

    if args.command == "apply":
        m = load_model(_read(args.model, stdin))
        u = parse_update(args.update)
        _write(save_model(update_model(m, u)), args.output, out)
        return 0

    if args.command == "bisim":
        m = load_model(_read(args.model, stdin))
        part = coarsest_partition(m)
        for block in part.blocks:
            out.write(" ".join(sorted(block, key=m.state_index)) + "\n")
        return 0

    if args.command == "dot":
        m = load_model(_read(args.model, stdin))
        _write(export_dot(m), args.output, out)
        return 0

    if args.command == "encode-tiling":
        inst = parse_tiles(_read(args.tiles, stdin))
        parts = encode_parts(inst)
        if args.conjunct is None:
            out.write(print_formula(parts.formula) + "\n")
            return 0
        named = parts.named()
        if args.conjunct not in named:
            raise AaulError(
                f"unknown conjunct {args.conjunct!r}; valid names: " + " ".join(named)
            )
        out.write(print_formula(named[args.conjunct]) + "\n")
        return 0

    if args.command == "tile-search":
        inst = parse_tiles(_read(args.tiles, stdin))
        if args.max_period < 1:
            raise AaulError("--max-period must be at least 1")
        for k in range(1, args.max_period + 1):
            tiling = find_periodic_tiling(inst, k)
            if tiling is not None:
                out.write(f"period {k}\n")
                for m_ in range(k):
                    for n in range(k):
                        out.write(f"{n} {m_} {tiling.grid[(n, m_)].name}\n")
                return 0
        out.write(f"no periodic tiling with period <= {args.max_period}\n")
        return 1

    if args.command == "witness-model":
        inst = parse_tiles(_read(args.tiles, stdin))
        if args.period < 1:
            raise AaulError("--period must be at least 1")
        tiling = find_periodic_tiling(inst, args.period)
        if tiling is None:
            out.write(f"no periodic tiling with period {args.period}\n")
            return 1
        model = build_torus_model(inst, tiling, cell_props=args.cell_props)
        _write(save_model(model), args.output, out)
        return 0

    if args.command == "sat-search":
        return _sat_search(args, out)

    raise AaulError(f"unknown command {args.command!r}")


def _sat_search(args, out) -> int:
    f = parse_formula(args.formula)
    atoms, agents_used = signature(f)
    agents = tuple(args.agents.split(",")) if args.agents else tuple(sorted(agents_used))
    props = tuple(args.props.split(",")) if args.props else tuple(sorted(atoms))
    if args.max_states < 1:
        raise AaulError("--max-states must be at least 1")
    budget = _budget(args)
    conjuncts = _conjunct_order(f)

    seen = 0
    for n in range(1, args.max_states + 1):
        count = (1 << (n * len(props))) * (1 << (n * n * len(agents)))
        if seen + count > args.limit:
            raise AaulError(
                f"search space at {n} states needs {count} candidates, over --limit {args.limit}"
            )
        seen += count
        # the relabellings other than the identity, each a 2^n-entry table
        table = (math.factorial(n - 1) - 1) << n
        if table > args.limit:
            raise AaulError(
                f"relabelling table at {n} states needs {table} entries, over --limit {args.limit}"
            )
        found = _sat_search_n(conjuncts, n, agents, props, budget)
        if found is not None:
            out.write(save_model(found))
            return 0
    out.write(f"none up to {args.max_states} states\n")
    return 1


def _relabellings(n: int) -> tuple:
    """Every relabelling of states 0..n-1 that keeps state 0 (the point)
    fixed, except the identity, as a pair: the image of each n-bit state
    set, and for each state i the shift that moves its row of an n*n-bit
    arrow mask (bit i*n + j is the arrow i->j) to the row of its image."""
    out = []
    # permutations() yields the identity first
    for perm in itertools.islice(itertools.permutations(range(1, n)), 1, None):
        mapping = (0, *perm)
        image = tuple(
            sum(((mask >> i) & 1) << mapping[i] for i in range(n)) for mask in range(1 << n)
        )
        out.append((image, tuple(mapping[i] * n for i in range(n))))
    return tuple(out)


def _relabel_states(relabelling, mask: int) -> int:
    return relabelling[0][mask]


def _relabel_arrows(relabelling, mask: int) -> int:
    image, shifts = relabelling
    n, row = len(shifts), len(image) - 1
    out = 0
    for i, shift in enumerate(shifts):
        out |= image[(mask >> (i * n)) & row] << shift
    return out


def _least_tuples(width: int, count: int, relabel, relabellings, trie=None, low: int = 0):
    """Tuples of `count` masks of `width` bits, in itertools.product order,
    that no relabelling maps to a lexicographically smaller tuple. Each comes
    with the relabellings that map it to itself.

    Tuples compare at their first differing mask. So a prefix that some
    relabelling makes smaller rules out every tuple it starts, one that a
    relabelling makes larger is safe from it, and only the relabellings that
    fix the prefix are tried on the next mask.

    A trie (nested dicts, one level per mask, keys ascending; None for no
    filter) keeps only the tuples whose masks' low `low` bits spell a path
    of it: at each level only the masks hi | r with r a key there are
    tried, hi and then r ascending, so the order is kept.
    """
    if count == 0:
        yield (), relabellings
        return
    if trie is None:
        masks = zip(range(1 << width), itertools.repeat(None))
    else:
        masks = ((hi | r, below) for hi in range(0, 1 << width, 1 << low) for r, below in trie.items())
    for mask, below in masks:
        fixing = []
        for r in relabellings:
            moved = relabel(r, mask)
            if moved < mask:
                break
            if moved == mask:
                fixing.append(r)
        else:
            for rest, stabiliser in _least_tuples(width, count - 1, relabel, fixing, below, low):
                yield (mask, *rest), stabiliser


def _canonical_candidates(n: int, props: int, agents: int):
    """Each valuation tuple of n-state candidates in canonical form, with a
    function from a trie of s0-row tuples (the rows `mask & (2^n - 1)`, one
    level per agent; None for all) to an iterator over the arrow tuples
    that complete it to one and whose row tuple is in the trie."""
    for prop_masks, stabiliser in _least_tuples(n, props, _relabel_states, _relabellings(n)):

        def arrow_tuples(trie=None, stabiliser=stabiliser):
            tuples = _least_tuples(n * n, agents, _relabel_arrows, stabiliser, trie, n)
            return (arrow_masks for arrow_masks, _ in tuples)

        yield prop_masks, arrow_tuples


def _row_trie(level: int, rows: list, read, width: int, passes) -> dict | bool:
    """The trie, one level per agent from `level` on, of the row tuples
    that start with rows[:level] and pass, or False when none does. Each
    row of `width` bits is tried at a level in `read`; any other level is
    judged at row 0 and holds every row over one shared subtrie. Keys
    ascend at every level."""
    if level == len(rows):
        return passes(tuple(rows)) and {}
    if level not in read:
        below = _row_trie(level + 1, rows, read, width, passes)
        return below is not False and dict.fromkeys(range(1 << width), below)
    node = {}
    for r in range(1 << width):
        rows[level] = r
        below = _row_trie(level + 1, rows, read, width, passes)
        if below is not False:
            node[r] = below
    return node or False


def _conjunct_order(f) -> tuple:
    """The top-level conjuncts of f: those with no update and no [*]/<*>
    first, then those with an update, then those with [*]/<*>, each group
    in the given order."""

    return tuple(sorted(flatten_conj(f), key=_group))


def _group(c) -> int:
    """2 for a formula with [*]/<*>, else 1 for one with an update, else 0."""
    if not is_quantifier_free(c):
        return 2
    return int(any(isinstance(g, (UpdateBox, UpdateDiamond)) for g in subformulas(c)))


def _settled(check, m: KripkeModel, c) -> bool | None:
    """Whether c holds at m's point by `check`, or None when the check
    refuses: a refused check decides nothing."""
    try:
        return m.point in check(m, c)
    except AaulError:
        return None


def _sat_search_n(conjuncts, n: int, agents, props, budget) -> KripkeModel | None:
    """The first model with n states, in candidate order, that satisfies
    every one of the formulas `conjuncts` (in `_conjunct_order`) at s0,
    among those in canonical form in which s0 reaches every state; None if
    there is none.

    A candidate is a tuple of n-bit valuation masks, one per proposition,
    then n*n-bit arrow masks, one per agent, visited in itertools.product
    order. It is in canonical form when no relabelling of the states that
    fixes s0 turns it into a lexicographically smaller tuple. Valuations
    come first in that order, so a valuation that some relabelling makes
    smaller rules out all its arrow masks, and one it makes larger rules out
    none; `_canonical_candidates` skips the first kind once and tries
    arrow masks only against the relabellings that fix the valuation. The
    candidates checked are therefore exactly the canonical ones, in the
    same order as testing every relabelling on every candidate.

    A candidate satisfies f exactly when it satisfies each top-level
    conjunct, so the conjuncts are checked one at a time (cheap ones first,
    see `_conjunct_order`) and the first false one rejects the candidate.
    A conjunct alone is evaluated as it is within f (the checker memoizes
    per node, and conjuncts share no node that takes work), only at a
    smaller recursion depth: so the search refuses only where checking f
    whole does. The conjuncts of one candidate share one evaluator. They
    are disjoint subtrees of one parse that share only the `true`/`false`
    singletons, which skip the memo, so every verdict and refusal is the
    one a fresh evaluator per conjunct gives.

    A quantifier-free conjunct is decided once per neighbourhood of s0.
    Its truth at s0 depends only on the valuation and on the rows (arrows
    out of one state) of the agents it mentions at the states within
    distance < `local_depth` of s0 (see there for the induction). So within
    one valuation its verdict is kept under the arrow masks of those agents
    cut down to those rows. The walk from s0 that finds the rows reads only
    rows inside them, so two candidates with equal cut masks reach the same
    rows, agree on all of them, and get the same verdict. A model and
    evaluator are built only to evaluate, and the conjuncts evaluated are a
    subset of those the uncached search evaluates, in the same order and
    the same way: where that search decides, this one gives the same
    answer, and it refuses only where that one does. It may answer where
    that one exits 2: a clause formula is judged when any arrow of the
    model needs it, so a reused verdict can skip one, needed only by arrows
    outside the neighbourhood, that is over budget or names an undeclared
    agent.

    Only point-generated candidates, where every state is reachable from s0
    along some agent's arrows, can be found (judged on the OR of the arrow
    masks, once per distinct OR). f's truth at s0 depends only on the
    submodel generated by s0, by induction on f: [U] keeps the arrows
    between its states as the clauses judge them there; for [*], the
    coarsest partition of the submodel is the full one restricted to it,
    each of its arrow blocks is the non-empty restriction of exactly one
    full block, and so the unions of the one map onto those of the other,
    each a submodel closed under its own arrows. Sizes are searched in
    ascending order, so a first satisfying candidate with an unreachable
    state would mean that its generated submodel, a smaller candidate up
    to relabelling, was found before: none is ever the first found, and
    leaving them out changes no model printed.

    Leaving a candidate out also drops the verdicts it would have kept for
    later ones. Only a conjunct with an update can miss them: any other
    quantifier-free conjunct is evaluated along a path that the arrows do
    not change, so it refuses on every candidate or on none; but [U]
    judges a clause formula only where some arrow needs it, so a later
    candidate may refuse on one that the earlier never judged. So a
    candidate that is not point-generated still goes through the conjuncts
    up to the last one with an update (`_conjunct_order` puts them before
    every [*]/<*> one), keeping the verdicts the search without the skip
    keeps, and is never returned; with no such conjunct it goes through
    none and nothing is built for it. Either way only evaluations are
    dropped, and no kept verdict that an update conjunct needs: where the
    search without the skip decides, this one gives the same answer, and a
    refusal met on a dropped evaluation may become an answer.

    Two kinds of conjunct are settled before any arrow mask is looked at,
    by one evaluator per valuation (`_settled`):

    (a) Per valuation, on `valued`, the valuation with no arrows. A
    conjunct of local depth 0 holds at s0 of every candidate exactly when
    it holds there. `valued` is also the empty union, the first one every
    candidate's [*]/<*> walk evaluates its body on: so a top-level [*]g
    false at s0 of `valued` is false on every candidate, and a top-level
    <*>g true there is true on every candidate. A conjunct so decided true
    leaves this valuation's plan; one decided false skips the valuation
    with all its arrow masks. Verdicts are kept per valuation, so skipping
    one drops none that another valuation reads.

    (b) Per s0-row tuple, the rows of s0 (`mask & full`) of every agent. A
    conjunct of local depth 1 reads only s0's rows of the agents it
    mentions, so it is decided on a model that holds just those rows, and
    its verdict is kept under the same key as (in place of) one evaluated on
    a candidate. A row tuple fails when such a conjunct is false and every
    conjunct before it in the plan is one that (b) decided true or one with
    neither update nor [*]/<*>: a candidate that the search without (b)
    would have taken through an update conjunct first still goes that way,
    so that it keeps the same verdicts for later candidates (as for point
    generation, above); a conjunct with neither refuses on every candidate
    or on none, so a verdict of one that is missed costs no refusal. Every
    row tuple of a valuation is judged before its arrow masks are, and the
    passing ones make a trie that `_least_tuples` walks: the candidates
    enumerated are exactly the canonical ones whose row tuple passes, in the
    same order, and a valuation none passes is skipped. A row tuple's fate
    reads only the rows of the agents that conjuncts of depth 1 mention, so
    only those are judged: the level of any other agent holds all its rows
    over one shared subtrie, judged with that agent's row empty. This also
    judges row tuples that no canonical candidate has, but only on the
    per-valuation evaluator, through `_settled`, which swallows their
    refusals. A key's verdict, or its refusal, on these models is fixed by
    the key (the model holds the rows the conjunct reads, and no others that
    it reads), and a refusal is not kept: so each row tuple a candidate has
    stops at the same conjunct, with the same fate, whatever was judged
    before it, and an extra verdict kept is the one a candidate's own
    evaluation gives wherever that decides.

    A check of (a) or (b) that refuses decides nothing: the conjunct stays
    in the plan and is checked on the candidates as before, and (b) stops
    at it. Where the search without (a) and (b) decides, every verdict
    they give is the one it gives, and every candidate they reject is one
    it rejects, so the output is the same; the search refuses only where
    that one does, and may answer where it refuses.
    """
    states = tuple(f"s{i}" for i in range(n))
    # validated once per size, so a bad --agents or --props name is reported
    # here; the candidates, over the same names, are derived from it unchecked
    base = KripkeModel(states, agents, props, {}, {}, point=states[0])
    # per-size tables, O(n * 2^n) entries: the states of each n-bit mask,
    # for each state i the arrows out of it, indexed by row i (bits
    # i*n .. i*n+n-1) of an arrow mask, and the rows of each state mask
    state_sets = tuple(
        frozenset(s for j, s in enumerate(states) if (mask >> j) & 1) for mask in range(1 << n)
    )
    rows = tuple(
        tuple(frozenset((s, t) for t in targets) for targets in state_sets) for s in states
    )
    full = (1 << n) - 1
    row_bits = tuple(sum(full << i * n for i in range(n) if (mask >> i) & 1) for mask in range(1 << n))

    def arrows_of(mask: int) -> frozenset:
        out = frozenset()
        for row in rows:
            out |= row[mask & full]
            mask >>= n
        return out

    def step(seen: int, masks) -> int:
        """The state mask seen plus the targets of masks' rows at seen."""
        out = seen
        for mask in masks:
            mask &= row_bits[seen]
            while mask:
                out |= mask & full
                mask >>= n
        return out

    def near(masks: list, depth: int) -> tuple:
        """masks cut down to the rows of the states within distance < depth of s0."""
        seen = 1 if depth else 0
        for _ in range(min(depth, n) - 1):
            seen = step(seen, masks)
        return tuple(mask & row_bits[seen] for mask in masks)

    reaches_all = {}  # the OR of a candidate's arrow masks -> is every state reachable from s0

    def point_generated(arrow_masks) -> bool:
        union = 0
        for mask in arrow_masks:
            union |= mask
        reached = reaches_all.get(union)
        if reached is None:
            seen, wider = 0, 1
            while wider != seen:
                seen, wider = wider, step(wider, (union,))
            reached = reaches_all[union] = seen == full
        return reached

    # each conjunct's local depth (None: checked on every candidate), read agents and group
    plan = [
        (i, c, local_depth(c), sorted(agents.index(a) for a in signature(c)[1] if a in agents), _group(c))
        for i, c in enumerate(conjuncts)
    ]
    settling = any(depth in (0, 1) or type(c) in (ArbBox, ArbDiamond) for _, c, depth, _, _ in plan)

    def valuation_plan(valued, probe) -> list | None:
        """(a): the plan less the conjuncts valued decides true, or None
        when it decides one false."""
        kept = []
        for entry in plan:
            c, depth = entry[1], entry[2]
            kind = type(c)
            if depth == 0 or kind is ArbBox or kind is ArbDiamond:
                holds = _settled(probe, valued, c)
                if holds is False and kind is not ArbDiamond:
                    return None
                if holds and kind is not ArbBox:
                    continue
            kept.append(entry)
        return kept

    def rows_pass(row0: tuple, kept, valued, probe, verdicts) -> bool:
        """(b): False when a conjunct of depth 1, reached before any update
        conjunct left to the candidates, is false with s0's rows row0."""
        rowed = None
        for i, c, depth, read, group in kept:
            if depth == 1:
                key = (i, tuple(row0[j] for j in read))  # near(masks, 1) of a candidate
                verdict = verdicts.get(key)
                if verdict is None:
                    if rowed is None:
                        rowed = valued._derive(dict(zip(agents, map(rows[0].__getitem__, row0))))
                    verdict = _settled(probe, rowed, c)
                    if verdict is None:
                        return True
                    verdicts[key] = verdict
                if not verdict:
                    return False
            elif group:
                return True
        return True

    for prop_masks, arrow_tuples in _canonical_candidates(n, len(props), len(agents)):
        valued = base._derive(base.arrows, dict(zip(props, map(state_sets.__getitem__, prop_masks))))
        probe = core_checker(budget) if settling else None
        kept = valuation_plan(valued, probe)
        if kept is None:
            continue
        verdicts = {}  # (conjunct index, its cut masks) -> verdict, for this valuation
        # (b): the trie of the row tuples that pass; a fate reads only the
        # rows of the agents that conjuncts of depth 1 read
        shallow = {j for entry in kept if entry[2] == 1 for j in entry[3]}
        trie = _row_trie(0, [0] * len(agents), shallow, n, lambda row0: rows_pass(row0, kept, valued, probe, verdicts))
        if trie is False:
            continue
        # what a candidate that is not point-generated goes through: the
        # conjuncts up to the last one with an update, none if there is none
        filling = kept[: max((k + 1 for k, entry in enumerate(kept) if entry[4] == 1), default=0)]
        for arrow_masks in arrow_tuples(trie):
            generated = point_generated(arrow_masks)
            m = None
            for i, c, depth, read, _ in kept if generated else filling:
                key = depth is not None and (i, near([arrow_masks[j] for j in read], depth))
                verdict = verdicts.get(key)
                if verdict is None:
                    if m is None:
                        m = valued._derive(dict(zip(agents, map(arrows_of, arrow_masks))))
                        check = core_checker(budget)
                    verdict = states[0] in check(m, c)
                    if key:
                        verdicts[key] = verdict
                if not verdict:
                    break
            else:
                if generated:
                    return m or valued._derive(dict(zip(agents, map(arrows_of, arrow_masks))))
    return None


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
