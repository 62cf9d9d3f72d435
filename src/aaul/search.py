"""Bounded satisfiability search: the first small model of a formula.

Satisfiability of the logic is co-RE hard, so no procedure decides it;
`sat_search` tries every model up to a number of states, smallest first,
and either returns the first one that satisfies the formula at its point,
returns None, or refuses with an `AaulError`.
"""

from __future__ import annotations

import itertools
import math

from .checker import Budget, DEFAULT_BUDGET, core_checker
from .errors import AaulError
from .kripke import KripkeModel
from .syntax import (
    ArbBox,
    ArbDiamond,
    Formula,
    UpdateBox,
    UpdateDiamond,
    flatten_conj,
    is_quantifier_free,
    local_depth,
    signature,
    subformulas,
)


def sat_search(
    f: Formula,
    max_states: int,
    agents=None,
    props=None,
    budget: Budget = DEFAULT_BUDGET,
    limit: int = 1_000_000,
) -> KripkeModel | None:
    """The first model with at most max_states states, over states s0, s1,
    ... with point s0, that satisfies f at s0; None if there is none.

    The models are over `agents` and `props`; None stands for the agents
    and atoms f names, sorted, and an empty sequence for none. Smaller
    models come first, and within one size the order of `_sat_search_n`.
    `limit` caps the candidates summed over the sizes tried, and the
    entries of each size's relabelling table; going over it, or over
    `budget` on some candidate, raises `AaulError`.

    The model found is checked against f whole, as `satisfies` would, and
    a refusal there refuses the search: a verdict settled on a probe may
    leave out a clause formula the whole check judges (one that names an
    undeclared agent, say), so no model is returned that the checker
    refuses on."""
    atoms, agents_used = signature(f)
    agents = tuple(sorted(agents_used)) if agents is None else tuple(agents)
    props = tuple(sorted(atoms)) if props is None else tuple(props)
    if max_states < 1:
        raise AaulError("max_states must be at least 1")
    conjuncts = _conjunct_order(f)

    seen = 0
    for n in range(1, max_states + 1):
        count = (1 << (n * len(props))) * (1 << (n * n * len(agents)))
        if seen + count > limit:
            raise AaulError(
                f"search space at {n} states needs {count} candidates, over limit {limit}"
            )
        seen += count
        # the relabellings other than the identity, each a 2^n-entry table
        table = (math.factorial(n - 1) - 1) << n
        if table > limit:
            raise AaulError(
                f"relabelling table at {n} states needs {table} entries, over limit {limit}"
            )
        found = _sat_search_n(conjuncts, n, agents, props, budget)
        if found is not None:
            holds = core_checker(budget)(found, f)  # raises where the checker refuses
            assert found.point in holds
            return found
    return None


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
    fixes s0 turns it into a lexicographically smaller tuple;
    `_canonical_candidates` yields exactly those, in that order.

    Contract, against the reference `naive_sat_search` of the tests, which
    checks f whole on every canonical candidate of every size in turn:
    where it decides, the search gives the same output; where it refuses,
    the search refuses or returns a model that satisfies f. The argument
    rests on four facts.

    - Point generation. f's truth at s0 depends only on the submodel that
      s0 generates ([U] keeps the arrows between its states as the clauses
      judge them there; for [*], the coarsest partition of the submodel is
      the full one restricted to it, so the arrow blocks and their unions
      correspond). Sizes ascend, so the first model the reference finds is
      point-generated, and a candidate in which s0 misses a state is
      skipped outright, with nothing evaluated on it.
    - Conjuncts. A candidate satisfies f exactly when it satisfies each
      top-level conjunct. They are checked one at a time, cheap ones first,
      and the first false one rejects the candidate. A conjunct alone is
      evaluated as within f, one level less deep, on one evaluator per
      candidate (the conjuncts share only the `true`/`false` singletons,
      which skip the memo). So every evaluation the search makes on a
      candidate is one the reference makes on it too, and refuses only if
      the reference's does.
    - Views. Let g be quantifier-free, of local depth d, A the agents and P
      the atoms it mentions, and R_k the states within distance <= k of s0
      along A's arrows. Then g's truth at s0 depends only on its view of
      s0: A's rows (arrows out of one state) at the states of R_{d-1}
      (none when d = 0), and P's values at the states of R_d. Those rows
      fix R_d, so two models with the same view have the same R_d. By
      induction on g, for every state s and both models (with R_k(s)
      taken from s): an atom or a constant reads s alone; a connective
      its parts, whose views are parts of g's; [a]h, d = e + 1, reads a's
      row at s and h at each successor t, and R_k(t) lies in R_{k+1}(s),
      so h's view at t is part of g's at s. For [U]h, the updated model
      M^U keeps the valuation and a subset of the arrows: u -a-> v when it
      is an arrow of M and some clause (pre, a, post) has pre true at u
      and post at v, judged in M. If h has depth 0, M^U agrees with M at s
      on P, and d = 0. Otherwise d = e + c, with e = depth(h) > 0 and c
      the depth of U's deepest clause formula. h's view in M^U reads rows
      at u in R^U_{e-1}(s), inside R_{e-1}(s), and atoms in R^U_e(s),
      inside R_e(s). Such a row of M^U needs M's row at u (u in R_{d-1}),
      pre at u (its view lies in R_{e-1+c}(s) = R_{d-1}(s)) and post at
      each successor v of u (v in R_e(s), its view in R_{e+c}(s) = R_d(s)).
      So the two updated models agree on h's view, R^U_k included, and by
      induction on h; <U>h is not [U] not h. On a model with no arrows
      every view is s0's atoms alone, and so is the truth of any formula
      at s0, [*]/<*> included: modalities are vacuous, an update keeps no
      arrow, and [*] ranges over the empty union only.
    - Shared verdicts. One dict per size, `verdicts`, keeps each decided
      verdict of a conjunct under (its index, its view of s0), and every
      valuation of the size reads it: (a) a probe on `valued`, the
      valuation with no arrows, under s0's atoms; (b) a probe on a model
      that holds only a tuple of s0's rows, for a conjunct of depth 1,
      under those rows and the atoms at s0 and their targets; (c) a
      candidate's conjunct of any local depth, under its full view. A
      kernel check decides only when it gives the conjunct's truth, so a
      verdict kept is the one every model with that view has. Bit layouts
      depend on n, so the dict is not kept across sizes; refused checks
      are not kept.
    - Probes. Before any arrow mask of a valuation is looked at, (a)
      settles each conjunct of local depth 0 and each top-level [*]g or
      <*>g: `valued` is the empty union that every candidate's walk tries
      first, so [*]g false there is false on every candidate, and <*>g
      true there is true on every candidate. Then, per tuple of s0's rows,
      (b) settles each conjunct of local depth 1. A conjunct decided true
      leaves the plan; one decided false skips the valuation (a) or the
      row tuple (b); a refused probe decides nothing and leaves the
      conjunct to the candidates. The row tuples that pass form a trie,
      and `_least_tuples` draws only the canonical candidates whose row
      tuple is in it, in the same order. A row tuple's fate reads only the
      rows of the agents that conjuncts of depth 1 mention, so every other
      agent's level holds all its rows over one shared subtrie.

    A verdict kept or settled is the one the candidate's own evaluation
    gives wherever that decides. So where the reference decides, every
    candidate before its answer is rejected here too and its answer is
    accepted. Where it refuses, a returned model has every conjunct true.
    """
    states = tuple(f"s{i}" for i in range(n))
    # validated once per size, so a bad agent or proposition name is
    # reported here; the candidates, over the same names, are derived from
    # it unchecked
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

    def view(entry, masks, depth: int) -> tuple:
        """The key of a conjunct's verdict: its index and its view of s0 at
        local depth `depth` on arrow masks `masks` (one per agent): its
        agents' masks cut down to the rows of R_{depth-1}, and its atoms'
        masks, packed into one int, cut down to R_depth."""
        i, _, _, read, atoms, spread = entry
        if not depth:
            return i, (), atoms & spread[1]
        if len(read) < len(masks):
            masks = [masks[j] for j in read]
        seen = 1
        if depth == 1:  # s0's rows are bits 0..n-1, and name the states of R_1
            masks = tuple([mask & full for mask in masks])
            for mask in masks:
                seen |= mask
            return i, masks, atoms & spread[seen]
        for _ in range(min(depth, n) - 1):
            seen = step(seen, masks)
        masks = tuple([mask & row_bits[seen] for mask in masks])
        return i, masks, atoms & spread[step(seen, masks)]

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

    # each conjunct's local depth (None: checked on every candidate), the
    # indices of the agents and the atoms it mentions, and per state mask
    # that mask repeated in one n-bit field per atom: the atoms' masks,
    # packed into the same fields, are cut down to a state set by one &
    plan = []
    for i, c in enumerate(conjuncts):
        atoms_c, agents_c = signature(c)
        read = [j for j, a in enumerate(agents) if a in agents_c]
        atoms = [k for k, p in enumerate(props) if p in atoms_c]
        spread = [sum(mask << n * j for j in range(len(atoms))) for mask in range(1 << n)]
        plan.append((i, c, local_depth(c), read, atoms, spread))
    verdicts = {}  # view() key -> decided verdict, for every valuation of this size

    def settle(key, m, c, probe: list) -> bool | None:
        """c's check on m by the valuation's probe evaluator (probe[0],
        built on first use), kept under key if it decides."""
        if not probe:
            probe.append(core_checker(budget))
        verdict = _settled(probe[0], m, c)
        if verdict is not None:
            verdicts[key] = verdict
        return verdict

    def valuation_plan(valued, probe, entries) -> list | None:
        """(a): the entries less the conjuncts valued decides true, or None
        when it decides one false."""
        kept = []
        for entry in entries:
            c, depth = entry[1], entry[2]
            kind = type(c)
            if depth == 0 or kind is ArbBox or kind is ArbDiamond:
                key = view(entry, (), 0)
                holds = verdicts.get(key)
                if holds is None:
                    holds = settle(key, valued, c, probe)
                if holds is False and kind is not ArbDiamond:
                    return None
                if holds and kind is not ArbBox:
                    continue
            kept.append(entry)
        return kept

    def rows_pass(row0: tuple, shallow, valued, probe) -> bool:
        """(b): False when a conjunct of `shallow`, those of depth 1,
        reached before any whose probe refuses, is false with s0's rows
        row0."""
        rowed = None
        for entry in shallow:
            key = view(entry, row0, 1)  # row0 holds a candidate's rows of s0, and no other
            verdict = verdicts.get(key)
            if verdict is None:
                if rowed is None:
                    rowed = valued._derive(dict(zip(agents, map(rows[0].__getitem__, row0))))
                verdict = settle(key, rowed, entry[1], probe)
                if verdict is None:
                    return True
            if not verdict:
                return False
        return True

    for prop_masks, arrow_tuples in _canonical_candidates(n, len(props), len(agents)):
        valued = base._derive(base.arrows, dict(zip(props, map(state_sets.__getitem__, prop_masks))))
        probe = []  # the valuation's one probe evaluator, once built
        entries = [
            (i, c, depth, read, sum(prop_masks[k] << n * j for j, k in enumerate(atoms)), spread)
            for i, c, depth, read, atoms, spread in plan
        ]
        kept = valuation_plan(valued, probe, entries)
        if kept is None:
            continue
        # (b): the trie of the row tuples that pass; a fate reads only the
        # rows of the agents that conjuncts of depth 1 read
        shallow = [entry for entry in kept if entry[2] == 1]
        row_agents = {j for entry in shallow for j in entry[3]}
        trie = _row_trie(0, [0] * len(agents), row_agents, n, lambda row0: rows_pass(row0, shallow, valued, probe))
        if trie is False:
            continue
        for arrow_masks in arrow_tuples(trie):
            if not point_generated(arrow_masks):
                continue
            m = None
            for entry in kept:
                c, depth = entry[1], entry[2]
                key = depth is not None and view(entry, arrow_masks, depth)
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
                return m or valued._derive(dict(zip(agents, map(arrows_of, arrow_masks))))
    return None
