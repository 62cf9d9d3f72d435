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
    Atom,
    Box,
    Diamond,
    Formula,
    UpdateBox,
    UpdateDiamond,
    _parts,
    flatten_conj,
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
    `budget` on some candidate, raises `AaulError`. Repeated searches in
    one process share the tables that depend only on a size and the
    number of props, canonical valuations included, for each size of at
    most 4,096 valuations and relabelling entries (`_KEEP_MAX`); `limit`
    is still checked on every call.

    The model found is checked against f whole, as `satisfies` would, and
    a refusal there refuses the search: a verdict settled on a probe may
    leave out a clause formula the whole check judges (one that names an
    undeclared agent, say), so no model is returned that the checker
    refuses on. Where checking f whole on every candidate in turn would
    refuse, the search refuses, returns a model that satisfies f, or
    returns None: a candidate it skips or rejects by one conjunct is never
    checked whole (the contract of `_sat_search_n`)."""
    atoms, agents_used = signature(f)
    agents = tuple(sorted(agents_used)) if agents is None else tuple(agents)
    props = tuple(sorted(atoms)) if props is None else tuple(props)
    if max_states < 1:
        raise AaulError("max_states must be at least 1")
    conjuncts = flatten_conj(f)
    # the conjuncts' plans, their verdicts, the types that key them, the
    # arrowless outcomes and the dead profiles name no size, so every size
    # shares them
    shared = _plans(conjuncts, agents, props), {}, {}, {}, set()

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
        found = _sat_search_n(conjuncts, n, agents, props, budget, shared)
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


def _size_tables(n: int, props: int) -> tuple:
    """The tables of n-state candidates over `props` props, O(n * 2^n)
    entries: the states' names, the states of each n-bit mask as names, the
    lowest state of each nonempty mask, for each state i the arrows out of
    it indexed by row i (bits i*n .. i*n+n-1) of an arrow mask, the mask of
    every state, each state mask's rows, and each state mask spread to bit
    s * props for each of its states s."""
    states = tuple(f"s{i}" for i in range(n))
    state_sets = tuple(frozenset(s for j, s in enumerate(states) if (mask >> j) & 1) for mask in range(1 << n))
    lowest = tuple((mask & -mask).bit_length() - 1 for mask in range(1 << n))
    rows = tuple(tuple(frozenset((s, t) for t in targets) for targets in state_sets) for s in states)
    full = (1 << n) - 1
    row_bits = tuple(sum(full << i * n for i in range(n) if (mask >> i) & 1) for mask in range(1 << n))
    spread = tuple(sum(1 << s * props for s in range(n) if (mask >> s) & 1) for mask in range(1 << n))
    return states, state_sets, lowest, rows, full, row_bits, spread


# Searches that repeat a size n and a number of props in one process (a
# library caller's loop, a test suite, the benchmark's passes) share what
# depends only on those two: `_tables` keeps `_size_tables(n, props)` in
# _KEPT, and `_canonical_candidates` lists there the canonical valuations
# once a search has drawn them all, so that a later search pays only for
# what its formula reads. A single search gains nothing: it builds each
# size once anyway, and draws its valuations lazily either way. A key is
# kept only when its valuations, 2^(n * props), and relabelling entries,
# (n-1)! * 2^n, each number at most _KEEP_MAX. That covers every search of
# up to 3 states over up to 4 props, and bounds what a process keeps
# whatever it searches: n <= 5 and n * props <= 12, at most 32 keys of at
# most a few thousand entries each. A larger size's tables are built afresh
# for each use. Threads that build or list one key at once store equal
# values, and a search reads a list only once it is whole, so no lock is
# needed.
_KEEP_MAX = 4096
_KEPT: dict = {}


def _tables(n: int, props: int) -> tuple:
    """`_size_tables(n, props)` and last, where the bound above keeps them,
    the list of canonical valuations (empty until a search has drawn them
    all); None in that place where it does not."""
    if (n, props) not in _KEPT:
        if max(1 << n * props, math.factorial(n - 1) << n) > _KEEP_MAX:
            return *_size_tables(n, props), None
        _KEPT[n, props] = *_size_tables(n, props), []
    return _KEPT[n, props]


def _canonical_candidates(n: int, props: int, agents: int):
    """Each valuation tuple of n-state candidates in canonical form, with a
    function from a trie of s0-row tuples (the rows `mask & (2^n - 1)`, one
    level per agent; None for all) to an iterator over the arrow tuples
    that complete it to one and whose row tuple is in the trie. The
    valuations are drawn lazily, and listed in `_tables` at a kept size
    once every one has been drawn."""
    listed = _tables(n, props)[-1]
    drawn = [] if listed == [] else None  # a kept size not listed yet
    for prop_masks, stabiliser in listed or _least_tuples(n, props, _relabel_states, _relabellings(n)):
        if drawn is not None:
            drawn.append((prop_masks, stabiliser))

        def arrow_tuples(trie=None, stabiliser=stabiliser):
            tuples = _least_tuples(n * n, agents, _relabel_arrows, stabiliser, trie, n)
            return (arrow_masks for arrow_masks, _ in tuples)

        yield prop_masks, arrow_tuples
    if drawn is not None:
        listed[:] = drawn


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


def _plans(conjuncts, agents, props) -> tuple:
    """Per conjunct: its index, itself, its local depth (None: checked on
    every candidate; `syntax.local_depth`), the indices of the agents it
    mentions, the mask of the atoms it mentions (bit k for props[k]), and
    the mask of its top atoms: those outside every [a]/<a>, or all its
    atoms when an update or a [*]/<*> is outside every [a]/<a>. Those with
    no update and no [*]/<*> come first, then those with an update, then
    those with [*]/<*>, each group in the given order.

    Each conjunct is walked once, bottom-up over `subformulas`, as
    `local_depth` walks it."""
    bit = {p: 1 << k for k, p in enumerate(props)}
    out = []
    for c in conjuncts:
        group, names, atoms = 0, set(), 0
        # each node's (local depth, top atoms), -1 for all of them
        below: dict[int, tuple] = {}
        for g in reversed(tuple(subformulas(c))):  # each node after its parts
            kind = type(g)
            parts = [below[id(h)] for h in _parts(g)[1]]
            depths = [d for d, _ in parts]
            depth = None if None in depths else max(depths, default=0)
            top = 0
            for _, t in parts:
                top |= t
            if kind is Atom:
                top = bit.get(g.name, 0)
                atoms |= top
            elif kind is Box or kind is Diamond:
                names.add(g.agent)
                top = 0
                if depth is not None:
                    depth += 1
            elif kind is UpdateBox or kind is UpdateDiamond:  # clause formulas, then the body
                names.update(clause.agent for clause in g.update.clauses)
                group = max(group, 1)
                if depth is not None:
                    depth = depths[-1] and depths[-1] + max(depths[:-1])
                top = -1
            elif kind is ArbBox or kind is ArbDiamond:
                group, depth, top = 2, None, -1
            below[id(g)] = depth, top
        depth, top = below[id(c)]
        read = tuple(j for j, a in enumerate(agents) if a in names)
        out.append((group, c, depth, read, atoms, top & atoms))
    out.sort(key=lambda plan: plan[0])  # stable: each group in the given order
    return tuple((i, *plan[1:]) for i, plan in enumerate(out))


def _settled(check, m: KripkeModel, c) -> bool | None:
    """Whether c holds at m's point by `check`, or None when the check
    refuses: a refused check decides nothing."""
    try:
        return m.point in check(m, c)
    except AaulError:
        return None


def _sat_search_n(conjuncts, n: int, agents, props, budget, shared=None) -> KripkeModel | None:
    """The first model with n states, in candidate order, that satisfies
    every one of the formulas `conjuncts` at s0, checked in `_plans` order,
    among those in canonical form in which s0 reaches every state; None if
    there is none. `shared` holds the conjuncts' `_plans`, the verdicts,
    the type table, the arrowless outcomes and the dead profiles, for one
    search to pass from size to size; None starts them afresh.

    A candidate is a tuple of n-bit valuation masks, one per proposition,
    then n*n-bit arrow masks, one per agent, visited in itertools.product
    order. It is in canonical form when no relabelling of the states that
    fixes s0 turns it into a lexicographically smaller tuple;
    `_canonical_candidates` yields exactly those, in that order.

    Contract, against the reference `naive_sat_search` of the tests, which
    checks f whole on every canonical candidate of every size in turn:
    where it decides, the search gives the same output; where it refuses,
    the search refuses, returns a model that satisfies f, or returns None.
    None comes by design: the candidate the reference refuses on may be
    one that s0 does not generate, or one that a conjunct checked first,
    or a verdict kept from another model, rejects here. The argument rests
    on five facts.

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
      evaluated as within f, on one evaluator per candidate (the conjuncts
      share only the `true`/`false` singletons, which skip the memo). So
      every evaluation the search makes on a candidate is one the
      reference makes on it too, and refuses only if the reference's does.
    - Types. Fix agents A and atoms P. A state's type_0 is the set of P's
      atoms true at it, and its type_{k+1} is its type_0 with, per agent of
      A, the set of its successors' type_k. States of any two models have
      the same type_k exactly when they are k-bisimilar over A and P
      (u ~_k u'): ~_0 is agreement on P, and u ~_{k+1} u' when u ~_0 u' and
      each a-successor of either, a in A, has one of the other related by
      ~_k; so ~_k implies ~_j for j <= k. A quantifier-free g of local
      depth d, over its own agents and atoms, has the same truth at states
      related by ~_d. By induction on g: an atom or a constant reads ~_0; a
      connective reads its parts, of depth <= d; [a]h, d = e + 1, relates
      each a-successor of either side to one of the other by ~_e. For [U]h,
      let c be the depth of U's deepest clause formula. The updated model
      M^U keeps the valuation, and has u -a-> v when that is an arrow of M
      and some clause (pre, a, post) has pre true at u and post at v, judged
      in M. If u ~_{k+c} u', then u ~_k u' in M^U and M'^U, by induction on
      k: ~_0 holds since the valuation is kept. For k + 1, an arrow u -a-> v
      of M^U comes from a clause whose pre (depth <= c) holds at u, so at
      u'; M' has an arrow u' -a-> v' with v ~_{k+c} v', where post (depth <=
      c) holds as it does at v, so M'^U keeps it, and v ~_k v' there. An
      agent with no clause has no arrow on either side. If h has depth 0,
      then d = 0, and the kept valuation settles h; otherwise d = e + c with
      e = depth(h) > 0, and u ~_d u' gives u ~_e u' in the updated models,
      where h agrees. <U>h is not [U] not h. An agent the candidates do not
      declare has no arrows in any of them, and a check that decides has
      not read it. On a model with no arrows, the truth of any formula at
      s0, [*]/<*> included, reads s0's atoms alone: modalities are vacuous,
      an update keeps no arrow, and [*] ranges over the empty union only.
      A conjunct's top atoms are those outside every [a]/<a>, or all its
      atoms when an update or a [*]/<*> is outside every [a]/<a> (a clause
      pre and the updated body are judged at s0). A conjunct of local
      depth d >= 1 reads at s0 only its top atoms and, per agent a it
      reads, the set of its a-successors' type_{d-1}: with all its atoms
      top, that is s0's type_d; otherwise it is a Boolean combination of
      its top atoms and of [a]g/<a>g, g of depth <= d - 1, which read only
      the type_{d-1} of the a-successors.
    - Verdicts and probes. `verdict` decides every conjunct, on a probe or
      a candidate. One dict, `verdicts`, keeps each decided verdict of a
      conjunct under its key: its index, its top atoms true at s0 and, at
      local depth d >= 1, per agent it reads the set of s0's successors'
      type_{d-1} over its own agents and atoms. A type_0 is a mask of
      atoms, and `types` gives each type_k above it an int of its own, so
      equal ints at one level are equal types. A set of types is an int
      with bit t for type t. Per valuation, `sets_of` fills one table per
      atom mask of a conjunct with the set of type_0 of every n-bit row r,
      from table[r & (r - 1)] and r's lowest state, and a candidate's
      tables of type_k above it are filled the same way. Types name no
      state and no size, so the dict serves every valuation of every size.
      A kernel check decides only when it gives the conjunct's truth, so a
      verdict kept is the one every model with that key has; refused
      checks are not kept. So `<a>(p & q)`, which reads no atom at s0, has
      one verdict for valuations that differ only at s0. A top-level [*]g
      or <*>g has a key on the model with no arrows alone, and any other
      conjunct with no local depth has none. A probe is the valuation's
      model cut to the arrows its key reads, checked on an evaluator of its
      own before any candidate is drawn: (a) with no arrows, for a
      conjunct of local depth 0 and a top-level [*]g or <*>g; (b) with
      only a tuple of s0's rows, for a conjunct of local depth 1. A probe
      has the key of every candidate of the valuation with the same arrows
      where the key reads them, so its verdict is theirs. For [*]g and
      <*>g, the model with no arrows is the empty union that every
      candidate's walk tries first: [*]g false there is false on every
      candidate, and <*>g true there is true on every candidate. So (a)
      drops a conjunct it decides true for every candidate and skips the
      valuation on one it decides false for every candidate, (b) skips a
      row tuple on a false one, and a refused probe decides nothing
      (`_settled`) and leaves the conjunct to the candidates. The row tuples that pass form a trie, and
      `_least_tuples` draws only the canonical candidates whose row tuple
      is in it, in the same order. A row tuple's fate reads only the rows
      of the agents that conjuncts of depth 1 mention, so every other
      agent's level holds all its rows over one shared subtrie.
    - Profiles. Two steps read less of a valuation than all of it, and
      their outcomes are kept for the whole search under what they read.
      (1) The loop of (a) calls `verdict` only on the model with no arrows,
      where each key is a conjunct's index and its top atoms true at s0: a
      function of s0's atoms, `atoms0`. On that model the kernel's
      evaluation path reads the formula and the agents, not the valuation
      or the size: every operand is evaluated, with no short-circuit;
      [c]/<c> always evaluate their body (or refuse an undeclared c);
      `apply_update` judges no clause formula when no arrow is left; and a
      [*]/<*> walk evaluates its body on the empty union and then meets
      zero arrow blocks, so no cap can refuse (the early exit after the
      empty union only skips that zero-block `checked()`). Every model
      derived there has no arrows, so it shares the probe's one fresh
      memo, and each probe starts at the same stack depth. So memo hits
      and the stack-depth refusal are the same for every valuation: a
      probe refuses for one valuation exactly when it refuses for all. A
      decided verdict is kept, so a later valuation of any size with the
      same `atoms0` would make the same calls, in the same order, find
      each decided one kept, see each refused one refuse again and reach
      the same kept plans, a refused conjunct left among them for the
      candidates, or the same skip: the outcome is kept under `atoms0`
      (`arrowless`). (2) (a) drops only conjuncts of local depth
      0 and top-level [*]g/<*>g, so the conjuncts (b) judges, `shallow`,
      are the same in every valuation; `shown` is the union of their atom
      masks, and `shown0` that of their top atoms. A row's set of type_0 over a
      conjunct's atoms is the image, under masking by them, of its set of
      type_0 over `shown`. So a row tuple's keys are a function of `atoms0 &
      shown0` and, per agent, the set of type_0 over `shown` of its row's
      states. A row can be any set of states, so these sets are exactly the
      subsets of the set of type_0 over `shown` present among the n states.
      The profile, `atoms0 & shown0` and that set, thus fixes the key
      tuples the row tuples show, at any size. A trie comes out
      empty only when every row tuple met a decided false verdict after
      decided true ones, with no refusal before it, and all of those
      verdicts are kept. A later valuation with the same profile shows only
      key tuples an earlier row tuple showed, finds the same kept verdicts
      and would build an empty trie again, checking nothing: it is skipped
      (`dead`). This needs every row tuple judged, those that leave s0 no
      other state included (`rows_pass`).

    A verdict kept or settled is the one the candidate's own evaluation
    gives wherever that decides. So where the reference decides, every
    candidate before its answer is rejected here too and its answer is
    accepted. Where it refuses, a returned model has every conjunct true,
    and None means every candidate was rejected.
    """
    states, state_sets, lowest, rows, full, row_bits, spread, _ = _tables(n, len(props))
    # validated once per size, so a bad agent or proposition name is
    # reported here; the candidates, over the same names, are derived from
    # it unchecked
    try:
        base = KripkeModel(states, agents, props, {}, {}, point=states[0])
    except ValueError as e:  # the constructor's own error is not an AaulError
        raise AaulError(str(e)) from None
    plans, verdicts, types, arrowless, dead = shared or (_plans(conjuncts, agents, props), {}, {}, {}, set())
    no_arrows = (0,) * len(agents)

    arrow_sets = {}  # each arrow mask's arrows, built on first use

    def model(arrow_masks) -> KripkeModel:
        """The model of the valuation prop_masks and the arrow masks
        arrow_masks: a candidate, or a probe, whose masks hold no arrow or
        only s0's rows."""
        for mask in arrow_masks:
            if mask not in arrow_sets:
                arrow_sets[mask] = frozenset().union(*[row[mask >> i * n & full] for i, row in enumerate(rows)])
        arrows = dict(zip(agents, map(arrow_sets.__getitem__, arrow_masks)))
        return base._derive(arrows, dict(zip(props, map(state_sets.__getitem__, prop_masks))))

    def probe(c, arrow_masks) -> bool | None:
        return _settled(core_checker(budget), model(arrow_masks), c)

    candidate = []  # the candidate being checked and its evaluator, once built

    def check_candidate(c, arrow_masks) -> bool:
        if not candidate:
            candidate[:] = model(arrow_masks), core_checker(budget)
        m, evaluate = candidate
        return m.point in evaluate(m, c)

    def sets_of(here) -> list:
        """Per n-bit state mask, the set of its states' types, `here`
        holding each state's: an int with bit t for type t."""
        out = [0] * (1 << n)
        for mask in range(1, 1 << n):
            out[mask] = out[mask & (mask - 1)] | 1 << here[lowest[mask]]
        return out

    def table(k: int, read, atoms, arrow_masks, memo) -> list:
        """Per n-bit state mask, the set of its states' type_k, k >= 1,
        over the agents `read` and the atoms `atoms` (`sets_of`) on one
        candidate's arrow masks arrow_masks, with each type_k an int of
        `types`, kept in memo; the valuation's succ[atoms] holds type_0."""
        key = k, read, atoms
        out = memo.get(key)
        if out is None:
            below = succ[atoms] if k == 1 else table(k - 1, read, atoms, arrow_masks, memo)
            t0 = zeros[atoms]
            here = [(t0[s], tuple([below[arrow_masks[j] >> s * n & full] for j in read])) for s in range(n)]
            out = memo[key] = sets_of([types.setdefault(t, len(types)) for t in here])
        return out

    def verdict(entry, arrow_masks, memo, check) -> bool | None:
        """Whether entry's conjunct holds at s0 of model(arrow_masks): the
        verdict kept under its key, or else check(c, arrow_masks), kept if
        it decides (None: it refused). The key is the conjunct's index, its
        top atoms true at s0 and, at a local depth d >= 1, per agent read
        the set of s0's successors' type_{d-1} (`table`), read from s0's
        rows, the low n bits of each arrow mask; a top-level [*]g or <*>g
        has one only on the model with no arrows, and any other conjunct
        with no local depth none (False)."""
        i, c, depth, read, atoms, top = entry
        if depth:
            sets = succ[atoms] if depth == 1 else table(depth - 1, read, atoms, arrow_masks, memo)
            key = i, atoms0 & top, tuple([sets[arrow_masks[j] & full] for j in read])
        else:
            key = (depth == 0 or type(c) in (ArbBox, ArbDiamond) and not any(arrow_masks)) and (i, atoms0 & top)
        holds = verdicts.get(key)
        if holds is None:
            holds = check(c, arrow_masks)
            if key and holds is not None:
                verdicts[key] = holds
        return holds

    reaches_all = {}  # the OR of a candidate's arrow masks -> is every state reachable from s0

    def point_generated(arrow_masks) -> bool:
        union = 0
        for mask in arrow_masks:
            union |= mask
        reached = reaches_all.get(union)
        if reached is None:
            seen, wider = 0, 1
            while wider != seen:
                seen, mask = wider, union & row_bits[wider]
                while mask:  # add the targets of the rows of the states seen
                    wider |= mask & full
                    mask >>= n
            reached = reaches_all[union] = seen == full
        return reached

    def rows_pass(row0: tuple) -> bool:
        """(b): False when a conjunct of `shallow`, those of depth 1,
        reached before any whose probe refuses, is false with s0's rows
        row0, the arrow masks of the model that holds only them. A tuple
        whose rows leave s0 no other state is judged too, though no
        candidate drawn has it: a dead profile needs every subset of the
        types present shown by some row, and at times only the row {s0}
        shows {type_0(s0)}."""
        for entry in shallow:
            holds = verdict(entry, row0, None, probe)
            if not holds:
                return holds is None
        return True

    # (a) drops no conjunct of local depth >= 1, so the type_0 tables and
    # the conjuncts (b) judges are the same in every valuation
    masks = {entry[4] for entry in plans if entry[2]}
    shallow = [entry for entry in plans if entry[2] == 1]
    read1 = {j for entry in shallow for j in entry[3]}
    shown = shown0 = 0
    for entry in shallow:
        shown, shown0 = shown | entry[4], shown0 | entry[5]

    for prop_masks, arrow_tuples in _canonical_candidates(n, len(props), len(agents)):
        # the valuation as one int: state s's atoms from bit s * len(props)
        # on, bit k for props[k]. Read by `verdict` and `table`: the atoms
        # true at s0, and per atom mask of a conjunct of local depth >= 1
        # each state's type_0 over it and the `sets_of` those
        packed = sum([spread[mask] << k for k, mask in enumerate(prop_masks)])
        atoms0 = packed & ((1 << len(props)) - 1)
        # (a): the plans less the conjuncts the model with no arrows decides
        # true for every candidate; one it decides false for every candidate
        # skips the valuation (False). Kept per atoms0, refused probes
        # included ("Profiles")
        kept = arrowless.get(atoms0)
        if kept is None:
            kept = []
            for entry in plans:
                kind = type(entry[1])
                if entry[2] == 0 or kind is ArbBox or kind is ArbDiamond:
                    holds = verdict(entry, no_arrows, None, probe)
                    if holds is False and kind is not ArbDiamond:
                        kept = False
                        break
                    if holds and kind is not ArbBox:
                        continue
                kept.append(entry)
            arrowless[atoms0] = kept
        if kept is False:
            continue
        # a valuation with the profile of one whose trie came out empty is
        # skipped ("Profiles")
        profile = atoms0 & shown0, frozenset([packed >> s * len(props) & shown for s in range(n)])
        if profile in dead:
            continue
        zeros = {atoms: tuple([packed >> s * len(props) & atoms for s in range(n)]) for atoms in masks}
        succ = {atoms: sets_of(t0) for atoms, t0 in zeros.items()}
        # (b): the trie of the row tuples that pass; a fate reads only the
        # rows of the agents that conjuncts of depth 1 read
        trie = _row_trie(0, [0] * len(agents), read1, n, rows_pass)
        if trie is False:
            dead.add(profile)
            continue
        for arrow_masks in arrow_tuples(trie):
            if not point_generated(arrow_masks):
                continue
            memo = {}
            candidate.clear()
            if all(verdict(entry, arrow_masks, memo, check_candidate) for entry in kept):
                return model(arrow_masks)
    return None
