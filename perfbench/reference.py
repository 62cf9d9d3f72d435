"""Reference semantics the benchmark checks verdicts against.

A deliberately naive evaluator over the formula tuples of gen.py: it
recurses state by state, memoizes nothing, applies updates by judging each
arrow's clauses in the model before the update, and decides [*]/<*> by
trying every union of arrow blocks, where the blocks come from a greatest
fixpoint bisimulation computed here. It shares no code with the package, so
a fault in the checker cannot also hide in its reference.
"""

from __future__ import annotations

import itertools

from gen import ModelSpec


def parse_model_text(text: str) -> ModelSpec:
    """Read the model text format (states/agent/val/point lines); the point
    must be the first state, as the package's sat-search prints it."""
    states: tuple[str, ...] = ()
    agents, props = [], []
    arrows, valuation = {}, {}
    point = None
    for line in text.splitlines():
        head, _, rest = line.partition(":")
        words, body = head.split(), rest.split()
        if words == ["states"]:
            states = tuple(body)
        elif words[:1] == ["agent"]:
            agents.append(words[1])
            arrows[words[1]] = frozenset(tuple(tok.split("->")) for tok in body)
        elif words[:1] == ["val"]:
            props.append(words[1])
            valuation[words[1]] = frozenset(body)
        elif words == ["point"]:
            point = body[0]
    if not states or point != states[0]:
        raise ValueError("model text needs a states line and its first state as point")
    return ModelSpec(states, tuple(agents), tuple(props), arrows, valuation)


def _with_arrows(m: ModelSpec, arrows: dict) -> ModelSpec:
    return ModelSpec(m.states, m.agents, m.props, arrows, m.valuation)


def bisimulation_classes(m: ModelSpec) -> dict:
    """state -> class id, from the greatest bisimulation (pairs are removed
    until forth and back hold for every agent)."""
    succ = {(a, s): {t for (x, t) in m.arrows[a] if x == s} for a in m.agents for s in m.states}
    rel = {
        (s, t)
        for s in m.states
        for t in m.states
        if all((s in m.valuation[p]) == (t in m.valuation[p]) for p in m.props)
    }
    changed = True
    while changed:
        changed = False
        for s, t in list(rel):
            if s == t:  # the identity is always a bisimulation
                continue
            ok = all(
                all(any((x, y) in rel for y in succ[(a, t)]) for x in succ[(a, s)])
                and all(any((x, y) in rel for x in succ[(a, s)]) for y in succ[(a, t)])
                for a in m.agents
            )
            if not ok:
                rel.discard((s, t))
                changed = True
    classes: dict = {}
    for s in m.states:
        rep = next((t for t in classes if (s, t) in rel), None)
        classes[s] = classes[rep] if rep is not None else len(set(classes.values()))
    return classes


def arrow_block_count(m: ModelSpec) -> int:
    cls = bisimulation_classes(m)
    return len({(a, cls[s], cls[t]) for a in m.agents for s, t in m.arrows[a]})


def _unions(m: ModelSpec):
    cls = bisimulation_classes(m)
    blocks: dict = {}
    for a in m.agents:
        for s, t in m.arrows[a]:
            blocks.setdefault((a, cls[s], cls[t]), set()).add((s, t))
    keys = list(blocks)
    for chosen in itertools.product((False, True), repeat=len(keys)):
        arrows = {a: set() for a in m.agents}
        for key, keep in zip(keys, chosen):
            if keep:
                arrows[key[0]] |= blocks[key]
        yield _with_arrows(m, {a: frozenset(v) for a, v in arrows.items()})


def _apply(m: ModelSpec, clauses) -> ModelSpec:
    arrows = {
        a: frozenset(
            (s, t)
            for s, t in m.arrows[a]
            if any(ca == a and holds(m, s, pre) and holds(m, t, post) for pre, ca, post in clauses)
        )
        for a in m.agents
    }
    return _with_arrows(m, arrows)


def holds(m: ModelSpec, w: str, f) -> bool:
    kind = f[0]
    if kind == "atom":
        return w in m.valuation.get(f[1], ())
    if kind == "top":
        return True
    if kind == "bot":
        return False
    if kind == "not":
        return not holds(m, w, f[1])
    if kind == "and":
        return holds(m, w, f[1]) and holds(m, w, f[2])
    if kind == "or":
        return holds(m, w, f[1]) or holds(m, w, f[2])
    if kind == "imp":
        return (not holds(m, w, f[1])) or holds(m, w, f[2])
    if kind in ("box", "dia"):
        succ = (t for s, t in m.arrows.get(f[1], ()) if s == w)
        test = all if kind == "box" else any
        return test(holds(m, t, f[2]) for t in succ)
    if kind in ("ubox", "udia"):
        # an update is deterministic, so [U] and <U> coincide
        return holds(_apply(m, f[1]), w, f[2])
    if kind in ("arbbox", "arbdia"):
        test = all if kind == "arbbox" else any
        return test(holds(sub, w, f[1]) for sub in _unions(m))
    raise ValueError(f"unknown formula tuple {f!r}")
