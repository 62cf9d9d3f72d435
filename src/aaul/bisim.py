"""Bisimulation machinery: partition refinement, arrow blocks, characteristic formulas.

The coarsest bisimulation partition is computed by refinement: start from
groups with identical valuations over the declared propositions, then
repeatedly split by the set of successor blocks per agent until stable.
Blocks are ordered by the declared position of their first state, so all
derived orderings are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import UnknownStateError
from .kripke import KripkeModel
from .syntax import Atom, Box, Diamond, Formula, Not, conj, disj


@dataclass(frozen=True)
class Partition:
    """Blocks of mutually bisimilar states. `rounds` counts the splits performed."""

    blocks: tuple[frozenset[str], ...]
    block_index: Mapping[str, int]
    rounds: int

    def block_of(self, state: str) -> int:
        try:
            return self.block_index[state]
        except KeyError:
            raise UnknownStateError(f"unknown state {state!r}") from None


@dataclass(frozen=True)
class ArrowBlock:
    """All arrows of one agent from one partition block into another."""

    agent: str
    source_block: int
    target_block: int
    arrows: frozenset[tuple[str, str]]


def coarsest_partition(m: KripkeModel) -> Partition:
    succ = {a: {s: set() for s in m.states} for a in m.agents}
    for a in m.agents:
        for s, t in m.arrows[a]:
            succ[a][s].add(t)

    groups: dict = {}
    for s in m.states:
        key = tuple(s in m.valuation[p] for p in m.props)
        groups.setdefault(key, []).append(s)
    blocks = list(groups.values())
    block_of = {s: i for i, b in enumerate(blocks) for s in b}

    rounds = 0
    while True:
        groups = {}
        for s in m.states:
            key = (
                block_of[s],
                tuple(frozenset(block_of[t] for t in succ[a][s]) for a in m.agents),
            )
            groups.setdefault(key, []).append(s)
        if len(groups) == len(blocks):
            break
        blocks = list(groups.values())
        block_of = {s: i for i, b in enumerate(blocks) for s in b}
        rounds += 1

    return Partition(tuple(frozenset(b) for b in blocks), dict(block_of), rounds)


def arrow_blocks(m: KripkeModel, part: Partition) -> tuple[ArrowBlock, ...]:
    """Arrows grouped by (agent, source block, target block).

    Ordered by declared agent position, then source block, then target block.
    Every arrow of the model lands in exactly one block.
    """
    out = []
    for a in m.agents:
        grouped: dict[tuple[int, int], set] = {}
        for s, t in m.arrows[a]:
            grouped.setdefault((part.block_of(s), part.block_of(t)), set()).add((s, t))
        for (sb, tb) in sorted(grouped):
            out.append(ArrowBlock(a, sb, tb, frozenset(grouped[(sb, tb)])))
    return tuple(out)


def characteristic_formulas(m: KripkeModel, part: Partition) -> tuple[Formula, ...]:
    """One quantifier-free modal formula per block, true exactly on that block.

    `part` must be the coarsest partition of `m`. The formulas describe the
    valuation and, up to nesting depth part.rounds, the available successor
    blocks per agent; that depth is exactly what the refinement needed, so
    each formula's truth set is its block.
    """
    base = []
    for block in part.blocks:
        rep = min(block, key=m.state_index)
        lits = [
            Atom(p) if rep in m.valuation[p] else Not(Atom(p))
            for p in m.props
        ]
        base.append(conj(lits))

    succ_blocks = []
    for i, block in enumerate(part.blocks):
        per_agent = []
        for a in m.agents:
            targets = {part.block_of(t) for s, t in m.arrows[a] if s in block}
            per_agent.append(tuple(sorted(targets)))
        succ_blocks.append(per_agent)

    current = list(base)
    for _ in range(part.rounds):
        deeper = []
        for i in range(len(part.blocks)):
            parts = [base[i]]
            for ai, a in enumerate(m.agents):
                targets = succ_blocks[i][ai]
                parts.extend(Diamond(a, current[j]) for j in targets)
                parts.append(Box(a, disj([current[j] for j in targets])))
            deeper.append(conj(parts))
        current = deeper
    return tuple(current)
