"""Applying arrow updates to models.

An update is a set of clauses (pre, agent, post). Applying it keeps an
agent's arrow (s, t) exactly when some clause for that agent has its pre
formula true at s and its post formula true at t, both judged in the model
being updated, never in the partially built result. States, valuation and
point are untouched.

Truth of clause formulas is delegated to an evaluator callback so this
module stays independent of the checker (and so tests can plug in a naive
evaluator).
"""

from __future__ import annotations

from typing import Callable

from .kripke import KripkeModel
from .syntax import Clause, Formula, Update

Evaluator = Callable[[KripkeModel, str, Formula], bool]


def arrow_matches(m: KripkeModel, arrow: tuple[str, str], clause: Clause, eval_fn: Evaluator) -> bool:
    """Does this clause admit the arrow? Caller is responsible for the agent check."""
    source, target = arrow
    return eval_fn(m, source, clause.pre) and eval_fn(m, target, clause.post)


def apply_update(m: KripkeModel, update: Update, eval_fn: Evaluator) -> KripkeModel:
    """The updated model, built unchecked, as its arrows are a subset of m's.
    Clauses for agents the model does not declare admit nothing."""
    new_arrows = {}
    for agent in m.agents:
        clauses = [c for c in update.clauses if c.agent == agent]
        pairs = sorted(m.arrows[agent], key=lambda st: (m.state_index(st[0]), m.state_index(st[1])))
        new_arrows[agent] = frozenset(st for st in pairs if any(arrow_matches(m, st, c, eval_fn) for c in clauses))
    return m._derive(new_arrows)
