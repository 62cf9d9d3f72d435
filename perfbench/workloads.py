"""The benchmark's workloads: seeded inputs, one query at a time, and the
references each verdict is checked against.

A workload is built from its seed without touching the package
(`__init__`), then does the program-side set-up (`prepare`). A query is
one verdict request; `run` returns its outcome, `REFUSED` when the
checker's budget refused it, and a `Failure` when the program reported an
error. `check` compares outcomes with references
that are not the checker under test, outside the timed phase, and maps
the index of each query it finds wrong to a message.
"""

from __future__ import annotations

import io
import json
import random
from pathlib import Path

import gen
import reference

PINNED = Path(__file__).resolve().parent / "pinned"
REFUSED = "refused"


class Failure(str):
    """Outcome of a query that raised, or whose command line call exited
    with an error; its text is the error. It fails the run."""


def _pinned(name: str) -> dict:
    return json.loads((PINNED / name).read_text())


class Torus:
    """Tiling conjuncts on the witness tori, checked at the origin."""

    NAME = "torus"
    # every conjunct on the 1x1 torus; on the 2x2 torus (15 arrow blocks)
    # two single-quantifier conjuncts, as `commute` and `return_*` are out
    # of reach there
    ALT_CONJUNCTS = ("psi1", "psi4_u")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        names = gen.fresh_names(rng, 7)
        rng.shuffle(names)
        tile, color, a, b, g, bl, w = names
        self.tile_texts = {
            "self1x1": (f"tile {tile} N={color} E={color} S={color} W={color}\n", 1),
            "alt2x2": (f"tile {a} N={g} E={bl} S={g} W={w}\ntile {b} N={g} E={w} S={g} W={bl}\n", 2),
        }
        self.pinned = _pinned("torus.json")
        self.queries = [("self1x1", name) for name in self.pinned["self1x1"]]
        self.queries += [("alt2x2", name) for name in self.ALT_CONJUNCTS]
        rng.shuffle(self.queries)

    def prepare(self):
        from aaul import checker, syntax, tiling

        self.checker = checker
        self.models, self.formulas = {}, {}
        for key, (text, period) in self.tile_texts.items():
            inst = tiling.parse_tiles(text)
            self.models[key] = tiling.build_torus_model(inst, tiling.find_periodic_tiling(inst, period))
            named = tiling.encode_parts(inst).named()
            wanted = [n for k, n in self.queries if k == key]
            self.formulas[key] = {n: syntax.parse_formula(syntax.print_formula(named[n])) for n in wanted}

    def run(self, query):
        key, name = query
        m = self.models[key]
        return self.checker.satisfies(m, m.point, self.formulas[key][name])

    def check(self, outcomes: list) -> dict[int, str]:
        return {
            i: f"{key} {name}: got {out}, pinned {self.pinned[key][name]}"
            for i, ((key, name), out) in enumerate(zip(self.queries, outcomes))
            if not isinstance(out, Failure) and out != self.pinned[key][name]
        }


class RandomModels:
    """Small random models, each with one random formula, as text."""

    NAME = "random"
    MAX_BLOCKS = 10
    # the reference tries 2^B unions per quantifier; past this B it is too
    # slow to run on every verdict, and such verdicts stay unchecked
    REFERENCE_MAX_BLOCKS = 12
    DEFAULT_SEED = 0

    # Queries per arrow-block count B of the model (None: more than
    # MAX_BLOCKS), in the proportions an unfiltered stream has. Time per
    # query grows as 2^B, so fixing the mix keeps a pass's work alike
    # across seeds. What still differs between seeds is how soon each
    # enumeration can stop: the host-corrected pass time differed 10%
    # between the quartiles of five seeds with 4000 queries, 3.6% over ten
    # seeds with 8000.
    QUOTAS = {0: 1160, 1: 1430, 2: 900, 3: 760, 4: 630, 5: 580, 6: 520, 7: 430, 8: 370, 9: 370, 10: 290, None: 560}
    COUNT = sum(QUOTAS.values())

    def __init__(self, seed: int):
        self.seed = seed
        left = dict(self.QUOTAS)
        self.items = []
        for m, f in gen.random_stream(seed):
            blocks = reference.arrow_block_count(m)
            key = blocks if blocks <= self.MAX_BLOCKS else None
            if left[key]:
                left[key] -= 1
                self.items.append((m, f))
                if len(self.items) == self.COUNT:
                    break
        self.queries = [(m.text(), gen.to_text(f)) for m, f in self.items]

    def prepare(self):
        from aaul import checker, errors, kripke, syntax

        self.checker, self.kripke, self.syntax = checker, kripke, syntax
        self.refusal = errors.BudgetExceededError
        self.budget = checker.Budget(max_arrow_blocks=self.MAX_BLOCKS)

    def run(self, query):
        model_text, formula_text = query
        m = self.kripke.load_model(model_text)
        f = self.syntax.parse_formula(formula_text)
        try:
            return self.checker.satisfies(m, m.point, f, self.budget)
        except self.refusal:
            return REFUSED

    def check(self, outcomes: list) -> dict[int, str]:
        wrong = {}
        if self.seed == self.DEFAULT_SEED:
            pinned = _pinned("random_seed0.json")["verdicts"]
            code = {True: "T", False: "F"}
            for i, out in enumerate(outcomes):
                if pinned[i] != "R" and code.get(out, pinned[i]) != pinned[i]:
                    wrong[i] = f"got {out}, pinned {pinned[i]}"
        self.unchecked = 0
        for i, ((m, f), out) in enumerate(zip(self.items, outcomes)):
            if out == REFUSED or isinstance(out, Failure):
                continue
            if gen.has_quantifier(f) and reference.arrow_block_count(m) > self.REFERENCE_MAX_BLOCKS:
                self.unchecked += 1
                continue
            expected = reference.holds(m, m.point, f)
            if out != expected:
                wrong.setdefault(i, f"{self.queries[i]!r}: got {out}, reference {expected}")
        return wrong


class SatSearch:
    """Exhaustive `aaul sat-search` calls through the command line layer."""

    NAME = "sat-search"
    MAX_STATES = 3

    def __init__(self, seed: int):
        rng = random.Random(seed)
        names = gen.fresh_names(rng, 3)
        agent = names.pop(rng.randrange(3))
        # renaming keeps p before q, so the search order, and with it the
        # work, is the same for every seed
        mapping = {"a": agent, "p": names[0], "q": names[1]}
        self.pinned = _pinned("sat_search.json")
        self.formulas = {name: gen.rename(f, mapping) for name, f in gen.SAT_TEMPLATES.items()}
        self.queries = [(name, gen.to_text(f)) for name, f in self.formulas.items()]
        rng.shuffle(self.queries)

    def prepare(self):
        from aaul import cli

        self.cli = cli

    def run(self, query):
        argv = ["sat-search", query[1], "--max-states", str(self.MAX_STATES)]
        out, err = io.StringIO(), io.StringIO()
        code = self.cli.run(argv, stdout=out, stderr=err)
        if code == 2:
            # every template is pinned as found (0) or refuted (1) under the
            # default budget, so an error exit, a budget refusal included,
            # is a fault
            return Failure(f"exit 2: {err.getvalue().strip()}")
        return code, out.getvalue()

    def check(self, outcomes: list) -> dict[int, str]:
        wrong = {}
        for i, ((name, text), out) in enumerate(zip(self.queries, outcomes)):
            if isinstance(out, Failure):
                continue
            code, printed = out
            expected = self.pinned[name]
            if code != expected["exit"]:
                wrong[i] = f"{name} {text!r}: exit {code}, pinned {expected['exit']}"
            elif code == 0:
                m = reference.parse_model_text(printed)
                if len(m.states) != expected["states"] or not reference.holds(m, m.point, self.formulas[name]):
                    wrong[i] = f"{name} {text!r}: printed model fails the reference:\n{printed}"
        return wrong


WORKLOADS = {w.NAME: w for w in (Torus, RandomModels, SatSearch)}


def decided(outcome) -> bool:
    return outcome != REFUSED and not isinstance(outcome, Failure)
