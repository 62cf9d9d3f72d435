"""Recompute the pinned verdict tables in perfbench/pinned/.

    python3 perfbench/pin.py torus|random|sat-search

Not part of a benchmark run. The tables come from references other than
the checker under test:

- torus: the checker's verdict on every conjunct, cross-checked with the
  package's brute_force_arb_oracle wherever it finishes within
  ORACLE_SECONDS; the table records which conjuncts the oracle confirmed.
- random: brute_force_arb_oracle on every query of the default seed, under
  the workload's block cap, cross-checked with reference.py.
- sat-search: each template's exit code and model size, confirmed by
  reference.py over every candidate model up to the search's size bound.
"""

from __future__ import annotations

import itertools
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

ORACLE_SECONDS = 120


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def _write(name: str, table: dict):
    (workloads.PINNED / name).write_text(json.dumps(table, indent=1) + "\n")


def pin_torus():
    from aaul import brute_force_arb_oracle, satisfies, tiling

    signal.signal(signal.SIGALRM, _on_alarm)
    table = {"oracle_confirmed": [], "oracle_timed_out": []}
    wanted = {"self1x1": None, "alt2x2": workloads.Torus.ALT_CONJUNCTS}
    for key, text, period in (
        ("self1x1", "tile T N=c E=c S=c W=c\n", 1),
        ("alt2x2", "tile A N=g E=b S=g W=w\ntile B N=g E=w S=g W=b\n", 2),
    ):
        inst = tiling.parse_tiles(text)
        m = tiling.build_torus_model(inst, tiling.find_periodic_tiling(inst, period))
        named = tiling.encode_parts(inst).named()
        names = wanted[key] or [n for n in named if n != "refl_a"]
        table[key] = {}
        for name in names:
            verdict = satisfies(m, m.point, named[name])
            table[key][name] = verdict
            signal.alarm(ORACLE_SECONDS)
            try:
                oracle = brute_force_arb_oracle(m, m.point, named[name])
            except _Timeout:
                table["oracle_timed_out"].append(f"{key}/{name}")
                print(key, name, verdict, "oracle timed out", flush=True)
                continue
            finally:
                signal.alarm(0)
            if oracle != verdict:
                raise SystemExit(f"{key}/{name}: checker {verdict}, oracle {oracle}")
            table["oracle_confirmed"].append(f"{key}/{name}")
            print(key, name, verdict, "oracle agrees", flush=True)
    _write("torus.json", table)


def pin_random():
    from aaul import Budget, BudgetExceededError, brute_force_arb_oracle, load_model, parse_formula

    w = workloads.RandomModels(workloads.RandomModels.DEFAULT_SEED)
    budget = Budget(max_arrow_blocks=workloads.RandomModels.MAX_BLOCKS)
    codes = []
    for i, ((spec, f), (model_text, formula_text)) in enumerate(zip(w.items, w.queries)):
        m = load_model(model_text)
        try:
            verdict = brute_force_arb_oracle(m, m.point, parse_formula(formula_text), budget)
        except BudgetExceededError:
            codes.append("R")
            continue
        if verdict != reference.holds(spec, spec.point, f):
            raise SystemExit(f"query {i}: oracle and reference disagree on {formula_text!r}\n{model_text}")
        codes.append("T" if verdict else "F")
        if i % 500 == 0:
            print(i, flush=True)
    _write("random_seed0.json", {
        "seed": workloads.RandomModels.DEFAULT_SEED,
        "source": "brute_force_arb_oracle, Budget(max_arrow_blocks=10); R where it refused",
        "verdicts": "".join(codes),
    })


def _all_models(n: int):
    states = tuple(f"s{i}" for i in range(n))
    pairs = [(s, t) for s in states for t in states]
    subsets = [frozenset(s for s, keep in zip(states, bits) if keep) for bits in itertools.product((0, 1), repeat=n)]
    for p, q in itertools.product(subsets, repeat=2):
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            arrows = frozenset(pair for pair, keep in zip(pairs, bits) if keep)
            yield gen.ModelSpec(states, ("a",), ("p", "q"), {"a": arrows}, {"p": p, "q": q})


def pin_sat_search():
    import io

    from aaul import cli

    table = {}
    for name, f in gen.SAT_TEMPLATES.items():
        out = io.StringIO()
        code = cli.run(["sat-search", gen.to_text(f), "--max-states", str(workloads.SatSearch.MAX_STATES)], stdout=out)
        smallest = None
        for n in range(1, workloads.SatSearch.MAX_STATES + 1):
            if any(reference.holds(m, m.point, f) for m in _all_models(n)):
                smallest = n
                break
        expected = {"exit": 1, "states": None} if smallest is None else {"exit": 0, "states": smallest}
        got = {"exit": code, "states": len(reference.parse_model_text(out.getvalue()).states) if code == 0 else None}
        if got != expected:
            raise SystemExit(f"{name}: sat-search gave {got}, reference {expected}")
        table[name] = expected
        print(name, expected, flush=True)
    _write("sat_search.json", table)


if __name__ == "__main__":
    {"torus": pin_torus, "random": pin_random, "sat-search": pin_sat_search}[sys.argv[1]]()
