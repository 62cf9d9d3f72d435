"""Acceptance suite.

Each test covers one numbered acceptance criterion and prints a PASS/FAIL
line with its runtime straight to the terminal (bypassing capture), so a
full run always shows one line per criterion.
"""

import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import aaul
from aaul import (
    ArbBox,
    ArbDiamond,
    Budget,
    BudgetExceededError,
    Not,
    PeriodicTiling,
    Update,
    UpdateBox,
    arrow_blocks,
    brute_force_arb_oracle,
    build_torus_model,
    check_static_conjuncts,
    coarsest_partition,
    encode_parts,
    find_periodic_tiling,
    flatten_conj,
    load_model,
    parse_formula,
    parse_tiles,
    print_formula,
    satisfies,
    update_model,
)
from aaul.cli import run as cli_run
from aaul.tiling import COMMUTE_PAIRS, refl
from helpers import (
    naive_apply,
    naive_bisim,
    random_formula,
    random_model,
    random_update,
    shallow_quantifier_free,
    single_quantifier_formula,
)

ALTERNATING = "tile A N=g E=b S=g W=w\ntile B N=g E=w S=g W=b\n"
SELF_TILING = "tile T N=c E=c S=c W=c\n"


@contextmanager
def report(capsys, label):
    t0 = time.monotonic()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.monotonic() - t0
        with capsys.disabled():
            print(f"criterion {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")


def test_criterion_1_checker_agrees_with_oracle(capsys):
    """Exact boolean agreement between the truth-set checker and the
    per-state reparse-everything oracle, on random models (up to 4 states,
    2 agents, 2 propositions) and random formulas containing exactly one
    quantified modality under at most one step of modal context. Pairs
    where either route exceeds the shared budget are skipped; at least 200
    pairs must complete, and the whole run must stay under 5 minutes."""
    with report(capsys, "1 (checker vs oracle)"):
        t0 = time.monotonic()
        rng = random.Random(11)
        budget = Budget(max_arrow_blocks=10)
        completed = refused = 0
        tries = 0
        while completed < 200:
            tries += 1
            assert tries <= 1200, "too many refusals to reach 200 completed pairs"
            m = random_model(rng, max_states=4)
            f = single_quantifier_formula(rng)
            s = rng.choice(m.states)
            try:
                got = satisfies(m, s, f, budget)
            except BudgetExceededError:
                refused += 1
                continue
            try:
                want = brute_force_arb_oracle(m, s, f, budget)
            except BudgetExceededError:
                refused += 1
                continue
            assert got == want, (
                f"disagreement at state {s} on {print_formula(f)}\n{m.fingerprint}"
            )
            completed += 1
        elapsed = time.monotonic() - t0
        assert completed >= 200
        assert elapsed < 300, f"took {elapsed:.1f}s, limit is 300s"


def test_criterion_2_loop_probe_characterization(capsys):
    """satisfies(m, s, refl_a) must equal: s has at least one a-successor
    and every a-successor is bisimilar to s (bisimilarity judged by the
    naive fixpoint, not by the production partition). Checked at every
    state of at least 100 random models with up to 5 states, under 2
    minutes."""
    with report(capsys, "2 (loop probe formula)"):
        t0 = time.monotonic()
        rng = random.Random(7)
        budget = Budget(max_arrow_blocks=12)
        f = refl("a")
        models = tries = 0
        while models < 100:
            tries += 1
            assert tries <= 600
            m = random_model(rng, max_states=5, density=0.25)
            rel = naive_bisim(m)
            try:
                verdicts = {s: satisfies(m, s, f, budget) for s in m.states}
            except BudgetExceededError:
                continue
            for s in m.states:
                succ = m.successors("a", s)
                expected = bool(succ) and all((s, t) in rel for t in succ)
                assert verdicts[s] == expected, f"state {s} of {m.fingerprint}"
            models += 1
        elapsed = time.monotonic() - t0
        assert elapsed < 120, f"took {elapsed:.1f}s, limit is 120s"


def test_criterion_3_bisimulation_invariance(capsys):
    """Bisimilar states satisfy the same formulas: for 20 bisimilar pairs
    (found by the naive fixpoint on random single-proposition models), 50
    random formulas each, the checker's verdicts at the two states match."""
    with report(capsys, "3 (bisimulation invariance)"):
        rng = random.Random(19)
        budget = Budget(max_arrow_blocks=12)
        pairs_done = 0
        guard = 0
        while pairs_done < 20:
            guard += 1
            assert guard <= 400
            m = random_model(rng, max_states=4, props=("p",), density=0.3)
            rel = naive_bisim(m)
            candidates = [
                (s, t)
                for i, s in enumerate(m.states)
                for t in m.states[i + 1:]
                if (s, t) in rel
            ]
            if not candidates:
                continue
            s, t = candidates[0]
            evaluated = 0
            for _ in range(50):
                f = random_formula(rng, 2, props=("p",))
                try:
                    at_s = satisfies(m, s, f, budget)
                    at_t = satisfies(m, t, f, budget)
                except BudgetExceededError:
                    continue
                assert at_s == at_t, (
                    f"{print_formula(f)} splits bisimilar {s},{t} in {m.fingerprint}"
                )
                evaluated += 1
            assert evaluated >= 40
            pairs_done += 1


def test_criterion_4_duality_and_instances(capsys):
    """<*>f is exactly ~[*]~f (checked through the oracle's native
    existential handling against the checker), and whenever [*]f holds,
    [U]f holds for 20 random quantifier-free updates U."""
    with report(capsys, "4 (duality and instances)"):
        rng = random.Random(29)
        budget = Budget(max_arrow_blocks=10)
        dual_checked = 0
        positives = 0
        guard = 0
        while (dual_checked < 100 or positives < 25) and guard < 2000:
            guard += 1
            m = random_model(rng, max_states=3)
            body = shallow_quantifier_free(rng)
            s = rng.choice(m.states)
            try:
                native = brute_force_arb_oracle(m, s, ArbDiamond(body), budget)
                via_negation = brute_force_arb_oracle(m, s, Not(ArbBox(Not(body))), budget)
                checker = satisfies(m, s, ArbDiamond(body), budget)
            except BudgetExceededError:
                continue
            assert native == via_negation == checker
            dual_checked += 1
            try:
                boxed = satisfies(m, s, ArbBox(body), budget)
            except BudgetExceededError:
                continue
            if boxed:
                positives += 1
                for _ in range(20):
                    u = random_update(rng, 1)
                    assert satisfies(m, s, UpdateBox(u, body), budget), (
                        f"[*] held but instance failed: {print_formula(UpdateBox(u, body))}"
                    )
        assert dual_checked >= 100 and positives >= 25


def test_criterion_5_update_laws(capsys):
    """Over 500 random (model, update) pairs: applying only removes arrows,
    never touches states/valuation/point, is invariant under clause order
    and duplication, and matches an independent longhand filter that judges
    clause formulas on the original model. Plus the fixed chain example
    where judging on the result would give a different answer."""
    with report(capsys, "5 (update application laws)"):
        rng = random.Random(37)
        for _ in range(500):
            m = random_model(rng)
            u = random_update(rng, rng.randint(0, 2))
            result = update_model(m, u)
            assert result.states == m.states
            assert result.valuation == m.valuation
            assert result.point == m.point
            for a in m.agents:
                assert result.arrow_set(a) <= m.arrow_set(a)
            shuffled = list(u.clauses)
            rng.shuffle(shuffled)
            assert update_model(m, Update(tuple(shuffled))) == result
            assert update_model(m, Update(u.clauses + u.clauses[:1])) == result
            assert naive_apply(m, u) == result

        chain = load_model("states: s t u\nagent a: s->t t->u\n")
        u = parse_formula("[{(true,a,<a>true)}]false").update
        after = update_model(chain, u)
        assert after.arrow_set("a") == frozenset({("s", "t")})


def test_criterion_6_partition_matches_fixpoint(capsys):
    """The refinement partition induces exactly the naive greatest-fixpoint
    bisimilarity on at least 200 random models with up to 6 states, under
    a minute."""
    with report(capsys, "6 (partition vs fixpoint)"):
        t0 = time.monotonic()
        rng = random.Random(31)
        for _ in range(200):
            m = random_model(rng, max_states=6, density=0.3)
            part = coarsest_partition(m)
            rel = naive_bisim(m)
            for s in m.states:
                for t in m.states:
                    same = part.block_of(s) == part.block_of(t)
                    assert same == ((s, t) in rel), f"{s},{t} in {m.fingerprint}"
        elapsed = time.monotonic() - t0
        assert elapsed < 60, f"took {elapsed:.1f}s, limit is 60s"


def test_criterion_7_tiling_pipeline(capsys, tmp_path):
    """End to end under a minute: (a) the alternating instance has no
    period-1 tiling but a period-2 one, revalidated cell by cell here;
    (b) the torus models have the advertised shape; (c) the four grid
    conjuncts hold at the origin of the witness; (d) swapping one cell
    breaks exactly tile_match; (e) the same flow works through the CLI."""
    with report(capsys, "7 (tiling pipeline)"):
        t0 = time.monotonic()
        inst = parse_tiles(ALTERNATING)

        assert find_periodic_tiling(inst, 1) is None
        tiling = find_periodic_tiling(inst, 2)
        assert tiling is not None
        k = tiling.period
        for n in range(k):
            for m_ in range(k):
                here = tiling.grid[(n, m_)]
                assert here.north == tiling.grid[(n, (m_ + 1) % k)].south
                assert here.east == tiling.grid[((n + 1) % k, m_)].west

        torus1 = build_torus_model(
            parse_tiles(SELF_TILING), find_periodic_tiling(parse_tiles(SELF_TILING), 1)
        )
        assert len(torus1.states) == 2 and len(torus1.arrow_set("b")) == 2
        torus2 = build_torus_model(inst, tiling)
        assert len(torus2.states) == 5 and len(torus2.arrow_set("b")) == 8
        for x in ("u", "d", "l", "r"):
            assert len(torus2.arrow_set(x)) == 4

        assert check_static_conjuncts(torus2, inst) == {
            "one_tile": True, "one_color": True, "tile_colors": True, "tile_match": True,
        }

        a, b = inst.types
        broken_grid = dict(tiling.grid)
        broken_grid[(0, 0)] = b if broken_grid[(0, 0)] is a else a
        broken = build_torus_model(inst, PeriodicTiling(2, broken_grid))
        verdicts = check_static_conjuncts(broken, inst)
        assert verdicts == {
            "one_tile": True, "one_color": True, "tile_colors": True, "tile_match": False,
        }

        tiles_path = tmp_path / "tiles.txt"
        tiles_path.write_text(ALTERNATING)
        model_path = tmp_path / "torus.txt"
        assert cli_run(["tile-search", str(tiles_path), "--max-period", "2"]) == 0
        assert cli_run([
            "witness-model", str(tiles_path), "--period", "2", "-o", str(model_path),
        ]) == 0
        assert load_model(model_path.read_text()) == torus2
        import io

        out = io.StringIO()
        assert cli_run(
            ["encode-tiling", str(tiles_path), "--conjunct", "tile_match"], stdout=out
        ) == 0
        assert cli_run(["check", str(model_path), out.getvalue().strip()]) == 0

        elapsed = time.monotonic() - t0
        assert elapsed < 60, f"took {elapsed:.1f}s, limit is 60s"


def test_criterion_8_encoder_fidelity(capsys, tmp_path):
    """The encoding is a conjunction of exactly 24 toplevel parts in fixed
    order, the commutation conjunct covers the 8 ordered direction pairs,
    printing and reparsing is the identity on every part, and the printed
    bytes are identical across processes with different hash seeds."""
    with report(capsys, "8 (encoder fidelity)"):
        inst = parse_tiles(ALTERNATING)
        parts = encode_parts(inst)
        assert len(parts.conjuncts) == 24
        assert flatten_conj(parts.formula) == parts.conjuncts

        commute_imps = flatten_conj(parts.named()["commute"].body.body)
        assert len(commute_imps) == 8
        assert [(i.left.agent, i.left.body.agent) for i in commute_imps] == list(COMMUTE_PAIRS)

        assert parse_formula(print_formula(parts.formula)) == parts.formula
        for name, f in parts.named().items():
            assert parse_formula(print_formula(f)) == f, name

        tiles_path = tmp_path / "tiles.txt"
        tiles_path.write_text(ALTERNATING)
        # the child processes import the package from where this one did
        src = os.path.dirname(os.path.dirname(aaul.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        outputs = []
        for seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            for argv in (
                ["encode-tiling", str(tiles_path)],
                ["witness-model", str(tiles_path), "--period", "2", "--cell-props"],
            ):
                proc = subprocess.run(
                    [sys.executable, "-m", "aaul.cli", *argv],
                    capture_output=True, text=True, env=env, check=True,
                )
                outputs.append((argv[0], proc.stdout))
        by_command = {}
        for command, text in outputs:
            by_command.setdefault(command, set()).add(text)
        assert all(len(texts) == 1 for texts in by_command.values()), "output varies with hash seed"


def test_criterion_9_encoding_on_cell_props_torus(capsys):
    """The paper's reduction checked whole on a witness model: the 2x2
    torus of the alternating tiling with a proposition per cell has 29
    arrow blocks, over the default cap of 20, so each quantified conjunct
    that goes past its empty union is decided symbolically, with one BDD
    variable per block. encode(ALT) holds at the origin under the default
    budget."""
    with report(capsys, "9 (whole encoding on the cell-props torus)"):
        inst = parse_tiles(ALTERNATING)
        m = build_torus_model(inst, find_periodic_tiling(inst, 2), cell_props=True)
        assert len(arrow_blocks(m, coarsest_partition(m))) == 29
        assert satisfies(m, "s0", encode_parts(inst).formula)
