"""Self-test of the tracer: exact counts on tiny models.

    python3 perfbench/selftest.py

Exits 0 and prints {"selftest": "passed"} when every check holds.
"""

from __future__ import annotations

import io
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# s0 (p) -a-> s1 -a-> s1: two bisimulation classes, two arrow blocks
TWO_BLOCKS = "states: s0 s1\nagent a: s0->s1 s1->s1\nval p: s0\npoint: s0\n"


def traced(call) -> tracing.Summary:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    return tracer.summary()


def check(condition: bool, what: str):
    if not condition:
        raise SystemExit(f"tracer self-test failed: {what}")


def main() -> int:
    # First, before anything else imports the package: installing must not
    # leave wrappers behind in modules that the install itself imports.
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    check(tracing.wrapped_sites() == [], "install and uninstall left wrappers behind")

    from aaul import checker, cli, kripke, syntax

    # the untraced path: nothing is wrapped during set-up
    workload = workloads.SatSearch(0)
    workload.prepare()
    check(tracing.wrapped_sites() == [], "untraced set-up installed wrappers")

    m = kripke.load_model(TWO_BLOCKS)
    arb = syntax.parse_formula("[*]p")
    s = traced(lambda: checker.satisfies(m, "s0", arb))
    check(s.block_counts == [2], f"arrow blocks {s.block_counts}, expected [2]")
    check(s.counts["checker.unions"] == 4, f"unions {s.counts['checker.unions']}, expected 4")
    check(s.count["bisim.partition"] == 1, f"partitions {s.count['bisim.partition']}, expected 1")
    check(s.count["kripke.init"] == 4, f"models built {s.count['kripke.init']}, expected 4")
    check(s.count[tracing.APPLY] == 0, "a quantifier applied a concrete update")
    children = ("syntax.desugar", "bisim.partition", "bisim.arrow_blocks", tracing.WITH_ARROWS)
    covered = sum(s.total[name] for name in children)
    check(
        math.isclose(s.self_time[tracing.SATISFIES] + covered, s.total[tracing.SATISFIES], abs_tol=1e-9),
        "self time plus child time differs from the span's duration",
    )

    out = io.StringIO()
    s = traced(lambda: cli.run(["check", "-", "[*]p"], stdin=io.StringIO(TWO_BLOCKS), stdout=out))
    check(out.getvalue() == "true\n", f"aaul check printed {out.getvalue()!r}")
    calls = {name: s.count[name] for name in (tracing.CLI_RUN, "kripke.load", "syntax.parse", tracing.SATISFIES)}
    check(set(calls.values()) == {1}, f"one call each expected through the command line, got {calls}")
    check(s.counts["checker.unions"] == 4, "unions through the command line, expected 4")

    upd = syntax.parse_formula("[{(p,a,true)}]<a>true")
    s = traced(lambda: checker.satisfies(m, "s0", upd))
    check(s.count[tracing.APPLY] == 1, f"applies {s.count[tracing.APPLY]}, expected 1")
    check(s.counts["checker.unions"] == 0, "a with_arrows call inside the update counted as a union")
    check((s.counts["updates.offered"], s.counts["updates.kept"]) == (2, 1), "kept/offered arrows, expected 1/2")

    originals = {(module, attr): tracing.current(module, attr) for module, attr, _, _ in tracing.all_sites()}
    tracer = tracing.Tracer()
    tracer.install()
    wrapped = tracing.wrapped_sites()
    tracer.uninstall()
    check(tracer.missing == [], f"sites missing from the package: {tracer.missing}")
    check(len(wrapped) == len(originals), f"{len(originals) - len(wrapped)} sites left unwrapped")
    check(tracing.wrapped_sites() == [], "uninstall left wrappers behind")
    check(
        all(tracing.current(*site) is fn for site, fn in originals.items()),
        "uninstall did not restore the originals",
    )
    print(json.dumps({"selftest": "passed"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
