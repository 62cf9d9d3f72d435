"""Walk through the quantifier machinery on a two-state model.

Builds the model s -> t, t -> t with p true only at t, evaluates the
loop-probe formula at both states, asks for a witness update for an
existential quantifier, and shows the arrow blocks the enumeration
ranges over.
"""

import argparse

from aaul import (
    KripkeModel,
    arrow_blocks,
    coarsest_partition,
    parse_formula,
    print_formula,
    print_update,
    satisfies,
    truth_set,
    update_model,
    witness_update,
)
from aaul.tiling import refl


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--agent", default="a", help="agent the probe formula talks about")
    args = parser.parse_args()

    m = KripkeModel(
        states=("s", "t"),
        agents=(args.agent,),
        props=("p",),
        arrows={args.agent: {("s", "t"), ("t", "t")}},
        valuation={"p": {"t"}},
        point="s",
    )
    probe = refl(args.agent)
    print(f"model: s -> t, t -> t ({args.agent}-arrows), p true at t")
    print(f"probe formula: {print_formula(probe)}")
    for state in m.states:
        print(f"  holds at {state}: {satisfies(m, state, probe)}")
    part = coarsest_partition(m)
    print(f"  (s and t bisimilar: {part.block_of('s') == part.block_of('t')})")
    print()

    goal = parse_formula(f"<*><{args.agent}>[{args.agent}]false")
    print(f"witness search for {print_formula(goal)} at s")
    update = witness_update(m, "s", goal)
    assert update is not None
    print(f"  found: {print_update(update)}")
    updated = update_model(m, update)
    print(f"  arrows after applying it: {sorted(updated.arrow_set(args.agent))}")
    print(f"  goal body now holds: {satisfies(updated, 's', goal.body)}")
    print()

    print(f"partition blocks: {[sorted(b) for b in part.blocks]}")
    print("arrow blocks the quantifier enumerates unions of:")
    for blk in arrow_blocks(m, part):
        print(f"  agent {blk.agent}: block {blk.source_block} -> block {blk.target_block}"
              f"  arrows {sorted(blk.arrows)}")
    boxed = parse_formula("[*]<a>true")
    print(f"{print_formula(boxed)} truth set: {sorted(truth_set(m, boxed))}")


if __name__ == "__main__":
    main()
