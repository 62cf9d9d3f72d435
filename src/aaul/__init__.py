"""Arrow update logic toolkit.

Formulas (syntax) are checked on finite Kripke models (kripke) by a
truth-set evaluator (checker) that applies updates, which prune arrows, and
decides the arbitrary-update modalities through bisimulation quotients
(bisim). On top sit a bounded search for a small satisfying model
(search), an encoder that reduces plane tiling to satisfiability (tiling)
and a command line front end (cli).
"""

from .bisim import (
    ArrowBlock,
    Partition,
    arrow_blocks,
    characteristic_formulas,
    coarsest_partition,
)
from .checker import (
    Budget,
    DEFAULT_BUDGET,
    brute_force_arb_oracle,
    satisfies,
    truth_set,
    update_model,
    witness_update,
)
from .errors import (
    AaulError,
    BudgetExceededError,
    ModelFormatError,
    ParseError,
    UnknownAgentError,
    UnknownStateError,
)
from .kripke import KripkeModel, export_dot, load_model, save_model
from .search import sat_search
from .syntax import (
    And,
    ArbBox,
    ArbDiamond,
    Atom,
    BOT,
    Bot,
    Box,
    Clause,
    Diamond,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    TOP,
    Top,
    Update,
    UpdateBox,
    UpdateDiamond,
    conj,
    disj,
    flatten_conj,
    is_quantifier_free,
    parse_formula,
    parse_update,
    print_formula,
    print_update,
    signature,
)
from .tiling import (
    PeriodicTiling,
    TileInstance,
    TileType,
    TilingEncoding,
    build_torus_model,
    check_static_conjuncts,
    encode,
    encode_parts,
    find_periodic_tiling,
    parse_tiles,
    refl,
)

__version__ = "0.1.0"
