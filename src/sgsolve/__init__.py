"""sgsolve: a solver for turn-based 2.5-player stochastic games.

Exact rational objective values, almost-sure winning partitions, memoryless
deterministic strategy synthesis with re-solve certificates, certified value
intervals for lazily generated countable games, brute-force oracles and a
reproducible Monte-Carlo simulator.
"""

from .model import (
    Game,
    InvariantError,
    LazyGame,
    Owner,
    SgsolveError,
    SinkMode,
    StateInfo,
    Truncation,
    TruncationError,
    Violation,
    swap_roles,
    truncate,
    validate,
)
from .objectives import (
    Objective,
    ObjectiveKind,
    PlayPrefix,
    Verdict,
    bounding_sinks,
    buchi,
    cobuchi,
    decided,
    dual,
    parse_objective,
    reach,
    reach_plus,
    safety,
)
from .values import (
    IntervalValues,
    ValueVector,
    bellman_step,
    epsilon_horizon,
    interval_values,
    value_buchi,
    value_cobuchi,
    value_reach,
    value_reach_within,
    value_safety,
)
from .winning import (
    WinningPartition,
    almost_sure_buchi,
    almost_sure_reach,
    almost_sure_safety,
    positive_reach_set,
)
from .transforms import classify_transitions, rvi
from .strategies import (
    MDStrategy,
    ThresholdVerdict,
    TransducerStrategy,
    ValueDecreaseError,
    apply_md,
    buchi_md_pair,
    format_strategy,
    md_to_transducer,
    optimal_max_md,
    optimal_max_md_no_decrease,
    optimal_min_md,
    parse_strategy,
    reachplus_max_md,
    reachplus_min_md,
    threshold_decide,
    transducer_to_md,
)
from .oracle import chain_buchi_values, md_enumeration_oracle, mdp_buchi_exact
from .simulate import Estimate, SimConfig, sample_plays
from .textio import GameFormatError, ParsedGame, format_game, parse_game

__all__ = [name for name in dir() if not name.startswith("_")]
