"""sgsolve: a solver for turn-based 2.5-player stochastic games.

Exact rational objective values, almost-sure winning partitions, memoryless
deterministic strategy synthesis with re-solve certificates, certified value
intervals for lazily generated countable games, brute-force oracles and a
reproducible Monte-Carlo simulator.

Names load on first use: ``import sgsolve`` imports no submodule, and the
first access to a name (``sgsolve.value_reach``, ``from sgsolve import
Game``) imports the module that defines it.  ``__all__`` lists every public
name and the submodules, so ``from sgsolve import *`` loads them all.
"""

import importlib as _importlib

# Each submodule and the names the package re-exports from it.
_EXPORTS = {
    "model": "Game InvariantError LazyGame Owner SgsolveError SinkMode StateInfo Truncation "
             "TruncationError Violation swap_roles truncate validate",
    "objectives": "Objective ObjectiveKind Verdict bounding_sinks buchi cobuchi decided "
                  "parse_objective reach reach_plus safety",
    "values": "IntervalValues ValueVector bellman_step epsilon_horizon interval_values "
              "value_buchi value_cobuchi value_reach value_reach_within value_safety",
    "winning": "WinningPartition almost_sure_buchi almost_sure_reach almost_sure_safety "
               "positive_reach_set",
    "transforms": "classify_transitions rvi",
    "strategies": "MDStrategy ThresholdVerdict TransducerStrategy ValueDecreaseError apply_md "
                  "buchi_md_pair format_strategy md_to_transducer optimal_max_md "
                  "optimal_max_md_no_decrease optimal_min_md parse_strategy reachplus_max_md "
                  "reachplus_min_md threshold_decide",
    "oracle": "chain_buchi_values md_enumeration_oracle mdp_buchi_exact",
    "simulate": "Estimate SimConfig sample_plays",
    "textio": "GameFormatError ParsedGame format_game parse_game",
    "exact": "",
    "graphs": "",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name: str):
    if name in _EXPORTS:
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
