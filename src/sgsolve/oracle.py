"""Independent brute-force and one-player exact oracles.

Values come from enumerating all memoryless deterministic strategy pairs and
solving each induced finite Markov chain with ``exact.chain_reach_values``
(after a bottom-component analysis for the tail objectives), so they referee
strategy iteration, the peels and the constructions but not the chain solve
itself; the dense references in ``tests/test_exact.py`` referee that.
``mdp_buchi_exact`` solves a one-player Buchi game as reachability of
its end components with ``solve_reach_exact``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .exact import bellman_combine, chain_reach_values, solve_reach_exact
from .graphs import bottom_components, maximal_end_components
from .model import Game, InvariantError, Owner, check_targets, swap_roles
from .objectives import Objective, ObjectiveKind
from .values import ValueVector

ONE = Fraction(1)

PAIR_BOUND = 10**6


def chain_buchi_values(game: Game, choice: dict[str, str], buchi_set: set[str]) -> dict[str, Fraction]:
    """Probability of visiting ``buchi_set`` infinitely often in the chain
    fixed by ``choice``: absorption into a bottom component containing a
    Buchi state."""
    buchi_set = check_targets(game, buchi_set)
    winning: set[str] = set()
    for comp in bottom_components(game, choice):
        if any(s in buchi_set for s in comp):
            winning.update(comp)
    return chain_reach_values(game, choice, winning)


def _chain_objective_values(game: Game, choice: dict[str, str], obj: Objective) -> dict[str, Fraction]:
    kind = obj.kind
    target = set(obj.target)
    if kind is ObjectiveKind.REACH:
        return chain_reach_values(game, choice, target)
    if kind is ObjectiveKind.SAFETY:
        reach = chain_reach_values(game, choice, target)
        return {s: ONE - v for s, v in reach.items()}
    if kind is ObjectiveKind.REACH_PLUS:
        reach = chain_reach_values(game, choice, target)
        out = {}
        for s in game.states:
            if game.owner[s] is Owner.RANDOM:
                out[s] = bellman_combine(game, reach, s)
            else:
                out[s] = reach[choice[s]]
        return out
    if kind is ObjectiveKind.BUCHI:
        return chain_buchi_values(game, choice, target)
    if kind is ObjectiveKind.COBUCHI:
        buchi = chain_buchi_values(game, choice, target)
        return {s: ONE - v for s, v in buchi.items()}
    raise ValueError(f"oracle does not handle {kind}")


def md_enumeration_oracle(game: Game, obj: Objective) -> ValueVector:
    """Exact values by exhaustive max-min over all MD strategy pairs.

    Valid because finite games of these objectives have uniformly optimal MD
    strategies on both sides.  Refuses instances whose strategy-pair product
    exceeds ``PAIR_BOUND``.
    """
    check_targets(game, obj.target)
    max_states = [s for s in game.states if game.owner[s] is Owner.MAX]
    min_states = [s for s in game.states if game.owner[s] is Owner.MIN]
    pairs = 1
    for s in max_states + min_states:
        pairs *= len(game.succ[s])
    if pairs > PAIR_BOUND:
        raise ValueError(f"{pairs} MD pairs exceed the enumeration bound {PAIR_BOUND}")

    best: dict[str, Fraction] | None = None
    for sigma in product(*(game.succ[s] for s in max_states)):
        worst: dict[str, Fraction] | None = None
        for pi in product(*(game.succ[s] for s in min_states)):
            choice = dict(zip(max_states, sigma))
            choice.update(zip(min_states, pi))
            vals = _chain_objective_values(game, choice, obj)
            if worst is None:
                worst = dict(vals)
            else:
                for s in game.states:
                    if vals[s] < worst[s]:
                        worst[s] = vals[s]
        if worst is None:
            raise InvariantError("a minimizer state has no successor")
        if best is None:
            best = worst
        else:
            for s in game.states:
                if worst[s] > best[s]:
                    best[s] = worst[s]
    if best is None:
        raise InvariantError("a maximizer state has no successor")
    return ValueVector(best)


def mdp_buchi_exact(game: Game, buchi_set) -> ValueVector:
    """Exact Buchi values when one player is passive.

    With the maximizer active the value is the best probability of reaching
    an end component containing a Buchi state.  With the minimizer active it
    is one minus the best probability of settling in a Buchi-free end
    component (the minimizer maximizes the dual objective).
    """
    buchi_set = check_targets(game, buchi_set)
    # A player whose states all have single successors makes no choices.
    max_active = any(
        game.owner[s] is Owner.MAX and len(game.succ[s]) > 1 for s in game.states
    )
    min_active = any(
        game.owner[s] is Owner.MIN and len(game.succ[s]) > 1 for s in game.states
    )
    if max_active and min_active:
        raise ValueError("both players are active")
    if not min_active:
        winning: set[str] = set()
        for comp in maximal_end_components(game, game.states):
            if any(s in buchi_set for s in comp):
                winning.update(comp)
        return ValueVector(solve_reach_exact(game, winning))
    safe = [s for s in game.states if s not in buchi_set]
    havens: set[str] = set()
    for comp in maximal_end_components(game, safe):
        havens.update(comp)
    escape = solve_reach_exact(swap_roles(game), havens)
    return ValueVector({s: ONE - escape[s] for s in game.states})
