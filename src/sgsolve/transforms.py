"""Value-preserving game transformations, on exact values the caller solved.

``rvi`` deletes every minimizer-controlled transition into a strictly more
valuable state.  At least one successor of equal value always remains, so no
dead ends appear; the exact value vector is unchanged and the operation is
idempotent.
"""

from __future__ import annotations

from .model import Game, InvariantError, Owner, check_targets

INCREASING = "increasing"
DECREASING = "decreasing"
PRESERVING = "preserving"


def rvi(game: Game, values) -> Game:
    """Remove the minimizer's value-increasing transitions under the exact
    reach ``values``.  Returns a new game; values are preserved."""
    succ: dict[str, tuple[str, ...]] = {}
    for s in game.states:
        if game.owner[s] is Owner.MIN:
            kept = tuple(t for t in game.succ[s] if values[t] <= values[s])
            if not kept:
                raise InvariantError(f"no value-preserving successor remains at {s}")
            succ[s] = kept
        else:
            succ[s] = game.succ[s]
    return Game(dict(game.owner), succ, dict(game.prob))


def classify_transitions(game: Game, values, targets, reach_plus: bool = False) -> dict[tuple[str, str], str]:
    """Classify every edge as increasing, decreasing or preserving under the
    exact reach ``values`` of ``targets`` (revisit values with ``reach_plus``).

    With plain reach values this also checks the ownership facts: an edge
    controlled by the maximizer is never value-increasing and one controlled
    by the minimizer is never value-decreasing.  The facts rest on the values
    being Bellman-consistent at the edge's source, so they are not checked
    at target states (whose values are pinned) or for revisit values.
    """
    targets = check_targets(game, targets)
    out: dict[tuple[str, str], str] = {}
    for s in game.states:
        for t in game.succ[s]:
            if values[s] > values[t]:
                label = DECREASING
            elif values[s] < values[t]:
                label = INCREASING
            else:
                label = PRESERVING
            if not reach_plus and s not in targets:
                if game.owner[s] is Owner.MAX and label == INCREASING:
                    raise InvariantError(f"maximizer edge {s}->{t} increases value")
                if game.owner[s] is Owner.MIN and label == DECREASING:
                    raise InvariantError(f"minimizer edge {s}->{t} decreases value")
            out[(s, t)] = label
    return out
