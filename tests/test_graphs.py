"""Graph kernel: end components against their definition."""

import itertools
import random

from conftest import random_game

from sgsolve import Game, Owner
from sgsolve.graphs import maximal_end_components


def _is_end_component(game: Game, members: set[str], edges) -> bool:
    """Random states keep their support inside, every state has an internal
    move, and the internal moves connect ``members`` strongly."""
    inner = {}
    for s in members:
        if game.owner[s] is Owner.RANDOM and any(t not in members for t in game.succ[s]):
            return False
        inner[s] = [t for t in edges(s) if t in members]
        if not inner[s]:
            return False
    back = {s: [p for p in members if s in inner[p]] for s in members}
    for step in (inner, back):
        seen, todo = set(), [next(iter(members))]
        while todo:
            s = todo.pop()
            if s not in seen:
                seen.add(s)
                todo.extend(step[s])
        if seen != members:
            return False
    return True


def _brute_force_mecs(game: Game, states, allowed=None) -> list[list[str]]:
    def edges(s):
        if allowed is None or game.owner[s] is Owner.RANDOM:
            return game.succ[s]
        return allowed(s)

    states = sorted(states)
    found = [set(c) for r in range(1, len(states) + 1)
             for c in itertools.combinations(states, r)
             if _is_end_component(game, set(c), edges)]
    return sorted(sorted(c) for c in found if not any(c < d for d in found))


def test_maximal_end_components_match_subset_enumeration():
    nontrivial = 0
    for seed in range(120):
        game, _ = random_game(seed, n=2 + seed % 9, owned_branch=1 + seed % 3)
        rng = random.Random(seed)
        some = [s for s in game.states if rng.random() < 0.8]
        narrowed = {s: [t for t in game.succ[s] if rng.random() < 0.6] for s in game.states}
        for states in (game.states, some):
            for allowed in (None, narrowed.__getitem__):
                want = _brute_force_mecs(game, states, allowed)
                if allowed is None:
                    got = maximal_end_components(game, states)
                else:
                    got = maximal_end_components(game, states, allowed)
                assert got == want, (seed, states, allowed)
                nontrivial += any(len(c) > 1 for c in want)
    assert nontrivial >= 50
