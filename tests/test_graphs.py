"""Graph kernel: end components against their definition."""

import itertools
import random
from fractions import Fraction

from conftest import random_game

from sgsolve import Game, Owner, graphs
from sgsolve.graphs import maximal_end_components

HALF = Fraction(1, 2)


def _is_end_component(game: Game, members: set[str]) -> bool:
    """Random states keep their support inside, every state has an internal
    move, and the internal moves connect ``members`` strongly."""
    inner = {}
    for s in members:
        if game.owner[s] is Owner.RANDOM and any(t not in members for t in game.succ[s]):
            return False
        inner[s] = [t for t in game.succ[s] if t in members]
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


def _brute_force_mecs(game: Game, states) -> list[list[str]]:
    states = sorted(states)
    found = [set(c) for r in range(1, len(states) + 1)
             for c in itertools.combinations(states, r)
             if _is_end_component(game, set(c))]
    return sorted(sorted(c) for c in found if not any(c < d for d in found))


def test_maximal_end_components_match_subset_enumeration():
    nontrivial = 0
    for seed in range(120):
        game, _ = random_game(seed, n=2 + seed % 9, owned_branch=1 + seed % 3)
        rng = random.Random(seed)
        some = [s for s in game.states if rng.random() < 0.8]
        # Owned rows narrowed (possibly to nothing), random supports kept:
        # how a caller restricts the owned players' edges.
        rows = {s: tuple(t for t in game.succ[s] if rng.random() < 0.6) for s in game.states}
        narrowed = Game(game.owner, {**game.succ, **{
            s: row for s, row in rows.items() if game.owner[s] is not Owner.RANDOM}}, game.prob)
        for states in (game.states, some):
            for g in (game, narrowed):
                want = _brute_force_mecs(g, states)
                got = maximal_end_components(g, states)
                assert got == want, (seed, states, g is narrowed)
                nontrivial += any(len(c) > 1 for c in want)
    assert nontrivial >= 50


def test_lone_random_state_with_a_self_loop_and_an_exit_is_no_end_component():
    # ``r`` is a strongly connected part of its own that has a self-loop, so
    # it survives the split as a candidate; its other successor leaves, so it
    # is still dropped.
    game = Game.of([
        ("a", "max", ("b", "r")),
        ("b", "min", ("a",)),
        ("r", "rand", ("r", "z"), (HALF, HALF)),
        ("z", "max", ("z", "a")),
    ])
    for states in (game.states, ("r", "z"), ("a", "b", "r")):
        want = _brute_force_mecs(game, states)
        assert maximal_end_components(game, states) == want
        assert ["r"] not in want
    assert maximal_end_components(game, game.states) == [["a", "b", "r", "z"]]
    assert maximal_end_components(game, ("a", "b", "r")) == [["a", "b"]]


def test_lone_states_without_a_self_loop_cost_no_round(monkeypatch):
    # One attractor run per candidate.  A strongly connected part that is
    # one state without a self-loop has no internal move, so the split drops
    # it instead of making it a candidate.
    game, _ = random_game(12, n=60)
    rounds = nontrivial = lone = 0
    attractor, scc = graphs.attractor, graphs.strongly_connected_components

    def counted_attractor(*args, **kwargs):
        nonlocal rounds
        rounds += 1
        return attractor(*args, **kwargs)

    def counted_scc(nodes, succ):
        nonlocal nontrivial, lone
        comps = scc(nodes, succ)
        if len(comps) > 1:
            kept = sum(len(c) > 1 or c[0] in succ(c[0]) for c in comps)
            nontrivial += kept
            lone += len(comps) - kept
        return comps

    monkeypatch.setattr(graphs, "attractor", counted_attractor)
    monkeypatch.setattr(graphs, "strongly_connected_components", counted_scc)
    maximal_end_components(game, game.states)
    assert lone >= 20
    assert rounds <= nontrivial + 1
