"""The minimizer-edge removal transform and edge classification."""

from fractions import Fraction

from conftest import random_game

from sgsolve import Game, Owner, classify_transitions, rvi
from sgsolve import gallery
from sgsolve.exact import reach_plus_values, solve_reach_exact
from sgsolve.transforms import DECREASING, INCREASING, PRESERVING

HALF = Fraction(1, 2)


def _cheap_expensive():
    # Minimizer state of value 3/10 with successor values 3/10 and 7/10.
    return Game.of([
        ("m", "min", ("cheap", "dear")),
        ("cheap", "rand", ("t", "z"), (Fraction(3, 10), Fraction(7, 10))),
        ("dear", "rand", ("t", "z"), (Fraction(7, 10), Fraction(3, 10))),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ])


def test_rvi_deletes_the_expensive_edge():
    g = _cheap_expensive()
    out = rvi(g, solve_reach_exact(g, {"t"}))
    assert out.succ["m"] == ("cheap",)
    assert out.succ["dear"] == g.succ["dear"]


def test_rvi_leaves_min_free_games_alone():
    built = gallery.build_ladder(3)
    out = rvi(built.game, solve_reach_exact(built.game, built.targets))
    assert out.succ == built.game.succ


def test_rvi_preserves_values_and_is_idempotent():
    for seed in range(30):
        g, t = random_game(seed, n=10)
        values = solve_reach_exact(g, t)
        once = rvi(g, values)
        again = solve_reach_exact(once, t)
        assert again == values
        twice = rvi(once, again)
        assert twice.succ == once.succ


def test_rvi_never_touches_max_or_random_edges():
    for seed in range(30):
        g, t = random_game(seed, n=10)
        out = rvi(g, solve_reach_exact(g, t))
        for s in g.states:
            if g.owner[s] is not Owner.MIN:
                assert out.succ[s] == g.succ[s]


def test_classification_of_straddling_random_state():
    g = Game.of([
        ("a", "rand", ("z", "t"), (HALF, HALF)),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ])
    labels = classify_transitions(g, solve_reach_exact(g, {"t"}), {"t"})
    assert labels[("a", "t")] == INCREASING
    assert labels[("a", "z")] == DECREASING


def test_fig2_climb_edges_preserve_value():
    fig2 = gallery.build_fig2(10)
    labels = classify_transitions(fig2.game, solve_reach_exact(fig2.game, fig2.targets),
                                  fig2.targets)
    for i in range(7):  # away from the frontier the ladder is flat at value 1 - 2^-8
        assert labels[(f"s{i}", f"s{i + 1}")] == PRESERVING


def test_ladder_drops_are_decreasing_stays_preserving():
    built = gallery.build_ladder(4)
    labels = classify_transitions(built.game, solve_reach_exact(built.game, built.targets),
                                  built.targets)
    for j in range(1, 5):
        drop = "c" if j == 1 else f"q{j - 1}"
        assert labels[(f"q{j}", drop)] == DECREASING
        assert labels[(f"q{j}", f"x{j}")] == PRESERVING


def test_ownership_facts_hold_on_random_games():
    for seed in range(60):
        g, t = random_game(seed)
        labels = classify_transitions(g, solve_reach_exact(g, t), t)  # raises if the facts fail
        for (s, _), label in labels.items():
            if s in t:
                continue
            if g.owner[s] is Owner.MAX:
                assert label != INCREASING
            if g.owner[s] is Owner.MIN:
                assert label != DECREASING


def test_reach_plus_classification_skips_the_asserts():
    g = Game.of([
        ("m", "min", ("t",)),
        ("t", "min", ("z",)),  # target forced into a losing continuation
        ("z", "max", ("z",)),
    ])
    vplus = reach_plus_values(g, solve_reach_exact(g, {"t"}))
    labels = classify_transitions(g, vplus, {"t"}, reach_plus=True)
    # Revisit value of m is 1 (its successor is the target), of t it is 0:
    # a minimizer edge that counts as decreasing, legal only in this mode.
    assert labels[("m", "t")] == DECREASING
    assert labels[("t", "z")] == PRESERVING
