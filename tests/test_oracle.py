"""Brute-force enumeration oracle and the one-player exact solvers."""

from fractions import Fraction

import pytest
from conftest import random_game

from sgsolve import (
    Game,
    buchi,
    chain_buchi_values,
    cobuchi,
    md_enumeration_oracle,
    mdp_buchi_exact,
    reach,
    reach_plus,
    safety,
    value_buchi,
    value_reach,
    value_safety,
)
from sgsolve import gallery
from sgsolve.exact import reach_plus_values, solve_reach_exact

HALF = Fraction(1, 2)


def test_single_choice_state_takes_the_better_chain():
    g = Game.of([
        ("a", "max", ("x", "y")),
        ("x", "rand", ("t", "z"), (HALF, HALF)),
        ("y", "rand", ("t", "z"), (Fraction(1, 4), Fraction(3, 4))),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ])
    oracle = md_enumeration_oracle(g, reach("t"))
    assert oracle["a"] == HALF  # max of the two chain solves


def test_oracle_matches_solvers_on_random_games():
    for seed in range(40):
        g, t = random_game(seed, n=7)
        assert md_enumeration_oracle(g, reach(*t)).values == value_reach(g, t).values
        assert md_enumeration_oracle(g, safety(*t)).values == value_safety(g, t).values
        assert md_enumeration_oracle(g, buchi(*t)).values == value_buchi(g, t).values


def test_oracle_buchi_on_fig2_truncation():
    fig2 = gallery.build_fig2(4)
    oracle = md_enumeration_oracle(fig2.game, buchi(*fig2.buchi))
    assert oracle.values == value_buchi(fig2.game, fig2.buchi).values


def test_oracle_cobuchi_complements_buchi_on_chains():
    g = Game.of([
        ("a", "rand", ("b", "z"), (HALF, HALF)),
        ("b", "rand", ("a", "b"), (HALF, HALF)),
        ("z", "max", ("z",)),
    ])
    vb = md_enumeration_oracle(g, buchi("b"))
    vc = md_enumeration_oracle(g, cobuchi("b"))
    for s in g.states:
        assert vb[s] + vc[s] == 1


def test_oracle_size_bound():
    rows = [("t", "max", ("t",))]
    for i in range(21):
        rows.append((f"a{i}", "max", ("t", f"a{i}")))
    g = Game.of(rows)
    with pytest.raises(ValueError):
        md_enumeration_oracle(g, reach("t"))


def test_chain_buchi_values_by_bottom_components():
    g = Game.of([
        ("a", "rand", ("b", "z"), (Fraction(1, 3), Fraction(2, 3))),
        ("b", "max", ("b",)),
        ("z", "max", ("z",)),
    ])
    vals = chain_buchi_values(g, {"b": "b", "z": "z"}, {"b"})
    assert vals["a"] == Fraction(1, 3)
    assert vals["b"] == 1 and vals["z"] == 0


def test_mdp_buchi_on_markov_chain():
    g = Game.of([
        ("a", "rand", ("b", "z"), (Fraction(1, 3), Fraction(2, 3))),
        ("b", "rand", ("b",), (Fraction(1),)),
        ("z", "rand", ("z",), (Fraction(1),)),
    ])
    vals = mdp_buchi_exact(g, {"b"})
    assert vals["a"] == Fraction(1, 3)


def test_mdp_buchi_all_states_accepting_without_dead_ends():
    g = Game.of([
        ("a", "max", ("b", "a")),
        ("b", "rand", ("a", "b"), (HALF, HALF)),
    ])
    vals = mdp_buchi_exact(g, {"a", "b"})
    assert all(v == 1 for v in vals.values.values())


def test_mdp_buchi_minimizer_active():
    g = Game.of([
        ("m", "min", ("b", "z")),
        ("b", "max", ("b",)),
        ("z", "max", ("z",)),
    ])
    # b and z carry no choices, so the maximizer counts as passive.
    vals = mdp_buchi_exact(g, {"b"})
    assert vals["m"] == 0


def test_mdp_buchi_rejects_two_active_players():
    g = Game.of([
        ("a", "max", ("a", "m")),
        ("m", "min", ("a", "m")),
    ])
    with pytest.raises(ValueError):
        mdp_buchi_exact(g, {"a"})


def test_oracle_reachplus_matches_reach_plus_values():
    for seed in range(300):
        g, t = random_game(seed, n=7)
        values = solve_reach_exact(g, t)
        assert md_enumeration_oracle(g, reach_plus(*t)).values == reach_plus_values(g, values), seed
