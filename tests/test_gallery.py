"""The example-game builders and their pinned structural facts."""

from fractions import Fraction

import pytest
from conftest import ruin_probability

from sgsolve import (
    SinkMode,
    almost_sure_reach,
    positive_reach_set,
    validate,
    value_buchi,
    value_reach,
    value_safety,
)
from sgsolve import gallery
from sgsolve.strategies import optimal_min_md

HALF = Fraction(1, 2)


def test_every_gallery_game_validates_at_all_depths():
    for depth in range(15):
        assert validate(gallery.build_fig2(depth).game) == []
        if depth >= 4:
            assert validate(gallery.build_fig2_with_u(depth).game) == []
    for k in range(1, 9):
        assert validate(gallery.build_ladder(k).game) == []
    for cap in (5, 30):
        assert validate(gallery.build_gamblers_ruin(Fraction(3, 5), cap).game) == []


def test_fig2_exit_chain_values():
    built = gallery.build_fig2(12)
    values = value_reach(built.game, built.targets)
    for i in range(10):
        assert values[f"r{i}"] == 1 - Fraction(1, 2**i)
        if i >= 1:
            assert values[f"rp{i}"] == Fraction(1, 2**i)


def test_fig2_accepting_ladder_value_vanishes_with_depth():
    previous = None
    for depth in (4, 6, 8, 10):
        built = gallery.build_fig2(depth, SinkMode.OPTIMISTIC)
        upper = value_buchi(built.game, built.buchi)["sp0"]
        assert upper > 0
        if previous is not None:
            assert upper < previous
        previous = upper


def test_fig2_buchi_value_brackets_one_half():
    for depth in range(4, 13):
        built = gallery.build_fig2(depth)
        v = value_buchi(built.game, built.buchi)["i"]
        assert abs(v - HALF) <= Fraction(1, 2 ** (depth - 1))


def test_ladder_peeling_facts():
    for k in (1, 3, 6):
        built = gallery.build_ladder(k)
        part = almost_sure_reach(built.game, built.targets)
        assert part.rounds == k + 1
        assert part.max_wins == {"goal", "home"}


def test_ladder_values_climb_toward_one():
    built = gallery.build_ladder(6)
    values = value_reach(built.game, built.targets)
    assert values["goal"] == 1 and values["home"] == 1
    assert values["dead"] == 0 and values["c"] == HALF
    for j in range(1, 7):
        assert values[f"q{j}"] == 1 - Fraction(1, 2 ** (j + 1))
        assert values[f"x{j}"] == values[f"q{j}"]


def test_gamblers_ruin_matches_closed_form_exactly():
    for p in (Fraction(3, 5), Fraction(1, 2), Fraction(11, 20)):
        built = gallery.build_gamblers_ruin(p, 30)
        values = value_reach(built.game, built.targets)
        for w in range(31):
            assert values[f"w{w}"] == ruin_probability(p, 30, w)
        approx = value_reach(built.game, built.targets, tol=1e-10)
        for w in range(31):
            assert abs(approx.values[f"w{w}"] - float(values[f"w{w}"])) <= 1e-9


def test_gamblers_ruin_interior_values_are_interior():
    built = gallery.build_gamblers_ruin(Fraction(3, 5), 30)
    values = value_reach(built.game, built.targets)
    for w in range(1, 30):
        assert 0 < values[f"w{w}"] < 1


def test_gamblers_ruin_fair_coin_closed_form():
    built = gallery.build_gamblers_ruin(Fraction(1, 2), 12)
    values = value_reach(built.game, built.targets)
    for w in range(13):
        assert values[f"w{w}"] == 1 - Fraction(w, 12)


def test_fig2_with_u_value_equalities_and_limit():
    previous_gap = None
    for depth in (5, 7, 9):
        built = gallery.build_fig2_with_u(depth)
        values = value_reach(built.game, built.targets)
        assert values["u"] == values["s0"] < 1 == values["t"]
        gap = 1 - values["u"]
        assert gap == Fraction(1, 2 ** (depth - 2))
        if previous_gap is not None:
            assert gap < previous_gap
        previous_gap = gap
        assert optimal_min_md(built.game, built.targets).choice["u"] == "s0"
        assert "u" in positive_reach_set(built.game, built.targets)


def test_builder_argument_validation():
    with pytest.raises(ValueError):
        gallery.build_ladder(0)
    with pytest.raises(ValueError):
        gallery.build_gamblers_ruin(Fraction(3, 2), 10)
    with pytest.raises(ValueError):
        gallery.build_gamblers_ruin(Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        gallery.build_fig2_with_u(3)
