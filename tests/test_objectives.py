"""Objective semantics on play prefixes, CLI syntax."""

import re

import pytest
from conftest import random_game

from sgsolve import (
    Game,
    Objective,
    ObjectiveKind,
    SinkMode,
    Verdict,
    bounding_sinks,
    decided,
    parse_objective,
    reach,
    safety,
    buchi,
    cobuchi,
    reach_plus,
)
from sgsolve import gallery


@pytest.fixture(scope="module")
def fig2():
    return gallery.build_fig2(8)


def test_reach_satisfied_after_target_visit(fig2):
    obj = reach("t")
    hit = ("i", "s0", "s1", "r1", "t")
    assert decided(obj, fig2.game, hit) == Verdict.SATISFIED_FOREVER
    assert decided(obj, fig2.game, list(hit)) == Verdict.SATISFIED_FOREVER
    still_open = ("i", "s0", "s1", "r1")
    assert decided(obj, fig2.game, still_open) == Verdict.UNDECIDED


def test_reach_violated_when_target_unreachable(fig2):
    obj = reach("t")
    assert decided(obj, fig2.game, ("i", "s0", "r0")) == Verdict.VIOLATED_FOREVER
    assert decided(obj, fig2.game, ("i", "s0")) == Verdict.UNDECIDED


def test_decided_refuses_a_string_prefix(fig2):
    # Read as a sequence, "it" would be the states i and t, and "ab" on a
    # game with a state named ab the unknown state a.
    message = r"^a play prefix is a tuple or list of states, not the string "
    with pytest.raises(TypeError, match=message + "'it'$"):
        decided(reach("t"), fig2.game, "it")
    g = Game.of([("ab", "max", ("ab",))])
    with pytest.raises(TypeError, match=message + "'ab'$"):
        decided(reach("ab"), g, "ab")
    assert decided(reach("ab"), g, ("ab",)) == Verdict.SATISFIED_FOREVER


def test_reach_within_violated_after_horizon():
    g = gallery.build_ladder(2).game
    obj = Objective(ObjectiveKind.REACH_WITHIN, frozenset({"goal"}), 2)
    prefix = ("home", "q2", "q1", "c")  # four states, none the goal
    assert decided(obj, g, prefix) == Verdict.VIOLATED_FOREVER


def test_reach_within_zero_steps_is_initial_membership():
    g = gallery.build_ladder(1).game
    obj = Objective(ObjectiveKind.REACH_WITHIN, frozenset({"goal"}), 0)
    assert decided(obj, g, ("goal",)) == Verdict.SATISFIED_FOREVER
    assert decided(obj, g, ("home",)) == Verdict.VIOLATED_FOREVER


def test_buchi_decided_only_at_absorbing_states(fig2):
    obj = buchi(*fig2.buchi)
    wandering = ("i", "sp0", "sp1")
    assert decided(obj, fig2.game, wandering) == Verdict.UNDECIDED
    dead = ("i", "sp0", "sp1", "rp1", "rp0")
    assert decided(obj, fig2.game, dead) == Verdict.VIOLATED_FOREVER
    won = ("i", "s0", "s1", "r1", "t")
    assert decided(obj, fig2.game, won) == Verdict.SATISFIED_FOREVER


def test_cobuchi_flips_absorbing_verdicts(fig2):
    obj = cobuchi(*fig2.buchi)
    assert decided(obj, fig2.game, ("i", "sp0", "sp1", "rp1", "rp0")) == Verdict.SATISFIED_FOREVER
    assert decided(obj, fig2.game, ("i", "s0", "s1", "r1", "t")) == Verdict.VIOLATED_FOREVER


def test_reach_plus_needs_a_step(fig2):
    obj = reach_plus("t")
    assert decided(obj, fig2.game, ("t",)) == Verdict.UNDECIDED
    assert decided(obj, fig2.game, ("t", "t")) == Verdict.SATISFIED_FOREVER
    # A target none of whose successors can reach the target is lost at once.
    g = Game.of([("t", "max", ("d",)), ("d", "max", ("d",))])
    assert decided(reach_plus("t"), g, ("t",)) == Verdict.VIOLATED_FOREVER


def test_decided_refuses_bad_prefixes_and_targets(fig2):
    obj = reach("t")
    for empty in ((), []):
        with pytest.raises(ValueError, match="a play prefix is non-empty"):
            decided(obj, fig2.game, empty)
    with pytest.raises(ValueError, match=re.escape("'i' -> 't' is not an edge")):
        decided(obj, fig2.game, ("i", "t"))
    with pytest.raises(ValueError, match=re.escape("target states not in game: ['nope']")):
        decided(reach("nope"), fig2.game, ("i",))
    for make in (reach, safety, reach_plus, buchi, cobuchi):
        with pytest.raises(ValueError, match="unknown state 'zzz'"):
            decided(make("t"), fig2.game, ("zzz",))
    with pytest.raises(ValueError, match="unknown state 'zzz'"):
        decided(obj, fig2.game, ("i", "s0", "zzz"))


def test_objectives_are_plain_values(fig2):
    # An objective carries no game: it hashes, equals the same objective
    # built again, and is used as it is with any game that has its targets.
    obj = reach("t")
    assert obj == reach("t") and hash(obj) == hash(reach("t"))
    assert len({obj, reach("t"), safety("t"), reach("t", steps=3)}) == 3
    small = Game.of([("a", "max", ("t", "a")), ("t", "max", ("t",))])
    assert decided(obj, fig2.game, ("i", "s0", "r0")) == Verdict.VIOLATED_FOREVER
    assert decided(obj, small, ("a", "t")) == Verdict.SATISFIED_FOREVER
    assert obj.verdicts(small) == obj.verdicts(small)
    assert obj == reach("t") and hash(obj) == hash(reach("t"))


def test_verdicts_are_monotone_along_prefixes():
    import random

    for seed in range(40):
        game, targets = random_game(seed, n=6)
        rng = random.Random(seed)
        start = rng.choice(game.states)
        prefix = [start]
        objectives = [
            reach(*targets),
            safety(*targets),
            buchi(*targets),
            cobuchi(*targets),
            reach_plus(*targets),
            Objective(ObjectiveKind.REACH_WITHIN, targets, 3),
        ]
        for _ in range(8):
            verdicts = [decided(o, game, prefix) for o in objectives]
            nxt = rng.choice(game.succ[prefix[-1]])
            prefix.append(nxt)
            for o, before in zip(objectives, verdicts):
                after = decided(o, game, prefix)
                if before is not Verdict.UNDECIDED:
                    assert after == before


def test_parse_objective_syntax():
    assert parse_objective("reach", "a,b").target == {"a", "b"}
    # A collection of ids is taken as it is: an id may hold a comma.
    assert parse_objective("reach", {"a,b"}).target == {"a,b"}
    assert parse_objective("reach<=5", "a").steps == 5
    assert parse_objective("reachplus", "a").kind == ObjectiveKind.REACH_PLUS
    with pytest.raises(ValueError):
        parse_objective("zeno", "a")
    with pytest.raises(ValueError):
        parse_objective("reach", "")
    assert parse_objective("reach<=007", "a").steps == 7
    # int() would take a sign, underscores, spaces and non-ASCII digits.
    for bad in ("reach<=+3", "reach<=3_0", "reach<=\u0663", "reach<= 3", "reach<=-1",
                "reach<=x", "reach<="):
        with pytest.raises(ValueError, match=re.escape(f"objective {bad!r}")):
            parse_objective(bad, "a")


def test_bounding_sinks_per_kind():
    assert bounding_sinks(ObjectiveKind.REACH) == (SinkMode.PESSIMISTIC, SinkMode.OPTIMISTIC)
    assert bounding_sinks(ObjectiveKind.BUCHI) == (SinkMode.PESSIMISTIC, SinkMode.OPTIMISTIC)
    assert bounding_sinks(ObjectiveKind.SAFETY) == (SinkMode.OPTIMISTIC, SinkMode.PESSIMISTIC)
    assert bounding_sinks(ObjectiveKind.COBUCHI) == (SinkMode.OPTIMISTIC, SinkMode.PESSIMISTIC)


def test_reach_within_takes_integer_steps_only():
    import numpy as np

    with pytest.raises(TypeError):
        Objective(ObjectiveKind.REACH_WITHIN, frozenset({"goal"}), 2.5)
    with pytest.raises(TypeError):
        reach("goal", steps=2.5)
    g = gallery.build_ladder(2).game
    prefix = ("home", "q2", "q1", "c")
    bounded = Objective(ObjectiveKind.REACH_WITHIN, frozenset({"goal"}), np.int64(2))
    assert decided(bounded, g, prefix) == Verdict.VIOLATED_FOREVER
