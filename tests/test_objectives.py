"""Objective semantics on play prefixes, CLI syntax."""

import re

import pytest
from conftest import random_game

from sgsolve import (
    Game,
    Objective,
    ObjectiveKind,
    PlayPrefix,
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
    obj = reach("t").bind(fig2.game)
    hit = PlayPrefix(("i", "s0", "s1", "r1", "t"))
    assert decided(obj, hit) == Verdict.SATISFIED_FOREVER
    still_open = PlayPrefix(("i", "s0", "s1", "r1"))
    assert decided(obj, still_open) == Verdict.UNDECIDED


def test_reach_violated_when_target_unreachable(fig2):
    obj = reach("t").bind(fig2.game)
    assert decided(obj, PlayPrefix(("i", "s0", "r0"))) == Verdict.VIOLATED_FOREVER
    assert decided(obj, PlayPrefix(("i", "s0"))) == Verdict.UNDECIDED


def test_reach_within_violated_after_horizon():
    g = gallery.build_ladder(2).game
    obj = Objective(ObjectiveKind.REACH_WITHIN, frozenset({"goal"}), 2).bind(g)
    prefix = PlayPrefix(("home", "q2", "q1", "c"))  # four states, none the goal
    assert decided(obj, prefix) == Verdict.VIOLATED_FOREVER


def test_reach_within_zero_steps_is_initial_membership():
    g = gallery.build_ladder(1).game
    obj = Objective(ObjectiveKind.REACH_WITHIN, frozenset({"goal"}), 0).bind(g)
    assert decided(obj, PlayPrefix(("goal",))) == Verdict.SATISFIED_FOREVER
    assert decided(obj, PlayPrefix(("home",))) == Verdict.VIOLATED_FOREVER


def test_buchi_decided_only_at_absorbing_states(fig2):
    obj = buchi(*fig2.buchi).bind(fig2.game)
    wandering = PlayPrefix(("i", "sp0", "sp1"))
    assert decided(obj, wandering) == Verdict.UNDECIDED
    dead = PlayPrefix(("i", "sp0", "sp1", "rp1", "rp0"))
    assert decided(obj, dead) == Verdict.VIOLATED_FOREVER
    won = PlayPrefix(("i", "s0", "s1", "r1", "t"))
    assert decided(obj, won) == Verdict.SATISFIED_FOREVER


def test_cobuchi_flips_absorbing_verdicts(fig2):
    obj = cobuchi(*fig2.buchi).bind(fig2.game)
    assert decided(obj, PlayPrefix(("i", "sp0", "sp1", "rp1", "rp0"))) == Verdict.SATISFIED_FOREVER
    assert decided(obj, PlayPrefix(("i", "s0", "s1", "r1", "t"))) == Verdict.VIOLATED_FOREVER


def test_reach_plus_needs_a_step(fig2):
    obj = reach_plus("t").bind(fig2.game)
    assert decided(obj, PlayPrefix(("t",))) == Verdict.UNDECIDED
    assert decided(obj, PlayPrefix(("t", "t"))) == Verdict.SATISFIED_FOREVER
    # A target none of whose successors can reach the target is lost at once.
    g = Game.of([("t", "max", ("d",)), ("d", "max", ("d",))])
    assert decided(reach_plus("t").bind(g), PlayPrefix(("t",))) == Verdict.VIOLATED_FOREVER


def test_unbound_objective_and_bad_prefix(fig2):
    with pytest.raises(ValueError):
        decided(reach("t"), PlayPrefix(("t",)))
    obj = reach("t").bind(fig2.game)
    with pytest.raises(ValueError):
        decided(obj, PlayPrefix(("i", "t")))  # not an edge
    with pytest.raises(ValueError):
        reach("nope").bind(fig2.game)
    for make in (reach, safety, reach_plus, buchi, cobuchi):
        with pytest.raises(ValueError, match="unknown state 'zzz'"):
            decided(make("t").bind(fig2.game), PlayPrefix(("zzz",)))
    with pytest.raises(ValueError, match="unknown state 'zzz'"):
        decided(obj, PlayPrefix(("i", "s0", "zzz")))


def test_verdicts_are_monotone_along_prefixes():
    import random

    for seed in range(40):
        game, targets = random_game(seed, n=6)
        rng = random.Random(seed)
        start = rng.choice(game.states)
        prefix = [start]
        objectives = [
            reach(*targets).bind(game),
            safety(*targets).bind(game),
            buchi(*targets).bind(game),
            cobuchi(*targets).bind(game),
            reach_plus(*targets).bind(game),
            Objective(ObjectiveKind.REACH_WITHIN, targets, 3).bind(game),
        ]
        for _ in range(8):
            verdicts = [decided(o, PlayPrefix(tuple(prefix))) for o in objectives]
            nxt = rng.choice(game.succ[prefix[-1]])
            prefix.append(nxt)
            for o, before in zip(objectives, verdicts):
                after = decided(o, PlayPrefix(tuple(prefix)))
                if before is not Verdict.UNDECIDED:
                    assert after == before


def test_parse_objective_syntax():
    assert parse_objective("reach", "a,b").kind == ObjectiveKind.REACH
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
    prefix = PlayPrefix(("home", "q2", "q1", "c"))
    bounded = Objective(ObjectiveKind.REACH_WITHIN, frozenset({"goal"}), np.int64(2)).bind(g)
    assert decided(bounded, prefix) == Verdict.VIOLATED_FOREVER
