"""Objectives over plays, their prefix semantics and dualization.

An objective is a kind plus a target set.  ``decided`` classifies a finite
play prefix: satisfied forever (every infinite extension satisfies the
objective), violated forever (no extension does), or undecided.  For the two
tail objectives a verdict is only emitted once the play has entered an
absorbing state, where membership of that state decides; any other bounded
horizon estimate is the simulator's job.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .graphs import attractor
from .model import Game, Owner, SinkMode, check_targets


class ObjectiveKind(Enum):
    REACH = "reach"
    REACH_WITHIN = "reach-within"
    REACH_PLUS = "reachplus"
    SAFETY = "safety"
    BUCHI = "buchi"
    COBUCHI = "cobuchi"


class Verdict(Enum):
    SATISFIED_FOREVER = "satisfied-forever"
    VIOLATED_FOREVER = "violated-forever"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class Objective:
    """An objective kind with its target set, optionally bound to a game.

    ``steps`` is the horizon of a bounded-reach objective; position 0 is the
    initial state, so a play starting in the target satisfies a 0-step bound.
    """

    kind: ObjectiveKind
    target: frozenset[str]
    steps: int | None = None
    game: Game | None = None

    def __post_init__(self):
        if (self.kind is ObjectiveKind.REACH_WITHIN) != (self.steps is not None):
            raise ValueError("steps is required exactly for bounded reach")
        if self.steps is not None and self.steps < 0:
            raise ValueError("steps must be non-negative")

    def bind(self, game: Game) -> "Objective":
        check_targets(game, self.target)
        return replace(self, game=game)


def reach(*target: str, steps: int | None = None) -> Objective:
    kind = ObjectiveKind.REACH_WITHIN if steps is not None else ObjectiveKind.REACH
    return Objective(kind, frozenset(target), steps)


def safety(*target: str) -> Objective:
    return Objective(ObjectiveKind.SAFETY, frozenset(target))


def buchi(*target: str) -> Objective:
    return Objective(ObjectiveKind.BUCHI, frozenset(target))


def cobuchi(*target: str) -> Objective:
    return Objective(ObjectiveKind.COBUCHI, frozenset(target))


def reach_plus(*target: str) -> Objective:
    return Objective(ObjectiveKind.REACH_PLUS, frozenset(target))


def dual(obj: Objective) -> Objective:
    """Reach <-> safety and Buchi <-> co-Buchi over the same target set."""
    pairs = {
        ObjectiveKind.REACH: ObjectiveKind.SAFETY,
        ObjectiveKind.SAFETY: ObjectiveKind.REACH,
        ObjectiveKind.BUCHI: ObjectiveKind.COBUCHI,
        ObjectiveKind.COBUCHI: ObjectiveKind.BUCHI,
    }
    if obj.kind not in pairs:
        raise ValueError(f"{obj.kind.value} has no dual here")
    return replace(obj, kind=pairs[obj.kind])


@dataclass(frozen=True)
class PlayPrefix:
    """A finite non-empty state sequence consistent with a game's edges."""

    states: tuple[str, ...]

    def __post_init__(self):
        if not self.states:
            raise ValueError("a play prefix is non-empty")

    def check_consistent(self, game: Game) -> None:
        for s, t in zip(self.states, self.states[1:]):
            if t not in game.succ[s]:
                raise ValueError(f"{s!r} -> {t!r} is not an edge")


def decided(obj: Objective, prefix: PlayPrefix) -> Verdict:
    """Verdict for a prefix: satisfied/violated by all extensions, or undecided."""
    game = obj.game
    if game is None:
        raise ValueError("objective is not bound to a game")
    prefix.check_consistent(game)
    states = prefix.states
    last = states[-1]
    hit = any(s in obj.target for s in states)
    kind = obj.kind

    if kind is ObjectiveKind.REACH:
        if hit:
            return Verdict.SATISFIED_FOREVER
        if last not in attractor(game, obj.target, tuple(Owner)):
            return Verdict.VIOLATED_FOREVER
        return Verdict.UNDECIDED
    if kind is ObjectiveKind.SAFETY:
        if hit:
            return Verdict.VIOLATED_FOREVER
        if last not in attractor(game, obj.target, tuple(Owner)):
            return Verdict.SATISFIED_FOREVER
        return Verdict.UNDECIDED
    if kind is ObjectiveKind.REACH_WITHIN:
        within = states[: obj.steps + 1]
        if any(s in obj.target for s in within):
            return Verdict.SATISFIED_FOREVER
        # Attractor layers of the target are the graph distances to it.
        distance: dict[str, int] = {}
        attractor(game, obj.target, tuple(Owner), layer=distance)
        remaining = obj.steps - (len(states) - 1)
        if distance.get(last, remaining + 1) > remaining:
            return Verdict.VIOLATED_FOREVER
        return Verdict.UNDECIDED
    if kind is ObjectiveKind.REACH_PLUS:
        if any(s in obj.target for s in states[1:]):
            return Verdict.SATISFIED_FOREVER
        # A prefix ending anywhere can still take >= 1 step, so only graph
        # unreachability rules the objective out.
        reachable = attractor(game, obj.target, tuple(Owner))
        if not any(t in reachable for t in game.succ[last]):
            return Verdict.VIOLATED_FOREVER
        return Verdict.UNDECIDED
    # Tail objectives: decide only at absorbing states.
    if game.is_absorbing(last):
        member = last in obj.target
        if kind is ObjectiveKind.BUCHI:
            return Verdict.SATISFIED_FOREVER if member else Verdict.VIOLATED_FOREVER
        return Verdict.VIOLATED_FOREVER if member else Verdict.SATISFIED_FOREVER
    return Verdict.UNDECIDED


def bounding_sinks(kind: ObjectiveKind) -> tuple[SinkMode, SinkMode]:
    """Which truncation sink bounds the maximizer's value from which side.

    Returns ``(lower, upper)``.  A sink outside every target set lower-bounds
    reach and Buchi values and upper-bounds safety and co-Buchi values; a sink
    inside every target set does the opposite.
    """
    if kind in (ObjectiveKind.REACH, ObjectiveKind.REACH_PLUS,
                ObjectiveKind.REACH_WITHIN, ObjectiveKind.BUCHI):
        return SinkMode.PESSIMISTIC, SinkMode.OPTIMISTIC
    if kind in (ObjectiveKind.SAFETY, ObjectiveKind.COBUCHI):
        return SinkMode.OPTIMISTIC, SinkMode.PESSIMISTIC
    raise ValueError(f"no sink bounding rule for {kind}")


def parse_objective(kind: str, target_csv: str) -> Objective:
    """CLI objective syntax: reach|safety|buchi|cobuchi|reachplus|reach<=N."""
    target = frozenset(t for t in target_csv.split(",") if t)
    if not target:
        raise ValueError("empty target set")
    if kind.startswith("reach<="):
        return Objective(ObjectiveKind.REACH_WITHIN, target, int(kind[len("reach<="):]))
    try:
        return Objective(
            {
                "reach": ObjectiveKind.REACH,
                "safety": ObjectiveKind.SAFETY,
                "buchi": ObjectiveKind.BUCHI,
                "cobuchi": ObjectiveKind.COBUCHI,
                "reachplus": ObjectiveKind.REACH_PLUS,
            }[kind],
            target,
        )
    except KeyError:
        raise ValueError(f"unknown objective {kind!r}") from None
