"""Objectives over plays, their prefix semantics and dualization.

An objective is a kind plus a target set.  Objectives are events over
infinite plays, so a finite prefix is satisfied forever (every extension
satisfies the objective), violated forever (none does) or undecided: the
first decided code along it in the objective's :class:`VerdictTable` on the
game.  ``decided`` and the simulator read that one table, built from the
objective and the game by :meth:`Objective.verdicts` in one attractor run
whose layers are the graph distances to the target.  At step ``k`` a state
is:

* for reach, reachplus and reach<=N: won if a target, lost if the target is
  out of reach (safety: the other way round);
* for reach<=N: also lost if its distance is above ``N - k``;
* for reachplus at step 0: lost only if no successor can reach the target;
* for Buchi and co-Buchi: decided only if absorbing, won if a target
  (co-Buchi: the other way round).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .graphs import attractor
from .model import Game, Owner, SinkMode, _as_int, check_state, check_targets


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
class VerdictTable:
    """Per-state verdict codes: 0 undecided, 1 violated forever, 2 satisfied
    forever.  ``first`` holds those at step 0, ``later`` those at later steps
    and, for reach<=N only, ``lost_from`` the step from which a play standing
    in a state has lost."""

    first: dict[str, int]
    later: dict[str, int]
    lost_from: dict[str, int] | None = None

    def code(self, state: str, step: int) -> int:
        """The code of a play standing in ``state`` at ``step``."""
        if self.lost_from is not None and step >= self.lost_from[state]:
            return 1
        return (self.later if step else self.first)[state]


@dataclass(frozen=True)
class Objective:
    """An objective kind with its target set: a plain value, used with any
    game.

    ``steps`` is the horizon of a bounded-reach objective; position 0 is the
    initial state, so a play starting in the target satisfies a 0-step bound.
    It must be an integer, and is stored as an ``int``: a float or a
    ``bool`` raises ``TypeError``.
    """

    kind: ObjectiveKind
    target: frozenset[str]
    steps: int | None = None

    def __post_init__(self):
        if (self.kind is ObjectiveKind.REACH_WITHIN) != (self.steps is not None):
            raise ValueError("steps is required exactly for bounded reach")
        if self.steps is not None:
            object.__setattr__(self, "steps", _as_int("steps", self.steps))
            if self.steps < 0:
                raise ValueError("steps must be non-negative")

    def verdicts(self, game: Game) -> VerdictTable:
        """The verdict table of this objective on ``game``.  A target that is
        not a state of ``game`` raises ``ValueError``."""
        check_targets(game, self.target)
        kind, target, states = self.kind, self.target, game.states
        if kind in (ObjectiveKind.BUCHI, ObjectiveKind.COBUCHI):
            wins = kind is ObjectiveKind.BUCHI
            codes = {s: (2 if (s in target) == wins else 1) if game.is_absorbing(s) else 0
                     for s in states}
            return VerdictTable(codes, codes)
        # Attractor layers of the target are the graph distances to it.
        distance: dict[str, int] = {}
        attractor(game, target, tuple(Owner), layer=distance)
        at_target, out_of_reach = (1, 2) if kind is ObjectiveKind.SAFETY else (2, 1)
        later = {s: at_target if s in target else 0 if s in distance else out_of_reach
                 for s in states}
        first = later
        if kind is ObjectiveKind.REACH_PLUS:
            first = {s: 0 if any(t in distance for t in game.succ[s]) else 1 for s in states}
        lost_from = None
        if self.steps is not None:
            lost_from = {s: self.steps + 1 - distance.get(s, self.steps + 1) for s in states}
        return VerdictTable(first, later, lost_from)


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


def decided(obj: Objective, game: Game, prefix: Sequence[str]) -> Verdict:
    """Verdict for a prefix, a non-empty tuple or list of states along the
    edges of ``game``: the first decided code of ``obj.verdicts(game)`` along
    it.  A string is not read as a sequence of one-letter states: it raises
    ``TypeError``."""
    if isinstance(prefix, str):
        raise TypeError(f"a play prefix is a tuple or list of states, not the string {prefix!r}")
    if not prefix:
        raise ValueError("a play prefix is non-empty")
    table = obj.verdicts(game)
    for s in prefix:
        check_state(game, s)
    for s, t in zip(prefix, prefix[1:]):
        if t not in game.succ[s]:
            raise ValueError(f"{s!r} -> {t!r} is not an edge")
    for step, s in enumerate(prefix):
        code = table.code(s, step)
        if code:
            return (Verdict.UNDECIDED, Verdict.VIOLATED_FOREVER, Verdict.SATISFIED_FOREVER)[code]
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


def parse_objective(kind: str, target) -> Objective:
    """CLI objective syntax: reach|safety|buchi|cobuchi|reachplus|reach<=N.
    ``target`` is comma-separated ids, or a collection of ids taken as they
    are, so that an id may hold a comma."""
    target = frozenset(target.split(",") if isinstance(target, str) else target) - {""}
    if not target:
        raise ValueError("empty target set")
    if kind.startswith("reach<="):
        steps = kind[len("reach<="):]
        if not (steps.isascii() and steps.isdigit()):
            raise ValueError(f"objective {kind!r}: N in reach<=N must be ASCII digits")
        return Objective(ObjectiveKind.REACH_WITHIN, target, int(steps))
    # The other CLI names are the kinds' own values.
    if kind not in ("reach", "safety", "buchi", "cobuchi", "reachplus"):
        raise ValueError(f"unknown objective {kind!r}")
    return Objective(ObjectiveKind(kind), target)
