"""Turn-based stochastic game graphs.

A finite game has three kinds of states: maximizer states, minimizer states
and random states.  Successor lists are ordered and duplicate-free; every
tie-break elsewhere in the package is "first in list order", so a game's
declaration order fully determines every solver output.

Countable games are represented lazily by a successor generator
(:class:`LazyGame`) and made finite by breadth-first truncation with an
absorbing sink (:func:`truncate`).  Games and truncations are immutable after
construction and safe to share between threads; a lazy game's ``expand``
callback must be pure and reentrant.
"""

from __future__ import annotations

import numbers
import re
from collections import deque
from collections.abc import Callable, Container, Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import lcm


class Owner(Enum):
    """Who moves at a state."""

    MAX = "max"
    MIN = "min"
    RANDOM = "rand"


class SgsolveError(Exception):
    """Base of the errors sgsolve raises on purpose; each subclass also keeps
    a ``ValueError`` (bad input) or ``RuntimeError`` (failed computation) base."""


_RATIONAL = re.compile(r"([0-9]+)(?:/([0-9]*[1-9][0-9]*))?")


def _as_fraction(w) -> Fraction:
    """The one reader of exact rationals (``Game.of`` weights, ``truncate``'s
    expansion weights and the library's rational arguments): a ``Fraction``,
    returned as it is, so that reading one costs nothing; an ``int``; or text
    ``p`` or ``p/q`` in ASCII digits with ``q >= 1``.  Malformed text raises
    ``ValueError``; anything else (a float or a ``bool``, say) raises
    ``TypeError``."""
    if isinstance(w, Fraction):
        return w
    if isinstance(w, int) and not isinstance(w, bool):
        return Fraction(w)
    if isinstance(w, str):
        match = _RATIONAL.fullmatch(w)
        if not match:
            raise ValueError(f"malformed rational {w!r}: expected p or p/q with q >= 1")
        # From the matched digits: ``Fraction(w)`` would parse the text again.
        p, q = match.groups()
        return Fraction(int(p), int(q or 1))
    raise TypeError(f"not an exact rational weight: {w!r}")


def _as_int(name: str, value) -> int:
    """The one reader of integer arguments (depths, step bounds, sample
    counts, seeds): an ``int`` or a numpy integer, returned as an ``int``.
    A ``bool`` or a non-integer raises ``TypeError`` naming ``name``."""
    # numpy registers its integer types as ``numbers.Integral``, so this
    # needs no numpy import.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an int, not {value!r}")
    return int(value)


@dataclass(frozen=True)
class Game:
    """A finite turn-based stochastic game graph.

    ``owner`` maps each state to its kind, ``succ`` to its ordered successor
    list, and ``prob`` gives, for each random state, exact positive rational
    weights aligned with its successor list and summing to one.  State order
    is the insertion order of ``owner``.
    """

    owner: dict[str, Owner]
    succ: dict[str, tuple[str, ...]]
    prob: dict[str, tuple[Fraction, ...]]

    @property
    def states(self) -> tuple[str, ...]:
        return tuple(self.owner)

    def distribution(self, s: str) -> tuple[tuple[str, Fraction], ...]:
        """Successor/weight pairs of a random state."""
        return tuple(zip(self.succ[s], self.prob[s]))

    def is_absorbing(self, s: str) -> bool:
        return self.succ[s] == (s,)

    @property
    def predecessors(self) -> dict[str, list[str]]:
        """Predecessor lists of every state, built on first use and kept.

        Not a ``functools.cached_property``: that writes through the
        instance ``__dict__``, which on CPython 3.11 takes the game off the
        fast attribute path and slows every later ``succ`` and ``owner``
        lookup in the solvers' inner loops.
        """
        preds = getattr(self, "_predecessors", None)
        if preds is None:
            preds = {s: [] for s in self.owner}
            for s in self.owner:
                for t in self.succ[s]:
                    preds[t].append(s)
            object.__setattr__(self, "_predecessors", preds)
        return preds

    @classmethod
    def of(cls, rows: Iterable[Sequence]) -> "Game":
        """Build a game from rows ``(id, owner, successors[, weights])``.

        ``owner`` may be an :class:`Owner` or one of ``"max"/"min"/"rand"``;
        weights are required exactly for random states and may be ints,
        ``Fraction`` values or strings like ``"1/2"``.
        """
        owner: dict[str, Owner] = {}
        succ: dict[str, tuple[str, ...]] = {}
        prob: dict[str, tuple[Fraction, ...]] = {}
        for row in rows:
            sid, who = row[0], row[1]
            who = who if isinstance(who, Owner) else Owner(who)
            if sid in owner:
                raise ValueError(f"duplicate state {sid!r}")
            owner[sid] = who
            succ[sid] = tuple(row[2])
            if who is Owner.RANDOM:
                if len(row) < 4 or row[3] is None:
                    raise ValueError(f"random state {sid!r} needs weights")
                prob[sid] = tuple(_as_fraction(w) for w in row[3])
            elif len(row) >= 4 and row[3] is not None:
                raise ValueError(f"owned state {sid!r} must not carry weights")
        return cls(owner, succ, prob)


def check_state(game: Game, state: str) -> None:
    """Raise ``ValueError`` unless ``state`` is a state of ``game``."""
    if state not in game.owner:
        raise ValueError(f"unknown state {state!r}")


def check_targets(game: Game, targets) -> set[str]:
    """``targets`` as a set, after checking that each is a state of ``game``."""
    targets = set(targets)
    stray = targets - game.owner.keys()
    if stray:
        raise ValueError(f"target states not in game: {sorted(stray)}")
    return targets


def swap_roles(game: Game) -> Game:
    """The same graph with maximizer and minimizer exchanged."""
    flipped = {
        s: (Owner.MIN if o is Owner.MAX else Owner.MAX if o is Owner.MIN else o)
        for s, o in game.owner.items()
    }
    return Game(flipped, dict(game.succ), dict(game.prob))


def sink_subgame(game: Game, kept: Container[str]) -> Game:
    """The subgame on ``kept`` with every edge leaving it sent to one
    absorbing maximizer sink, added last.

    The sink is named ``sink``, with underscores appended until the name is
    not a state of ``game``.
    Parallel redirected edges are merged (weights summed for random states),
    so successor lists stay duplicate-free.  Successors outside ``game`` are
    allowed: they are redirected like any other state outside ``kept``.
    """
    sink = "sink"
    while sink in game.owner:
        sink += "_"
    owner: dict[str, Owner] = {}
    succ: dict[str, tuple[str, ...]] = {}
    prob: dict[str, tuple[Fraction, ...]] = {}
    for s, who in game.owner.items():
        if s not in kept:
            continue
        owner[s] = who
        out = game.succ[s]
        stay = [i for i, t in enumerate(out) if t in kept]
        leaves = len(stay) < len(out)
        succ[s] = tuple(out[i] for i in stay) + (sink,) * leaves
        if who is Owner.RANDOM:
            w = game.prob[s]
            lost = sum((w[i] for i, t in enumerate(out) if t not in kept), Fraction(0))
            prob[s] = tuple(w[i] for i in stay) + (lost,) * leaves
    owner[sink] = Owner.MAX
    succ[sink] = (sink,)
    return Game(owner, succ, prob)


@dataclass(frozen=True)
class Violation:
    """One structural defect found by :func:`validate`."""

    kind: str  # dead-end | weight-sum | weight-shape | nonpositive-weight | dangling-id | duplicate-edge
    state: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.state}: {self.detail}"


def validate(game: Game) -> list[Violation]:
    """Check the game invariants; an empty list means the game is well formed.

    Violations are data, not exceptions: dead ends, random weights that do
    not sum to one (or are not positive), successor ids that are not states,
    and duplicate successor entries.  They come state by state in
    declaration order and, within a state, in the order of the checks in
    :func:`_violations`.
    """
    return _violations(game, game.owner.keys())


def _violations(game: Game, known) -> list[Violation]:
    """:func:`validate`'s one pass, with ``known`` (a set or keys view) the
    ids a successor may name.

    Each state is checked once.  Two set operations accept a successor list
    that is non-empty, repeats no id and names only known ids; only a list
    that fails them is walked edge by edge.  At a random state one loop
    reads each weight once through ``as_integer_ratio``, reports a
    nonpositive one and sums them on integers over the lcm of their
    denominators; the ``Fraction`` total is built only for the message.
    """
    out: list[Violation] = []
    succ, prob = game.succ, game.prob
    for s, kind in game.owner.items():
        succs = succ.get(s, ())
        if not succs:
            out.append(Violation("dead-end", s, "state has no successor"))
        elif len(distinct := set(succs)) < len(succs) or not known >= distinct:
            seen = set()
            for t in succs:
                if t not in known:
                    out.append(Violation("dangling-id", s, f"successor {t!r} is not a state"))
                if t in seen:
                    out.append(Violation("duplicate-edge", s, f"successor {t!r} listed twice"))
                seen.add(t)
        if kind is not Owner.RANDOM:
            continue
        weights = prob.get(s, ())
        if len(weights) != len(succs):
            detail = f"{len(weights)} weights for {len(succs)} successors"
            out.append(Violation("weight-shape", s, detail))
            continue
        # The sum so far is num / den, den the lcm of the denominators.
        num, den = 0, 1
        for w in weights:
            p, q = w.as_integer_ratio()
            # A rational's sign is its numerator's.
            if p <= 0:
                out.append(Violation("nonpositive-weight", s, f"weight {w} is not positive"))
            scale = lcm(den, q)
            num, den = num * (scale // den) + p * (scale // q), scale
        if succs and num != den:
            detail = f"weights sum to {Fraction(num, den)}, expected 1"
            out.append(Violation("weight-sum", s, detail))
    return out


@dataclass(frozen=True)
class StateInfo:
    """What a lazy game's ``expand`` returns for one state.

    ``labels`` carries per-state objective membership flags (for example
    ``{"target"}`` or ``{"buchi"}``) so a truncation yields target sets
    without materializing the full game.  ``weights`` holds one weight per
    successor at a random state and is ``None`` at an owned one.
    """

    owner: Owner
    successors: tuple[str, ...]
    weights: tuple[Fraction, ...] | None = None
    labels: frozenset[str] = frozenset()


@dataclass(frozen=True)
class LazyGame:
    """A countable, finitely branching game given by a successor generator.

    ``expand`` must be deterministic: repeated calls on the same id return
    identical results.  When ``branching_bound`` is set, no expansion may
    return a longer successor list.
    """

    initial: str
    expand: Callable[[str], StateInfo]
    branching_bound: int | None = None


class TruncationError(SgsolveError, RuntimeError):
    """Raised when an expansion diverges (empty or over-bound successor list)
    or is malformed (weights that do not fit its owner and successors, or a
    row that :func:`validate` would reject: a successor listed twice or a
    weight that is not positive or does not sum to one, at any depth)."""


class InvariantError(SgsolveError, RuntimeError):
    """A fact that a result rests on does not hold: a defect, not bad input.

    Raised where an ``assert`` would do, because ``python -O`` strips those.
    """


class SinkMode(Enum):
    """How the truncation sink is labelled.

    The pessimistic sink is absorbing and belongs to no label set; the
    optimistic sink is absorbing and belongs to every label set.  Which sink
    bounds which side of an objective is decided by the objectives module.
    """

    PESSIMISTIC = "pessimistic"
    OPTIMISTIC = "optimistic"


@dataclass(frozen=True)
class Truncation:
    """A finite window of a lazy game with an absorbing sink at the frontier.

    ``game`` contains every state reachable from the lazy game's initial
    state within ``depth`` steps plus ``sink``; ``frontier`` holds the ids of
    the states that were replaced by the sink.  ``labels`` maps each label
    seen during expansion to its member set; the sink is in none of them.
    """

    depth: int
    game: Game
    sink: str
    frontier: frozenset[str]
    labels: dict[str, frozenset[str]] = field(default_factory=dict)

    def label_set(self, label: str, sink: SinkMode) -> frozenset[str]:
        """The members of ``label``, with the sink in optimistic mode."""
        members = self.labels.get(label, frozenset())
        if sink is SinkMode.OPTIMISTIC:
            return members | {self.sink}
        return members


def truncate(base: LazyGame, depth: int) -> Truncation:
    """Expand ``base`` breadth-first to ``depth`` steps and close it off.

    Every edge that leaves the expanded set is redirected to a single
    absorbing sink; parallel redirected edges are merged (weights summed for
    random states) to keep successor lists duplicate-free.  ``depth`` must
    be an integer: a float or a ``bool`` raises ``TypeError``.  Expansion
    weights are read like ``Game.of``'s (:func:`_as_fraction`): a float
    raises ``TypeError`` and ``p/q`` text is read.

    A malformed expansion raises :class:`TruncationError` naming the state.
    Divergence and weights that do not fit the owner are refused during the
    walk; :func:`validate`'s checks run once, after it, on the rows as
    ``expand`` returned them, with the ids just outside the window counted as
    states, so a row is refused the same way at every depth.  The redirected
    window is not checked again: merging edges into the sink keeps every
    weight positive and every sum at one, and adds no repeat, dead end or
    dangling id.
    """
    depth = _as_int("depth", depth)
    if depth < 0:
        raise ValueError("depth must be non-negative")
    info: dict[str, StateInfo] = {}
    prob: dict[str, tuple[Fraction, ...]] = {}
    # Every id met, the frontier's (at depth + 1) too, so that a successor
    # outside the window counts as known.
    dist = {base.initial: 0}
    queue = deque([base.initial])
    while queue:
        s = queue.popleft()
        st = info[s] = base.expand(s)
        if not st.successors:
            raise TruncationError(f"expand({s!r}) returned no successors")
        if base.branching_bound is not None and len(st.successors) > base.branching_bound:
            raise TruncationError(
                f"expand({s!r}) returned {len(st.successors)} successors, "
                f"bound is {base.branching_bound}"
            )
        if st.owner is Owner.RANDOM:
            if st.weights is None or len(st.weights) != len(st.successors):
                raise TruncationError(f"expand({s!r}) returned {len(st.weights or ())} weights "
                                      f"for {len(st.successors)} successors")
            prob[s] = tuple(map(_as_fraction, st.weights))
        elif st.weights is not None:
            raise TruncationError(f"expand({s!r}) returned weights for an owned state")
        for t in st.successors:
            if t not in dist:
                dist[t] = dist[s] + 1
                if dist[t] <= depth:
                    queue.append(t)

    window = Game({s: st.owner for s, st in info.items()},
                  {s: st.successors for s, st in info.items()}, prob)
    # Before ``sink_subgame``, whose merged edges would hide a repeat or a bad
    # weight on the edges that leave the window.
    violations = _violations(window, dist.keys())
    if violations:
        raise TruncationError(f"malformed expansion: {violations[0]}")
    game = sink_subgame(window, info)
    labels: dict[str, set[str]] = {}
    for s, st in info.items():
        for lab in st.labels:
            labels.setdefault(lab, set()).add(s)
    return Truncation(
        depth=depth,
        game=game,
        sink=next(reversed(game.owner)),
        frontier=frozenset(dist.keys() - info.keys()),
        labels={lab: frozenset(members) for lab, members in labels.items()},
    )
