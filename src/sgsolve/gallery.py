"""Builders for the example games the solvers are exercised on.

``fig2`` is a two-sided ladder game: a fair coin sends the play either into
a maximizer ladder (climb, then take a random exit worth 1 - 2^-i) or into a
minimizer ladder of Buchi states (delay, then take an exit that reaches the
absorbing Buchi state with probability 2^-i).  Neither player has an optimal
strategy in the full countable game; finite truncations of it are where most
of the pinned values in the tests come from.

``ladder`` is a finite escalation family: k levels guard a leaky coin-flip
chain, the almost-sure-reach peeling strips exactly one level per round, and
the only almost-surely winning choice is the direct move to the target.  The
level values 1 - 2^-(j+1) approach one as the tower grows, the finite shadow
of the countable original where they all equal one.

``ruin`` is the gambler's-ruin birth-death chain, and ``fig2u`` extends a
fig2 truncation with a minimizer state u whose optimal-value choice differs
from its winning choice in the limit game.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .model import (Game, LazyGame, Owner, SinkMode, StateInfo, Truncation, _as_fraction, _as_int,
                    truncate)

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class GalleryGame:
    """A built example: the finite game plus its canonical annotations."""

    game: Game
    initial: str
    targets: frozenset[str]
    buchi: frozenset[str]
    truncation: Truncation | None = None


def _fig2_expand(sid: str) -> StateInfo:
    if sid == "i":
        return StateInfo(Owner.RANDOM, ("s0", "sp0"), (HALF, HALF))
    if sid == "t":
        return StateInfo(Owner.MAX, ("t",), labels=frozenset({"target", "buchi"}))
    if sid == "r0":
        return StateInfo(Owner.RANDOM, ("r0",), (Fraction(1),))
    if sid == "rp0":
        return StateInfo(Owner.RANDOM, ("rp0",), (Fraction(1),))
    m = re.fullmatch(r"s(\d+)", sid)
    if m:
        j = int(m.group(1))
        return StateInfo(Owner.MAX, (f"s{j + 1}", f"r{j}"))
    m = re.fullmatch(r"r(\d+)", sid)
    if m:
        j = int(m.group(1))
        return StateInfo(Owner.RANDOM, ("t", f"r{j - 1}"), (HALF, HALF))
    m = re.fullmatch(r"sp(\d+)", sid)
    if m:
        j = int(m.group(1))
        succs = (f"sp{j + 1}", f"rp{j}") if j >= 1 else (f"sp{j + 1}",)
        return StateInfo(Owner.MIN, succs, labels=frozenset({"buchi"}))
    m = re.fullmatch(r"rp(\d+)", sid)
    if m:
        j = int(m.group(1))
        hit = Fraction(1, 2**j)
        return StateInfo(Owner.RANDOM, ("t", "rp0"), (hit, 1 - hit))
    raise KeyError(sid)


def fig2_lazy() -> LazyGame:
    """The countable two-sided ladder game as a lazy generator."""
    return LazyGame("i", _fig2_expand, branching_bound=2)


def build_fig2(depth: int, mode: SinkMode = SinkMode.PESSIMISTIC) -> GalleryGame:
    """A depth-bounded truncation of the two-sided ladder game."""
    trunc = truncate(fig2_lazy(), depth)
    return GalleryGame(
        game=trunc.game,
        initial="i",
        targets=trunc.label_set("target", mode),
        buchi=trunc.label_set("buchi", mode),
        truncation=trunc,
    )


def build_fig2_with_u(depth: int, mode: SinkMode = SinkMode.PESSIMISTIC) -> GalleryGame:
    """A fig2 truncation plus a minimizer state u with moves to s0 and t.

    On every finite truncation u's strict optimal-minimizing move is s0 (its
    value 1 - 2^-(depth-2) is below t's value 1); the two become equally
    valuable only in the depth limit.
    """
    if depth < 4:
        raise ValueError("need depth >= 4 so that s0 and t exist")
    base = build_fig2(depth, mode)
    owner = dict(base.game.owner)
    succ = dict(base.game.succ)
    owner["u"] = Owner.MIN
    succ["u"] = ("s0", "t")
    return GalleryGame(
        game=Game(owner, succ, dict(base.game.prob)),
        initial="u",
        targets=base.targets,
        buchi=base.buchi,
        truncation=base.truncation,
    )


def build_ladder(k: int) -> GalleryGame:
    """The k-level escalation family.

    Level 0 is a random state flipping a fair coin between the target and an
    absorbing dead end; level j pairs a maximizer state (move within the
    level or drop one level) with a random state that escapes to the target
    or drops.  A distinguished state ``home`` owns the only almost-surely
    winning move, straight to the target; the peeling removes one level per
    round, k+1 rounds in total.
    """
    k = _as_int("k", k)
    if k < 1:
        raise ValueError("need at least one level")
    rows: list[tuple] = [
        ("goal", Owner.MAX, ("goal",)),
        ("dead", Owner.MAX, ("dead",)),
        ("c", Owner.RANDOM, ("goal", "dead"), (HALF, HALF)),
    ]
    for j in range(1, k + 1):
        drop = "c" if j == 1 else f"q{j - 1}"
        rows.append((f"x{j}", Owner.RANDOM, ("goal", drop), (HALF, HALF)))
        rows.append((f"q{j}", Owner.MAX, (f"x{j}", drop)))
    rows.append(("home", Owner.MAX, ("goal", f"q{k}")))
    return GalleryGame(
        game=Game.of(rows),
        initial="home",
        targets=frozenset({"goal"}),
        buchi=frozenset({"goal"}),
    )


def build_gamblers_ruin(p, cap: int) -> GalleryGame:
    """The ruin chain on 0..cap: win a unit with probability p, lose one
    otherwise; 0 (ruin, the target) and cap are absorbing.  States below
    cap are the rows of :func:`gamblers_ruin_lazy`."""
    expand = gamblers_ruin_lazy(p).expand
    cap = _as_int("cap", cap)
    if cap < 2:
        raise ValueError("cap must be at least 2")
    below = [f"w{w}" for w in range(cap)]
    rows = [(s, st.owner, st.successors, st.weights) for s, st in zip(below, map(expand, below))]
    rows.append((f"w{cap}", Owner.RANDOM, (f"w{cap}",), (Fraction(1),)))
    return GalleryGame(
        game=Game.of(rows),
        initial="w1",
        targets=frozenset({"w0"}),
        buchi=frozenset(),
    )


def gamblers_ruin_lazy(p) -> LazyGame:
    """The unbounded ruin chain, for truncation-certified interval bounds."""
    p = _as_fraction(p)
    if not 0 < p < 1:
        raise ValueError("p must be strictly between 0 and 1")

    def expand(sid: str) -> StateInfo:
        m = re.fullmatch(r"w(\d+)", sid)
        if not m:
            raise KeyError(sid)
        w = int(m.group(1))
        if w == 0:
            return StateInfo(Owner.RANDOM, ("w0",), (Fraction(1),), frozenset({"target"}))
        return StateInfo(Owner.RANDOM, (f"w{w + 1}", f"w{w - 1}"), (p, 1 - p))

    return LazyGame("w1", expand, branching_bound=2)

