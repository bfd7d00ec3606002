"""Strategy representations and memoryless deterministic constructions.

Every finite reach-type question uses one construction per player.  The
minimizer takes the first successor of least reach value.  The maximizer
takes the first successor of greatest value and, among those, least progress
rank, so that value-preserving cycles that never cash out are avoided.  Off
the target that successor keeps the state's value; at a target it attains
the revisit value, so the same choices serve "reach after one step".  The
rank is a layered backward closure from the states where the value resolves
(targets, zero states, and random states whose support straddles value
levels), computed over value-preserving edges with an existential step for
maximizer and random states and a universal step for minimizer states.  Both
are optimal from every state of a finite game, value-decreasing moves or
not.  The maximizer's almost-sure Buchi half is the same rule on the
indicator values of its winning region, with the region's Buchi states as
targets.  Every construction is validated in the test suite by fixing the
strategy and re-solving the residual one-player game exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import winning
from .exact import solve_reach_exact
from .graphs import attractor
from .model import Game, InvariantError, Owner, SgsolveError, _as_fraction, check_state
from .textio import _check_ids, _tokens

ONE = Fraction(1)


@dataclass(frozen=True)
class MDStrategy:
    """A memoryless deterministic strategy: one successor per owned state."""

    owner: Owner
    choice: dict[str, str]

    def check(self, game: Game) -> None:
        """Raise ``ValueError`` unless there is exactly one choice, along an
        edge, at every state the owner controls, and none elsewhere."""
        for s in self.choice:
            if game.owner.get(s) is not self.owner:
                raise ValueError(f"choice at {s}, which is not a {self.owner.value} state")
        for s in game.states:
            if game.owner[s] is self.owner:
                if s not in self.choice:
                    raise ValueError(f"no choice at {s}")
                if self.choice[s] not in game.succ[s]:
                    raise ValueError(f"choice {s} -> {self.choice[s]} is not an edge")


@dataclass(frozen=True)
class TransducerStrategy:
    """A finite-memory randomized strategy as a probabilistic transducer.

    ``update`` maps (mode, observed state) to a distribution over modes and
    may omit pairs, which means the mode is kept.  ``choose`` maps (mode,
    owned state) to a distribution over successors and must be total: every
    mode needs a row at every state the strategy's owner controls.
    """

    owner: Owner
    modes: tuple[str, ...]
    initial: str
    update: dict[tuple[str, str], dict[str, Fraction]] = field(default_factory=dict)
    choose: dict[tuple[str, str], dict[str, Fraction]] = field(default_factory=dict)

    def check(self, game: Game) -> None:
        """:meth:`check_rows`, and a successor row for every mode at every owned state."""
        self.check_rows(game)
        for mode in self.modes:
            for s in game.states:
                if game.owner[s] is self.owner and (mode, s) not in self.choose:
                    raise ValueError(f"no successor row for mode {mode} at {s}")

    def check_rows(self, game: Game) -> None:
        """Raise ``ValueError`` unless every row is a distribution (positive
        weights summing to one) over modes or over the state's successors,
        update rows sit at states of the game and successor rows at states
        the owner controls.  Rows may be missing."""
        modes = set(self.modes)
        if self.initial not in modes:
            raise ValueError("initial mode is not a mode")
        for (mode, s), dist in self.update.items():
            if s not in game.owner:
                raise ValueError(f"update row for mode {mode} at {s}, which is not a state")
            if mode not in modes or not _is_distribution(dist, modes):
                raise ValueError(f"bad update row for mode {mode} at {s}")
        for (mode, s), dist in self.choose.items():
            if game.owner.get(s) is not self.owner:
                raise ValueError(f"successor row for mode {mode} at {s}, "
                                 f"which is not a {self.owner.value} state")
            if mode not in modes or not _is_distribution(dist, game.succ[s]):
                raise ValueError(f"bad successor row for mode {mode} at {s}")


def _is_distribution(dist: dict[str, Fraction], support) -> bool:
    return all(w > 0 and x in support for x, w in dist.items()) and sum(dist.values()) == 1


def md_to_transducer(strategy: MDStrategy) -> TransducerStrategy:
    """The one-mode Dirac transducer of an MD strategy."""
    return TransducerStrategy(
        owner=strategy.owner,
        modes=("m0",),
        initial="m0",
        choose={("m0", s): {t: ONE} for s, t in strategy.choice.items()},
    )


def apply_md(game: Game, strategy: MDStrategy) -> Game:
    """Fix one player's moves, leaving a game where only the other plays."""
    strategy.check(game)
    succ = {
        s: ((strategy.choice[s],) if game.owner[s] is strategy.owner else game.succ[s])
        for s in game.states
    }
    return Game(dict(game.owner), succ, dict(game.prob))


class ValueDecreaseError(SgsolveError, ValueError):
    """The maximizer has value-decreasing transitions; lists the witnesses."""

    def __init__(self, offenders: list[tuple[str, str]]):
        super().__init__(
            "maximizer has value-decreasing transitions: "
            + ", ".join(f"{s}->{t}" for s, t in offenders)
        )
        self.offenders = offenders


def _min_choice(game: Game, values) -> dict[str, str]:
    """The first value-attaining successor at every minimizer state."""
    return {s: min(game.succ[s], key=values.__getitem__)
            for s in game.states if game.owner[s] is Owner.MIN}


def _wasteful_moves(game: Game, values, targets: set[str]) -> list[tuple[str, str]]:
    """The value-decreasing transitions at the maximizer's non-target states."""
    return [(s, t) for s in game.states if game.owner[s] is Owner.MAX and s not in targets
            for t in game.succ[s] if values[t] < values[s]]


def optimal_min_md(game: Game, targets) -> MDStrategy:
    """An MD strategy optimal minimizing in every minimizer state.

    Any value-attaining choice works: fixing it makes the state values a
    supermartingale under every opposing strategy, so the reach probability
    never exceeds the value.  First in list order among the minimizers.
    """
    return MDStrategy(Owner.MIN, _min_choice(game, solve_reach_exact(game, set(targets))))


def _progress_ranks(game: Game, values, targets: set[str]) -> dict[str, int]:
    """Layers of forced progress within value levels.

    Rank 0 marks the resolution states: targets, zero-value states, random
    states whose support straddles value levels and minimizer states without
    a value-preserving move.  The other ranks are the attractor layers of the
    rank-0 states over value-preserving edges (rank-0 states keep all their
    edges), entered through one edge at maximizer and random states and
    through all at minimizer states.  Every state gets a rank: an unranked
    flat region would deny the maximizer any optimal strategy, which cannot
    happen in a finite game, so ``InvariantError`` there means the values
    given are not the game's.
    """
    base: list[str] = []
    succ: dict[str, tuple[str, ...]] = {}
    for s in game.states:
        level = values[s]
        flat = tuple(t for t in game.succ[s] if values[t] == level)
        if (s in targets or level == 0 or not flat
                or game.owner[s] is Owner.RANDOM and len(flat) != len(game.succ[s])):
            base.append(s)
            succ[s] = game.succ[s]
        else:
            succ[s] = flat
    rank: dict[str, int] = {}
    attractor(Game(game.owner, succ, game.prob), base, (Owner.MAX, Owner.RANDOM), layer=rank)
    for s in game.states:
        if s not in rank:
            raise InvariantError(f"no progress layer at {s}")
    return rank


def _uniform_max_choice(game: Game, values, targets: set[str]) -> dict[str, str]:
    """The first successor of greatest value and, among those, least
    progress rank, at every maximizer state."""
    rank = _progress_ranks(game, values, targets)
    return {s: min(game.succ[s], key=lambda t: (-values[t], rank[t]))
            for s in game.states if game.owner[s] is Owner.MAX}


def optimal_max_md(game: Game, targets) -> MDStrategy:
    """An MD strategy optimal maximizing in every state (finite games)."""
    targets = set(targets)
    values = solve_reach_exact(game, targets)
    return MDStrategy(Owner.MAX, _uniform_max_choice(game, values, targets))


def optimal_max_md_no_decrease(game: Game, targets) -> MDStrategy:
    """The uniformly optimal maximizer MD strategy, requiring that the
    maximizer has no value-decreasing transitions (error with witnesses
    otherwise).

    Transitions leaving a target state are exempt from the requirement: the
    objective is decided there, so their values are pinned rather than
    Bellman-consistent and the choice at them cannot matter.
    """
    targets = set(targets)
    values = solve_reach_exact(game, targets)
    offenders = _wasteful_moves(game, values, targets)
    if offenders:
        raise ValueDecreaseError(offenders)
    return MDStrategy(Owner.MAX, _uniform_max_choice(game, values, targets))


def reachplus_min_md(game: Game, targets) -> MDStrategy:
    """Optimal minimizing MD strategy for "visit the target after >= 1 step".

    This is :func:`optimal_min_md`.  At a target state its first successor of
    least reach value attains the revisit value, and when that value is
    below one the successor lies off the target, as the objective requires.
    """
    return optimal_min_md(game, targets)


def reachplus_max_md(game: Game, targets) -> MDStrategy:
    """Optimal maximizing MD strategy for "visit the target after >= 1 step".

    This is :func:`optimal_max_md`.  At a target state its successor of
    greatest reach value attains the revisit value, and the plain-reach
    choices attain it from there.
    """
    return optimal_max_md(game, targets)


def _buchi_max_md(game: Game, peel: winning.BuchiPeel, buchi_set: set[str]) -> MDStrategy:
    """The maximizer's half of :func:`buchi_md_pair`: the uniform rule on
    the indicator values of the peel's region, with its Buchi states as
    targets."""
    region = peel.partition.max_wins
    values = {s: 1 if s in region else 0 for s in game.states}
    return MDStrategy(Owner.MAX, _uniform_max_choice(game, values, region & buchi_set))


def _buchi_min_md(game: Game, peel: winning.BuchiPeel) -> MDStrategy:
    """The minimizer's half of :func:`buchi_md_pair`."""
    return MDStrategy(Owner.MIN, {s: peel.min_pick.get(s, game.succ[s][0])
                                  for s in game.states if game.owner[s] is Owner.MIN})


def buchi_md_pair(game: Game, buchi_set) -> tuple[MDStrategy, MDStrategy]:
    """The MD pair certifying the almost-sure Buchi partition, from one peel.

    The maximizer side comes from the peel's region alone: in it, the first
    successor inside of least progress rank towards its Buchi states, so it
    never leaves; off it, the first successor.  The minimizer side replays
    the choices recorded during peeling: a step into the previous layer of
    the removal attractor, and at its layer 0 an escape down the round's
    reach-peel layers (:func:`winning.buchi_peel` proves it losing for the
    maximizer); elsewhere, the first successor.  Rows in declaration order.
    Graph closures only, no exact solve.
    """
    buchi_set = set(buchi_set)
    peel = winning.buchi_peel(game, buchi_set)
    return _buchi_max_md(game, peel, buchi_set), _buchi_min_md(game, peel)


@dataclass(frozen=True)
class ThresholdVerdict:
    """Outcome of the threshold decision: the winner, its witnessing MD
    strategy and the case tag that decided."""

    winner: str  # "max" | "min"
    strategy: MDStrategy
    reason: str


def threshold_decide(game: Game, targets, threshold, strict: bool, start: str) -> ThresholdVerdict:
    """Decide who wins the threshold reachability objective from ``start``.

    Below the value, and at it when the threshold is strict, the minimizer
    wins with an optimal minimizing strategy; otherwise the maximizer wins
    with the uniformly optimal one.  Both attain the value from every state,
    since a finite reachability game has optimal MD strategies (Condon 1992).
    The reason names the first of the paper's sufficient conditions for
    countable games that applies at the value (``threshold-vacuous``,
    ``case-1``, ``case-2``, ``case-3``), or ``none-applicable`` when none
    does and the finite-game argument decides.  One exact solve serves all.
    """
    c = _as_fraction(threshold)
    if not 0 <= c <= 1:
        raise ValueError("threshold must be within [0, 1]")
    check_state(game, start)
    targets = set(targets)
    values = solve_reach_exact(game, targets)
    v0 = values[start]

    if v0 < c or v0 == c and strict:
        strategy = MDStrategy(Owner.MIN, _min_choice(game, values))
        return ThresholdVerdict("min", strategy, "value<c" if v0 < c else "case-4")
    if v0 == c == 0:
        reason = "threshold-vacuous"
    elif v0 > c:
        reason = "value>c-finite-horizon"
    elif not _wasteful_moves(game, values, targets):
        reason = "case-1"
    elif not any(values[t] > values[s] for s in game.states
                 if game.owner[s] is Owner.MIN and s not in targets for t in game.succ[s]):
        reason = "case-2"
    elif c == 1:
        reason = "case-3"
    else:
        reason = "none-applicable"
    strategy = MDStrategy(Owner.MAX, _uniform_max_choice(game, values, targets))
    return ThresholdVerdict("max", strategy, reason)


def format_strategy(strategy: MDStrategy | TransducerStrategy) -> str:
    """Serialize a strategy; round-trippable and diffable.  An id the reader
    cannot read back raises ``ValueError`` and nothing is written."""
    if isinstance(strategy, MDStrategy):
        _check_ids(x for pair in strategy.choice.items() for x in pair)
        lines = [f"strategy {strategy.owner.value} md"]
        lines += [f"choose {s} {t}" for s, t in strategy.choice.items()]
        return "\n".join(lines) + "\n"
    rows = [(kw, mode, s, t, w) for kw, table in (("update", strategy.update),
                                                 ("choose", strategy.choose))
            for (mode, s), dist in table.items() for t, w in dist.items()]
    _check_ids([strategy.initial, *strategy.modes, *(x for row in rows for x in row[1:4])])
    lines = [f"strategy {strategy.owner.value} transducer", f"initial {strategy.initial}"]
    lines += [f"mode {m}" for m in strategy.modes]
    lines += [f"{kw} {mode} {s} {t} {w.numerator}/{w.denominator}" for kw, mode, s, t, w in rows]
    return "\n".join(lines) + "\n"


def parse_strategy(text: str) -> MDStrategy | TransducerStrategy:
    """Read a strategy file; an error in a row, a repeated one included, names its line."""
    lines = _tokens(text)
    if not lines or lines[0][1][0] != "strategy" or len(lines[0][1]) != 3:
        raise ValueError("strategy file must start with: strategy max|min md|transducer")
    head, header = lines[0]
    if header[1] not in (Owner.MAX.value, Owner.MIN.value):
        raise ValueError(f"line {head}: a strategy belongs to max or min, not {header[1]!r}")
    owner = Owner(header[1])
    form = header[2]
    if form == "md":
        choice = {}
        for no, toks in lines[1:]:
            if toks[0] != "choose" or len(toks) != 3:
                raise ValueError(f"line {no}: expected: choose <state> <successor>")
            if toks[1] in choice:
                raise ValueError(f"line {no}: repeated choose row at {toks[1]}")
            choice[toks[1]] = toks[2]
        return MDStrategy(owner, choice)
    if form != "transducer":
        raise ValueError(f"line {head}: unknown strategy form {form!r}")
    modes: list[str] = []
    initial = None
    rows: dict[str, dict[tuple[str, str], dict[str, Fraction]]] = {"update": {}, "choose": {}}
    for no, toks in lines[1:]:
        if toks[0] == "initial" and len(toks) == 2:
            if initial is not None:
                raise ValueError(f"line {no}: repeated initial row")
            initial = toks[1]
        elif toks[0] == "mode" and len(toks) == 2:
            if toks[1] in modes:
                raise ValueError(f"line {no}: repeated mode row for {toks[1]}")
            modes.append(toks[1])
        elif toks[0] in rows and len(toks) == 5:
            kw, mode, s, to, weight = toks
            row = rows[kw].setdefault((mode, s), {})
            if to in row:
                raise ValueError(f"line {no}: repeated {kw} row for mode {mode} at {s} to {to}")
            try:
                row[to] = _as_fraction(weight)
            except ValueError as exc:
                raise ValueError(f"line {no}: {exc}") from None
        else:
            raise ValueError(f"line {no}: malformed transducer row")
    if initial is None:
        raise ValueError("transducer needs an initial mode")
    return TransducerStrategy(owner, tuple(modes), initial, rows["update"], rows["choose"])
