"""Qualitative winning sets: almost-sure and positive-probability regions.

All three computations run on the game graph alone and return a full
partition of the state space together with per-state removal indices: a
state keeps index bottom (``None``) exactly when it is maximizer-winning, and
min-winning states record the peeling round that eliminated them.  On finite
games every fixpoint below converges in finitely many rounds.

Almost-sure reachability peels the game it is given with a confined
attractor: each round keeps the least set that can make progress towards
the target while random states never leak outside the surviving region and
the minimizer cannot steer outside it.  States outside the positive
attractor of the target, where the minimizer can keep the play off the
target forever, are discarded up front with index 0.  Removal cascades one
dependency layer per round, which is what the escalation gallery family
exercises.  Before its first round the peel checks, once, whether the
positive attractor less its targets has a cycle, and so chooses its path.
Without one, as on the ladders and fig2 windows, every round is counted
down: it removes the random states with a successor outside the region,
then every minimizer state with a removed successor and every other state
with no successor left, keeping per state a count of its successors in the
region.  Without a cycle a round's closure has one fixpoint, so the
greatest one that removal leaves is the least one the closure builds, and
a peel of d rounds costs a pass over the region's edges instead of d
closures.  With a cycle, as on ruin chains and random games, every round
runs the closure inside the confined states: the region less its random
non-target states with a successor outside it.  That set is built once,
and after a round the dropped states and their random non-target
predecessors leave it, which gives the set a rebuild from the smaller
region would.  Either way the random states with a successor outside the
region are read off the predecessor lists of the states outside it, and
after a round off those of the dropped states, not off successor rows.

Almost-sure Buchi peels on the game graph alone.  A state's value of
"visit the live Buchi set again after at least one step" is one exactly when
one step surely lands in the almost-sure reach region of the live Buchi
states: some successor in it for the maximizer, all successors for the
minimizer and random states.  That region is the reach peel above run inside
the surviving states.  Each round removes one attractor: the states outside
the region, closed backward with minimizer and random states entering on one
successor and maximizer states on all of them.  The Buchi states of the
region that fail the test enter at layer 1, since every other state of the
region steps surely into it.  This is the attractor characterisation of
almost-sure Buchi (de Alfaro, Henzinger and Kupferman, FOCS 1998; Chatterjee,
Jurdzinski and Henzinger, CSL 2003).  No rational arithmetic is involved, not
even for the minimizer's escape at the removal's layer 0: the round's
reach-peel layers order the escapes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graphs import attractor as _attractor
from .model import Game, Owner, check_targets
from .model import sink_subgame as _patched_subgame  # noqa: F401  (a span name in bench/spans.py)


@dataclass(frozen=True)
class WinningPartition:
    """A strong-determinacy partition with peeling bookkeeping.

    ``index`` maps removed (min-winning) states to the round that removed
    them and maximizer-winning states to ``None``.
    """

    max_wins: frozenset[str]
    min_wins: frozenset[str]
    rounds: int
    index: dict[str, int | None]


def _partition(game: Game, max_wins, rounds: int, index) -> WinningPartition:
    """``max_wins`` against the other states, counting at least one round."""
    max_wins = frozenset(max_wins)
    min_wins = frozenset(s for s in game.states if s not in max_wins)
    return WinningPartition(max_wins, min_wins, max(rounds, 1), index)


def positive_reach_set(game: Game, targets) -> frozenset[str]:
    """States from which the maximizer forces the target with positive
    probability: the classic attractor (maximizer and random states need one
    successor inside, minimizer states need all)."""
    targets = check_targets(game, targets)
    return frozenset(_attractor(game, targets, (Owner.MAX, Owner.RANDOM)))


def _confined_attractor(game: Game, targets: set[str], confined: set[str]) -> set[str]:
    """Progress-towards-target set with random confinement.

    ``confined`` is the surviving region less its random non-target states
    with a successor outside the region.  Returns the least set containing
    the live targets and closed backward inside ``confined``: maximizer and
    random states need a successor inside, minimizer states all successors.
    So a random state of the result has all its successors in the region and
    one inside.
    """
    return _attractor(game, targets, (Owner.MAX, Owner.RANDOM), alive=confined)


def _acyclic_counts(game: Game, targets: set[str], region: set[str]) -> dict[str, int] | None:
    """Per state of ``region``, how many of its successors lie in it, or
    ``None`` when the region less ``targets`` has a cycle.

    Both are read off the predecessor index.  The check is a backward
    closure from the targets in which every state needs all its successors
    in the region: no state of a cycle off the targets ever enters, and
    without such a cycle every state of a closure region enters, as each
    has a successor in the region.
    """
    preds = game.predecessors
    counts = Counter(p for s in region for p in preds[s] if p in region)
    closed = _attractor(game, targets, (), alive=region, missing=dict(counts))
    return counts if len(closed) == len(region) else None


def _reach_peel(game: Game, targets: set[str], alive: set[str],
                index: dict[str, int | None]) -> tuple[set[str], int]:
    """The almost-sure reach region of ``targets`` in the subgame on ``alive``
    (edges leaving ``alive`` count as losing), and the number of peeling
    rounds that removed a state.

    Starts from the positive attractor of the target inside ``alive`` and
    shrinks to the confined attractor until stable.  ``index`` receives 0
    for the states outside the positive attractor, where the minimizer can
    keep the play off the target forever, and ``k`` for the states dropped
    in round ``k``.

    The path is chosen once, before the first round, by
    :func:`_acyclic_counts` on the positive attractor: without a cycle off
    the target every round, the first included, is a removal cascade on
    the successor counts it returns; with one, every round runs
    :func:`_confined_attractor`.  The confined set is built as the region
    less the random non-target states ``leaving`` finds on the
    predecessor lists of the states outside the region, and after each
    round loses the dropped states and those that ``leaving`` finds on
    theirs.  This equals the set rebuilt from the smaller region: the
    successors a kept state had in the region and lost are dropped ones, so
    a random non-target state is confined afterwards exactly when it was
    before and has no dropped successor, and every other kept state is
    confined both times.
    """
    region = _attractor(game, targets, (Owner.MAX, Owner.RANDOM), alive=alive)
    index.update((s, 0) for s in alive if s not in region)
    preds = game.predecessors

    def leaving(dropped):
        # Random non-target states of the region with a successor in ``dropped``.
        return {p for s in dropped for p in preds[s]
                if p in region and p not in targets and game.owner[p] is Owner.RANDOM}

    counts = _acyclic_counts(game, targets, region)
    # The states outside the region are handled as dropped before round 1.
    dropped = [s for s in game.states if s not in region]
    rounds = 0
    if counts is None:
        confined = region - leaving(dropped)
        while True:
            kept = _confined_attractor(game, targets, confined)
            if len(kept) == len(region):
                return region, rounds
            rounds += 1
            dropped = region - kept
            index.update(dict.fromkeys(dropped, rounds))
            region = kept
            confined -= dropped
            confined -= leaving(dropped)
    loose = region - targets
    while True:
        dropped = _attractor(game, leaving(dropped), (Owner.MIN,), alive=loose, missing=counts)
        if not dropped:
            return region, rounds
        rounds += 1
        index.update(dict.fromkeys(dropped, rounds))
        region -= dropped
        loose -= dropped


def almost_sure_reach(game: Game, targets) -> WinningPartition:
    """Partition for surely-almost-sure reachability, peeled on the game given.

    Setup discards, with index 0, the states outside the positive attractor
    of the target: from them the minimizer keeps the play off the target
    forever, though a path to it may exist.  Each later round shrinks the
    surviving region to its confined attractor; states dropped in round
    ``k`` get index ``k``.  The fixpoint region is exactly the set of states
    with value one, and the complement is min-winning via any optimal
    minimizing choice.
    """
    targets = check_targets(game, targets)
    index: dict[str, int | None] = dict.fromkeys(game.states)
    region, rounds = _reach_peel(game, targets, set(game.states), index)
    return _partition(game, region, rounds, index)


def almost_sure_safety(game: Game, targets) -> WinningPartition:
    """Partition for almost-sure safety.

    The maximizer wins from exactly the states where the opponent cannot
    touch the target with positive probability, i.e. the complement of the
    opponent's attractor (minimizer and random states need one successor in,
    maximizer states need all).  Indices record attractor layers.
    """
    targets = check_targets(game, targets)
    layer: dict[str, int] = {}
    attr = _attractor(game, targets, (Owner.MIN, Owner.RANDOM), layer=layer)
    index: dict[str, int | None] = {
        s: (layer[s] if s in attr else None) for s in game.states
    }
    return _partition(game, (s for s in game.states if s not in attr), 1, index)


@dataclass(frozen=True)
class BuchiPeel:
    """Internals of the Buchi peeling, consumed by strategy synthesis.

    ``min_pick`` holds the choice recorded at each minimizer state of a
    removal attractor, round by round and within a round in declaration
    order; see :func:`buchi_peel`.
    """

    partition: WinningPartition
    min_pick: dict[str, str]


def buchi_peel(game: Game, buchi_set) -> BuchiPeel:
    """Iterated removal of states that cannot force revisits forever.

    Round by round: compute R, the almost-sure reach region of the live
    Buchi states inside the surviving states, and remove the live states of
    the attractor of every state outside R, minimizer and random states
    entering on one successor in it and maximizer states on all of them.
    The states outside R, those removed in earlier rounds included, form its
    layer 0.  The peel stops at the first round that removes nothing.  A
    removed minimizer state at layer L > 0 steps to its first successor at
    layer L - 1, and one at layer 0 to its first successor of least escape
    key: -1 if removed in an earlier round, the round's reach-peel index if
    live outside R, and above every index in R.

    Why the escapes win: fix these choices as pi and suppose the maximizer
    wins a removed state almost surely.  Let W be its almost-sure region in
    the MDP that pi leaves (pi, random moves and a winning maximizer stay in
    W) and k the first round that removed a state of W, so W is alive at
    round k.  By induction W misses each reach-peel layer L_j: as W misses
    the lower ones, a random state of W in L_j was confined and, like a
    maximizer state of L_j, has no successor higher, and a minimizer state
    in L_j has escape key at most j.  So plays from W in L_j stay there, off
    the Buchi set.  Thus W lies in R and, by the choice of k, holds no state
    of layer 0.  By induction on L it holds none of layer L either: pi steps
    a minimizer state there to layer L - 1, a random state there has a
    successor in a lower layer, and a maximizer state there has all its
    successors in lower layers or in earlier rounds.  So W holds nothing
    that round k removed, contradicting the choice of k.
    """
    buchi_set = check_targets(game, buchi_set)
    alive = set(game.states)
    index: dict[str, int | None] = dict.fromkeys(game.states)
    min_pick: dict[str, str] = {}
    rounds = 0
    while alive:
        escape: dict[str, int | None] = dict.fromkeys(game.states, -1)
        region, top = _reach_peel(game, buchi_set, alive, escape)
        escape.update(dict.fromkeys(region, top + 1))
        layer: dict[str, int] = {}
        # Every state outside the region is at layer 0, the removed ones too.
        removed = alive & _attractor(game, set(game.states) - region, (Owner.MIN, Owner.RANDOM),
                                     layer=layer)
        if not removed:
            break
        rounds += 1
        for s in game.states:
            if s in removed:
                index[s] = rounds
                if game.owner[s] is Owner.MIN:
                    stage = layer[s]
                    min_pick[s] = (min(game.succ[s], key=escape.__getitem__) if stage == 0 else
                                   next(t for t in game.succ[s] if layer.get(t) == stage - 1))
        alive -= removed

    return BuchiPeel(_partition(game, alive, rounds, index), min_pick)


def almost_sure_buchi(game: Game, buchi_set) -> WinningPartition:
    """Partition for almost-sure Buchi; see :func:`buchi_peel`."""
    return buchi_peel(game, buchi_set).partition
