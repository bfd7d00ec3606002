"""Qualitative winning sets: almost-sure and positive-probability regions.

All three computations run on the game graph alone and return a full
partition of the state space together with per-state removal indices: a
state keeps index bottom (``None``) exactly when it is maximizer-winning, and
min-winning states record the peeling round that eliminated them.  On finite
games every fixpoint below converges in finitely many rounds.

Almost-sure reachability peels the game it is given with a confined
attractor: each round keeps the least set that can make progress towards
the target while random states never leak outside the surviving region and
the minimizer cannot steer outside it.  States from which the target is
unreachable even with maximal cooperation are discarded up front with
index 0.  Removal cascades one dependency layer per round, which is what the
escalation gallery family exercises.  ``winning-set`` passes the game without
the minimizer's value-increasing transitions (``transforms.rvi``), which can
move indices but never the partition.

Almost-sure Buchi peels on the game graph alone.  A state's value of
"visit the live Buchi set again after at least one step" is one exactly when
one step surely lands in the almost-sure reach region of the live Buchi
states: some successor in it for the maximizer, all successors for the
minimizer and random states.  That region is the reach peel above run inside
the surviving states.  The states failing the test seed each round's
removal, which is closed backward under minimizer and random transitions;
maximizer states stranded by it are losing too.  This is the attractor
characterisation of almost-sure Buchi (de Alfaro, Henzinger and Kupferman,
FOCS 1998; Chatterjee, Jurdzinski and Henzinger, CSL 2003).  No rational
arithmetic is involved: exact values are needed only for the minimizer's
escape choice at seed states, which ``strategies.buchi_md_pair`` computes.
"""

from __future__ import annotations

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


def positive_reach_set(game: Game, targets) -> frozenset[str]:
    """States from which the maximizer forces the target with positive
    probability: the classic attractor (maximizer and random states need one
    successor inside, minimizer states need all)."""
    targets = check_targets(game, targets)
    return frozenset(_attractor(game, targets, (Owner.MAX, Owner.RANDOM)))


def _confined_attractor(game: Game, targets: set[str], alive: set[str]) -> set[str]:
    """Progress-towards-target set with random confinement.

    Least set containing the live targets and closed backward so that
    maximizer states have a successor inside, minimizer states have all
    successors inside, and random states have all successors in ``alive``
    plus one inside.
    """
    live = {s for s in targets if s in alive}
    confined = live | {
        s
        for s in alive
        if game.owner[s] is not Owner.RANDOM or all(t in alive for t in game.succ[s])
    }
    return _attractor(game, live, (Owner.MAX, Owner.RANDOM), alive=confined)


def _reach_peel(game: Game, targets: set[str], alive: set[str],
                index: dict[str, int | None]) -> tuple[set[str], int]:
    """The almost-sure reach region of ``targets`` in the subgame on ``alive``
    (edges leaving ``alive`` count as losing), and the number of peeling
    rounds that removed a state.

    Starts from the states of ``alive`` that can reach the target at all and
    shrinks to the confined attractor until stable.  ``index`` receives 0
    for the states that cannot reach the target and ``k`` for the states
    dropped in round ``k``.
    """
    region = _attractor(game, targets, (Owner.MAX, Owner.RANDOM), alive=alive)
    index.update((s, 0) for s in alive if s not in region)
    rounds = 0
    while True:
        kept = _confined_attractor(game, targets, region)
        if len(kept) == len(region):
            return region, rounds
        rounds += 1
        index.update((s, rounds) for s in region if s not in kept)
        region = kept


def almost_sure_reach(game: Game, targets) -> WinningPartition:
    """Partition for surely-almost-sure reachability, peeled on the game given.

    Setup discards, with index 0, the states that cannot reach the target at
    all.  Each subsequent round shrinks the surviving region to its confined
    attractor; states dropped in round ``k`` get index ``k``.  The fixpoint
    region is exactly the set of states with value one, and the complement
    is min-winning via any optimal minimizing choice.
    """
    targets = check_targets(game, targets)
    index: dict[str, int | None] = dict.fromkeys(game.states)
    region, rounds = _reach_peel(game, targets, set(game.states), index)
    max_wins = frozenset(region)
    return WinningPartition(
        max_wins=max_wins,
        min_wins=frozenset(s for s in game.states if s not in max_wins),
        rounds=max(rounds, 1),
        index=index,
    )


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
    return WinningPartition(
        max_wins=frozenset(s for s in game.states if s not in attr),
        min_wins=frozenset(attr),
        rounds=1,
        index=index,
    )


@dataclass(frozen=True)
class BuchiPeel:
    """Internals of the Buchi peeling, consumed by strategy synthesis.

    ``min_pick`` holds, in removal order, the choice recorded at each removed
    minimizer state: a step into the previous closure level, or ``None`` at a
    seed.  A seed's escape needs exact values of the round's patched
    subgame, whose surviving states are those with partition index ``None``
    or at least the seed's own index; ``strategies.buchi_md_pair`` solves it.
    """

    partition: WinningPartition
    min_pick: dict[str, str | None]


def buchi_peel(game: Game, buchi_set) -> BuchiPeel:
    """Iterated removal of states that cannot force revisits forever.

    Round by round: compute the almost-sure reach region of the live Buchi
    states inside the surviving states; the states from which one step does
    not surely land in it (no successor inside for the maximizer, some
    successor outside for the minimizer and random states) are exactly those
    whose revisit value is below one, and they seed the removal.  The
    removal is closed backward under minimizer and random transitions level
    by level; maximizer states stranded without successors by the removal
    are losing too and removed with the same round index.  At closure states
    the minimizer's step into the previous level is recorded; its escape at
    seeds is left to ``strategies.buchi_md_pair``.
    """
    buchi_set = check_targets(game, buchi_set)
    alive = set(game.states)
    index: dict[str, int | None] = dict.fromkeys(game.states)
    min_pick: dict[str, str | None] = {}
    rounds = 0
    while alive:
        region, _ = _reach_peel(game, buchi_set, alive, {})
        # One step surely lands in the region: some successor for the
        # maximizer, every successor for the minimizer and random states.
        seed = [
            s
            for s in game.states
            if s in alive
            and not (any if game.owner[s] is Owner.MAX else all)(t in region for t in game.succ[s])
        ]
        if not seed:
            break
        rounds += 1
        layer: dict[str, int] = {}
        closure = set(seed).union(s for s in alive if game.owner[s] is not Owner.MAX)
        removed = _attractor(game, seed, (Owner.MIN, Owner.RANDOM), alive=closure, layer=layer)
        # Level by level, each level in state order.
        for s in sorted((s for s in game.states if s in removed), key=layer.__getitem__):
            index[s] = rounds
            if game.owner[s] is Owner.MIN:
                stage = layer[s]
                min_pick[s] = (None if stage == 0 else
                               next(t for t in game.succ[s] if layer.get(t) == stage - 1))
        alive -= removed
        # Maximizer states stranded by the removal lose with this round's index.
        lost = set(game.states) - alive
        stranded = _attractor(
            game, lost, (), alive=lost.union(s for s in alive if game.owner[s] is Owner.MAX)
        ) - lost
        index.update(dict.fromkeys(stranded, rounds))
        alive -= stranded

    max_wins = frozenset(alive)
    partition = WinningPartition(
        max_wins=max_wins,
        min_wins=frozenset(s for s in game.states if s not in max_wins),
        rounds=max(rounds, 1),
        index=index,
    )
    return BuchiPeel(partition, min_pick)


def almost_sure_buchi(game: Game, buchi_set) -> WinningPartition:
    """Partition for almost-sure Buchi; see :func:`buchi_peel`."""
    return buchi_peel(game, buchi_set).partition
