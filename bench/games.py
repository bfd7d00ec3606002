"""Benchmark inputs: seeded random games and the game-file writer.

Random games are fixed *skeletons* (owner, successor lists, weights and
targets drawn from a generator keyed by size and skeleton number) that the
run seed relabels: it draws fresh state names.  Declaration order and
successor order, and with them the elimination order and every
first-in-list tie-break, are kept.

Why the seed does not draw the skeletons, nor their declaration order: on
fully random games the exact solve time spans three orders of magnitude from
seed to seed (n=60: 0.001 s to 1.1 s, with 1 to 14 chain solves), and a
shuffled declaration order alone moves a game's solve time by 10-20 % (it
sets the elimination order), so a seeded pass time would say more about the
seed than about the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class GameSpec:
    """A finite game as the benchmark sees it, independent of ``sgsolve``.

    ``owner`` maps a state to ``"max"``, ``"min"`` or ``"rand"`` (in
    declaration order), ``succ`` to its ordered successors and ``prob`` to
    the exact weights of a random state.
    """

    owner: dict[str, str]
    succ: dict[str, tuple[str, ...]]
    prob: dict[str, tuple[Fraction, ...]]
    targets: tuple[str, ...]

    @property
    def states(self) -> list[str]:
        return list(self.owner)

    def text(self) -> str:
        """The game in the sgsolve text format."""
        lines = [f"state {s} {o}" for s, o in self.owner.items()]
        for s, o in self.owner.items():
            if o == "rand":
                for t, w in zip(self.succ[s], self.prob[s]):
                    lines.append(f"edge {s} {t} {w.numerator}/{w.denominator}")
            else:
                lines.extend(f"edge {s} {t}" for t in self.succ[s])
        lines.extend(f"target {t}" for t in self.targets)
        return "\n".join(lines) + "\n"


def from_game(game, targets) -> GameSpec:
    """Copy an ``sgsolve.Game`` (gallery builds) into a :class:`GameSpec`."""
    owner = {s: game.owner[s].value for s in game.states}
    prob = {s: tuple(game.prob[s]) for s in game.states if owner[s] == "rand"}
    return GameSpec(owner, {s: tuple(game.succ[s]) for s in game.states}, prob,
                    tuple(sorted(targets)))


def skeleton(n: int, k: int) -> GameSpec:
    """Random skeleton number ``k`` with ``n`` states.

    Owners are split into equal thirds; owned states get two distinct
    successors, random states two or three with weights from 1..4
    normalised; three distinct targets.
    """
    rng = random.Random(f"sgsolve-bench/skeleton/{n}/{k}")
    ids = [f"s{i}" for i in range(n)]
    kinds = (["max", "min", "rand"] * n)[:n]
    rng.shuffle(kinds)
    owner, succ, prob = {}, {}, {}
    for s, o in zip(ids, kinds):
        owner[s] = o
        if o == "rand":
            succ[s] = tuple(rng.sample(ids, rng.choice((2, 3))))
            raw = [rng.randint(1, 4) for _ in succ[s]]
            prob[s] = tuple(Fraction(x, sum(raw)) for x in raw)
        else:
            succ[s] = tuple(rng.sample(ids, 2))
    return GameSpec(owner, succ, prob, tuple(sorted(rng.sample(ids, 3))))


def relabel(spec: GameSpec, seed: int, tag: str) -> tuple[GameSpec, dict[str, str]]:
    """Fresh state names drawn from ``seed``, in the same declaration order.

    Returns the relabelled game and the map from skeleton names to new ones.
    """
    rng = random.Random(f"sgsolve-bench/relabel/{tag}/{seed}")
    old = spec.states
    names = [f"{tag}{i}" for i in range(len(old))]
    rng.shuffle(names)
    name = dict(zip(old, names))
    owner = {name[s]: spec.owner[s] for s in old}
    succ = {name[s]: tuple(name[t] for t in spec.succ[s]) for s in old}
    prob = {name[s]: spec.prob[s] for s in old if s in spec.prob}
    targets = tuple(sorted(name[t] for t in spec.targets))
    return GameSpec(owner, succ, prob, targets), name
