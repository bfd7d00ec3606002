"""Backward closures, strongly connected components and end components.

:func:`attractor` is the one backward-closure kernel of the package: graph
reachability and distances to a target, positive attractors, the peeling
closures of the winning module with their acyclicity check and count-down,
and the shrink step of the end-component decomposition are all instances
of it, run over the predecessor index each game builds once.

End components are computed for an "MDP view" of a game: owned states may
use any of their edges, random states must keep their whole support inside
the component; a caller that narrows owned states' edges passes a game with
narrowed rows.  The decomposition alternates one attractor run, which removes
the states that can be forced out of a candidate, with a strongly connected
split of what is left (de Alfaro 1997; Chatterjee and Henzinger, ICALP
2011).  End components give the sound upper bounds of interval iteration and
the exact one-player tail-objective solvers; :func:`bottom_components` gives
the bottom components of fixed-strategy chains.
"""

from __future__ import annotations

from collections.abc import Callable, Container, Iterable

from .model import Game, Owner


def attractor(
    game: Game,
    base: Iterable[str],
    exists: tuple[Owner, ...],
    alive: Container[str] | None = None,
    choice: dict[str, str] | None = None,
    layer: dict[str, int] | None = None,
    missing: dict[str, int] | None = None,
) -> set[str]:
    """Least set containing ``base`` and closed backward inside ``alive``.

    A state whose owner is in ``exists`` enters once one successor is in the
    set, any other state once all its successors are.  A state with an entry
    in ``choice`` has that one successor only.  ``alive`` (default: every
    state) bounds the set; base states outside it are dropped.  When
    ``layer`` is given it records, per state, the closure stage at which it
    entered (base states get 0).

    ``missing`` holds, per state not in ``exists``, how many of its
    successors are not yet in the set; a state without an entry starts from
    its row's length.  The call counts it down in place, and a caller may
    keep it across calls.
    """
    if alive is None:
        alive = game.owner
    preds = game.predecessors
    inside = {s for s in base if s in alive}
    if missing is None:
        missing = {}
    frontier = list(inside)
    stage = 0
    if layer is not None:
        layer.update(dict.fromkeys(inside, 0))
    while frontier:
        stage += 1
        new: list[str] = []
        for s in frontier:
            for p in preds[s]:
                if p in inside or p not in alive:
                    continue
                if choice is not None and p in choice:
                    if choice[p] != s:
                        continue
                elif game.owner[p] not in exists:
                    left = missing.get(p)
                    left = (len(game.succ[p]) if left is None else left) - 1
                    missing[p] = left
                    if left:
                        continue
                inside.add(p)
                new.append(p)
        if layer is not None:
            layer.update(dict.fromkeys(new, stage))
        frontier = new
    return inside


def strongly_connected_components(nodes: list[str], succ: Callable[[str], Iterable[str]]) -> list[list[str]]:
    """Tarjan's algorithm, iterative: components in the order Tarjan emits
    them (successors first), each listing its members in the order of
    ``nodes``."""
    position = {s: i for i, s in enumerate(nodes)}
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter([t for t in succ(root) if t in position]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for t in it:
                if t not in index:
                    index[t] = low[t] = counter
                    counter += 1
                    stack.append(t)
                    on_stack.add(t)
                    work.append((t, iter([u for u in succ(t) if u in position])))
                    advanced = True
                    break
                if t in on_stack:
                    low[node] = min(low[node], index[t])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                components.append(sorted(comp, key=position.__getitem__))
    return components


def bottom_components(game: Game, choice: dict[str, str]) -> list[list[str]]:
    """Bottom SCCs of the chain induced by fixing all owned moves."""

    def succ(s: str):
        if game.owner[s] is Owner.RANDOM:
            return game.succ[s]
        return (choice[s],)

    comps = strongly_connected_components(list(game.states), succ)
    bottoms = []
    for comp in comps:
        members = set(comp)
        if all(t in members for s in comp for t in succ(s)):
            bottoms.append(comp)
    return bottoms


def maximal_end_components(game: Game, states: Iterable[str]) -> list[list[str]]:
    """Maximal end components within ``states``.

    A component is a set where random states keep their whole support
    inside, every state has at least one internal move, and the internal
    moves connect it strongly.  The result depends only on the rows of
    ``states``: a shrink step's attractor adds only states of its candidate.

    Each candidate is shrunk by one attractor run (the states that can be
    forced out of it: a random state with one successor outside, an owned
    one with all of them outside), and what is left is split into strongly
    connected parts that become new candidates.  A part that is one state
    without a self-loop is dropped at the split: it has no internal move, so
    it lies in no end component.  A part that is the whole of what is left
    is final (every state left has an internal move, and a random one its
    whole support).
    """
    states = sorted(states)
    result: list[list[str]] = []
    work: list[list[str]] = [states]
    while work:
        candidate = work.pop()
        members = set(candidate)
        leaving = {t for s in candidate for t in game.succ[s] if t not in members}
        stuck = [s for s in candidate if not game.succ[s]]
        out = attractor(game, [*leaving, *stuck], (Owner.RANDOM,), alive=members | leaving)
        comps = strongly_connected_components([s for s in candidate if s not in out],
                                              game.succ.__getitem__)
        if len(comps) == 1:
            result.append(comps[0])
        else:
            work.extend(c for c in comps if len(c) > 1 or c[0] in game.succ[c[0]])
    return sorted(result)
