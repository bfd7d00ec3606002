"""Backward closures, strongly connected components and end components.

:func:`attractor` is the one backward-closure kernel of the package: graph
reachability, positive attractors and the peeling closures of the winning
module are all instances of it, run over the predecessor index each game
builds once.

End components are computed for an "MDP view" of a game: owned states may
use any allowed edge, random states must keep their whole support inside the
component.  Used for bottom-component analysis of fixed-strategy chains, for
the sound upper bounds of interval iteration, and for the exact one-player
tail-objective solvers.
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
) -> set[str]:
    """Least set containing ``base`` and closed backward inside ``alive``.

    A state whose owner is in ``exists`` enters once one successor is in the
    set, any other state once all its successors are.  A state with an entry
    in ``choice`` has that one successor only.  ``alive`` (default: every
    state) bounds the set; base states outside it are dropped.  When
    ``layer`` is given it records, per state, the closure stage at which it
    entered (base states get 0).
    """
    if alive is None:
        alive = game.owner
    preds = game.predecessors
    inside = {s for s in base if s in alive}
    missing: dict[str, int] = {}
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
                    left = missing.get(p, len(game.succ[p])) - 1
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
    """Tarjan's algorithm, iterative; components in deterministic order."""
    node_set = set(nodes)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter([t for t in succ(root) if t in node_set]))]
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
                    work.append((t, iter([u for u in succ(t) if u in node_set])))
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
                components.append(sorted(comp))
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


def maximal_end_components(
    game: Game,
    states: Iterable[str],
    allowed: Callable[[str], Iterable[str]] | None = None,
) -> list[list[str]]:
    """Maximal end components within ``states``.

    ``allowed`` restricts the usable edges of owned states (random supports
    are never restricted).  A component is a set where random states keep
    their whole support inside, every state has at least one internal move,
    and the internal moves connect it strongly.
    """
    if allowed is None:
        allowed = lambda s: game.succ[s]

    def edges(s: str):
        if game.owner[s] is Owner.RANDOM:
            return game.succ[s]
        return allowed(s)

    result: list[list[str]] = []
    work: list[list[str]] = [sorted(states)]
    while work:
        candidate = work.pop()
        members = set(candidate)
        # Random states must have their full support inside; every state
        # needs some internal move.  Shrink until stable.
        while True:
            bad = set()
            for s in candidate:
                if game.owner[s] is Owner.RANDOM:
                    if any(t not in members for t in game.succ[s]):
                        bad.add(s)
                elif not any(t in members for t in edges(s)):
                    bad.add(s)
                elif game.owner[s] is not Owner.RANDOM and not game.succ[s]:
                    bad.add(s)
            if not bad:
                break
            members -= bad
            candidate = [s for s in candidate if s in members]
        if not candidate:
            continue
        comps = strongly_connected_components(
            candidate, lambda s: [t for t in edges(s) if t in members]
        )
        if len(comps) == 1 and len(comps[0]) == len(candidate):
            comp = comps[0]
            # Reject a trivial singleton without a self-move.
            if len(comp) > 1 or comp[0] in edges(comp[0]):
                result.append(comp)
            continue
        for comp in comps:
            if len(comp) > 1 or comp[0] in [t for t in edges(comp[0]) if t in set(comp)]:
                work.append(comp)
    return sorted(result)
