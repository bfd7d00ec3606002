"""Shared test helpers: seeded random and acyclic game generators,
independent closed-form oracles, a one-play-at-a-time reference sampler, a
peel that rebuilds its confined set every round (kept free of the solver
machinery they referee), strategy iteration from the float guess on every
game, which referees the exact solver's backward induction, and the game-file
reader without its list tokenizer and guarded validation: a tokenizing
generator, the two-pass parser over it and a validator that walks every edge
and weight of every state."""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from math import lcm

from sgsolve import Estimate, Game, Owner, exact
from sgsolve.graphs import attractor
from sgsolve.model import Violation, _as_fraction, check_targets
from sgsolve.objectives import ObjectiveKind
from sgsolve.simulate import _as_transducer
from sgsolve.textio import _KINDS, GameFormatError, ParsedGame


def random_game(seed: int, n: int = 8, max_branch: int = 3, owned_branch: int = 2,
                max_targets: int = 2) -> tuple[Game, frozenset[str]]:
    """A seeded random game with no dead ends and exact weights summing to 1.

    Owned branching is kept small so the MD strategy-pair product stays well
    inside the enumeration oracle's bound.
    """
    rng = random.Random(seed)
    ids = [f"s{i}" for i in range(n)]
    rows = []
    for s in ids:
        owner = rng.choice(("max", "min", "rand"))
        width = max_branch if owner == "rand" else owned_branch
        succs = rng.sample(ids, rng.randint(1, min(width, n)))
        if owner == "rand":
            raw = [rng.randint(1, 4) for _ in succs]
            total = sum(raw)
            rows.append((s, owner, succs, [Fraction(x, total) for x in raw]))
        else:
            rows.append((s, owner, succs))
    targets = frozenset(rng.sample(ids, rng.randint(1, max_targets)))
    return Game.of(rows), targets


def acyclic_game(seed: int, n: int = 8, max_branch: int = 3, owned_branch: int = 2,
                 max_targets: int = 2) -> tuple[Game, frozenset[str]]:
    """A seeded game whose live states ``s0 .. s{n-1}`` move only to states
    declared after them: later live states, absorbing targets ``t*``, and
    three states of value zero, the absorbing ``z0`` and the random
    two-cycle ``z1``, ``z2``.  Some games also make one live state a target.
    Every live state is settled once all later ones are, so
    :func:`sgsolve.exact.solve_reach_exact` solves these by backward
    induction (:func:`random_game` rarely gives an acyclic game).
    """
    rng = random.Random(seed)
    live = [f"s{i}" for i in range(n)]
    goals = [f"t{i}" for i in range(rng.randint(1, max_targets))]
    zeros = ["z0", "z1", "z2"]
    rows = []
    for i, s in enumerate(live):
        owner = rng.choice(("max", "min", "rand"))
        width = max_branch if owner == "rand" else owned_branch
        later = live[i + 1:] + goals + zeros
        succs = rng.sample(later, rng.randint(1, min(width, len(later))))
        if owner == "rand":
            raw = [rng.randint(1, 4) for _ in succs]
            total = sum(raw)
            rows.append((s, owner, succs, [Fraction(x, total) for x in raw]))
        else:
            rows.append((s, owner, succs))
    rows += [(t, "max", (t,)) for t in goals]
    rows += [("z0", "min", ("z0",)), ("z1", "rand", ("z2",), (1,)), ("z2", "rand", ("z1",), (1,))]
    targets = set(goals)
    if rng.random() < 0.3:
        targets.add(rng.choice(live))
    return Game.of(rows), frozenset(targets)


def reference_solve_reach_exact(game: Game, targets) -> dict[str, Fraction]:
    """Exact reach values by strategy iteration from the float guess on every
    game, acyclic or not: the path the solver keeps for games with a cycle."""
    targets = set(targets)
    return exact._strategy_iteration(game, targets, exact._float_guess(game, targets))


def ruin_probability(p: Fraction, cap: int, wealth: int) -> Fraction:
    """Closed-form gambler's ruin: probability of hitting 0 before ``cap``
    when winning one unit with probability ``p`` per round."""
    p = Fraction(p)
    q = 1 - p
    if p == q:
        return Fraction(cap - wealth, cap)
    r = q / p
    return (r**wealth - r**cap) / (1 - r**cap)


def reference_plays(game, start, objective, cfg, sigma=None, pi=None):
    """The sampler as one Python loop per play, on numpy's own Philox
    streams drawn one at a time.  Yields, per play, the states it visited,
    its verdict (``True`` won, ``False`` lost, ``None`` still open at the
    horizon) and its score.

    The verdict rule is written out here, with graph distances from a
    breadth-first search of its own, so that it referees the objectives
    module's verdict table rather than reads it.
    """
    import numpy as np

    sigma = _as_transducer(sigma, Owner.MAX)
    pi = _as_transducer(pi, Owner.MIN)
    check_targets(game, objective.target)
    obj, kind = objective, objective.kind

    preds = {s: [] for s in game.states}
    for s in game.states:
        for t in game.succ[s]:
            preds[t].append(s)
    distance = dict.fromkeys(obj.target, 0)
    queue = deque(obj.target)
    while queue:
        t = queue.popleft()
        for s in preds[t]:
            if s not in distance:
                distance[s] = distance[t] + 1
                queue.append(s)

    def verdict_at(state, step):
        in_target = state in obj.target
        if kind in (ObjectiveKind.BUCHI, ObjectiveKind.COBUCHI):
            if game.is_absorbing(state):
                return in_target == (kind is ObjectiveKind.BUCHI)
            return None
        if kind is ObjectiveKind.REACH_PLUS and step == 0:
            return None if any(t in distance for t in game.succ[state]) else False
        if in_target:
            return kind is not ObjectiveKind.SAFETY
        if state not in distance:
            return kind is ObjectiveKind.SAFETY
        if kind is ObjectiveKind.REACH_WITHIN and distance[state] > obj.steps - step:
            return False
        return None

    def draw(rng, dist):
        items = list(dist.items())
        if len(items) == 1:
            return items[0][0]
        u = rng.random()
        acc = 0.0
        for key, w in items:
            acc += float(w)
            if u < acc:
                return key
        return items[-1][0]

    for i in range(cfg.samples):
        rng = np.random.Generator(np.random.Philox(key=[cfg.seed, i]))
        state = start
        mode_sigma = sigma.initial if sigma else None
        mode_pi = pi.initial if pi else None
        visited = []
        last_hit = -1
        for step in range(cfg.horizon + 1):
            visited.append(state)
            if state in obj.target:
                last_hit = step
            verdict = verdict_at(state, step)
            if verdict is not None or step == cfg.horizon:
                break
            owner = game.owner[state]
            if owner is Owner.RANDOM:
                nxt = draw(rng, dict(game.distribution(state)))
            else:
                who, mode = (sigma, mode_sigma) if owner is Owner.MAX else (pi, mode_pi)
                if who is None:
                    player = "maximizer" if owner is Owner.MAX else "minimizer"
                    raise ValueError(f"owner mismatch: no {player} strategy, needed at {state}")
                nxt = draw(rng, who.choose[(mode, state)])
            if sigma and sigma.update.get((mode_sigma, state)):
                mode_sigma = draw(rng, sigma.update[(mode_sigma, state)])
            if pi and pi.update.get((mode_pi, state)):
                mode_pi = draw(rng, pi.update[(mode_pi, state)])
            state = nxt
        if verdict is None:
            revisited = last_hit >= cfg.horizon - cfg.buchi_window + 1
            score = {ObjectiveKind.BUCHI: revisited, ObjectiveKind.COBUCHI: not revisited,
                     ObjectiveKind.SAFETY: True}.get(kind, False)
        else:
            score = verdict
        yield visited, verdict, score


def reference_sample_plays(game, start, objective, cfg, sigma=None, pi=None) -> Estimate:
    """The estimate of :func:`reference_plays`: the reference the lockstep
    sampler must match bit for bit."""
    wins = decided = 0
    for _, verdict, score in reference_plays(game, start, objective, cfg, sigma, pi):
        wins += score
        decided += verdict is not None
    mean = wins / cfg.samples
    half_width = 1.96 * (mean * (1.0 - mean) / cfg.samples) ** 0.5
    return Estimate(mean, half_width, decided / cfg.samples)


def reference_reach_peel(game, targets, alive, index):
    """The almost-sure reach peel with the confined set rebuilt from the
    region in every round: the region and the rounds that removed a state;
    ``index`` receives 0 outside the positive attractor and ``k`` for the
    states dropped in round ``k``."""
    region = attractor(game, targets, (Owner.MAX, Owner.RANDOM), alive=alive)
    index.update((s, 0) for s in alive if s not in region)
    rounds = 0
    while True:
        live = {s for s in targets if s in region}
        confined = live | {
            s
            for s in region
            if game.owner[s] is not Owner.RANDOM or all(t in region for t in game.succ[s])
        }
        kept = attractor(game, live, (Owner.MAX, Owner.RANDOM), alive=confined)
        if len(kept) == len(region):
            return region, rounds
        rounds += 1
        index.update((s, rounds) for s in region if s not in kept)
        region = kept


def reference_almost_sure_reach(game, targets):
    """Region, rounds (at least one) and index of the rebuilding reach peel."""
    index = dict.fromkeys(game.states)
    region, rounds = reference_reach_peel(game, set(targets), set(game.states), index)
    return region, max(rounds, 1), index


def reference_buchi_peel(game, buchi_set):
    """Winning region, rounds (at least one), index and the minimizer's
    picks as a list, round by round in declaration order, of the Buchi peel
    run over :func:`reference_reach_peel`: each round removes the attractor
    of the states outside the reach region."""
    buchi_set = set(buchi_set)
    alive = set(game.states)
    index = dict.fromkeys(game.states)
    min_pick = []
    rounds = 0
    while alive:
        escape = dict.fromkeys(game.states, -1)
        region, top = reference_reach_peel(game, buchi_set, alive, escape)
        escape.update(dict.fromkeys(region, top + 1))
        lost = set(game.states) - alive
        layer = {}
        removed = attractor(game, (alive - region) | lost, (Owner.MIN, Owner.RANDOM),
                            layer=layer) - lost
        if not removed:
            break
        rounds += 1
        for s in game.states:
            if s not in removed:
                continue
            index[s] = rounds
            if game.owner[s] is Owner.MIN:
                stage = layer[s]
                min_pick.append((s, min(game.succ[s], key=escape.__getitem__) if stage == 0 else
                                 next(t for t in game.succ[s] if layer.get(t) == stage - 1)))
        alive -= removed
    return alive, max(rounds, 1), index, min_pick


def reference_tokens(text: str):
    """Line number and tokens of each line not blank once its comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def reference_parse_game(text: str) -> ParsedGame:
    """The game-file parser over :func:`reference_tokens`: syntax errors by
    line, then undeclared edge ends in edge order, then undeclared targets."""
    owner: dict[str, Owner] = {}
    state_lines: dict[str, int] = {}
    edges: list[tuple[int, str, str, Fraction | None]] = []
    targets: list[tuple[int, str]] = []
    weights: dict[str, Fraction] = {}

    for lineno, toks in reference_tokens(text):
        kw = toks[0]
        if kw == "edge":
            if len(toks) == 3:
                edges.append((lineno, toks[1], toks[2], None))
            elif len(toks) == 4:
                weight = weights.get(toks[3])
                if weight is None:
                    try:
                        weight = weights[toks[3]] = _as_fraction(toks[3])
                    except ValueError:
                        raise GameFormatError(lineno, f"malformed rational weight {toks[3]!r}") from None
                edges.append((lineno, toks[1], toks[2], weight))
            else:
                raise GameFormatError(lineno, "expected: edge <src> <dst> [<p/q>]")
        elif kw == "state":
            if len(toks) != 3:
                raise GameFormatError(lineno, "expected: state <id> max|min|rand")
            sid, kind = toks[1], toks[2]
            if sid in owner:
                raise GameFormatError(lineno, f"duplicate declaration of state {sid!r}")
            if kind not in _KINDS:
                raise GameFormatError(lineno, f"unknown state kind {kind!r}")
            owner[sid] = _KINDS[kind]
            state_lines[sid] = lineno
        elif kw == "target":
            if len(toks) != 2:
                raise GameFormatError(lineno, "expected: target <id>")
            targets.append((lineno, toks[1]))
        else:
            raise GameFormatError(lineno, f"unknown keyword {kw!r}")

    succ: dict[str, list[str]] = {s: [] for s in owner}
    prob: dict[str, list[Fraction]] = {s: [] for s, o in owner.items() if o is Owner.RANDOM}
    for lineno, src, dst, weight in edges:
        out = succ.get(src)
        if out is None:
            raise GameFormatError(lineno, f"edge from undeclared state {src!r}")
        if dst not in owner:
            raise GameFormatError(lineno, f"edge to undeclared state {dst!r}")
        ws = prob.get(src)
        if ws is None:
            if weight is not None:
                raise GameFormatError(lineno, f"edge from owned state {src!r} must not carry a weight")
        elif weight is None:
            raise GameFormatError(lineno, f"edge from random state {src!r} needs a weight")
        else:
            ws.append(weight)
        out.append(dst)

    for lineno, sid in targets:
        if sid not in owner:
            raise GameFormatError(lineno, f"target refers to undeclared state {sid!r}")

    game = Game(
        owner,
        {s: tuple(ts) for s, ts in succ.items()},
        {s: tuple(ws) for s, ws in prob.items()},
    )
    return ParsedGame(game, frozenset(t for _, t in targets), state_lines)


def reference_validate(game: Game) -> list[Violation]:
    """Every game invariant checked edge by edge and weight by weight, on
    every state."""
    out: list[Violation] = []
    owner = game.owner
    for s, kind in owner.items():
        succs = game.succ.get(s, ())
        if not succs:
            out.append(Violation("dead-end", s, "state has no successor"))
        seen = set()
        for t in succs:
            if t not in owner:
                out.append(Violation("dangling-id", s, f"successor {t!r} is not a state"))
            if t in seen:
                out.append(Violation("duplicate-edge", s, f"successor {t!r} listed twice"))
            seen.add(t)
        if kind is Owner.RANDOM:
            weights = game.prob.get(s, ())
            if len(weights) != len(succs):
                out.append(
                    Violation(
                        "weight-shape",
                        s,
                        f"{len(weights)} weights for {len(succs)} successors",
                    )
                )
                continue
            for w in weights:
                if w.numerator <= 0:
                    out.append(Violation("nonpositive-weight", s, f"weight {w} is not positive"))
            scale = lcm(*(w.denominator for w in weights))
            if succs and sum(w.numerator * (scale // w.denominator) for w in weights) != scale:
                total = sum(weights, Fraction(0))
                out.append(Violation("weight-sum", s, f"weights sum to {total}, expected 1"))
    return out
