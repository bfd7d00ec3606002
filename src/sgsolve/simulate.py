"""Monte-Carlo play sampling under a fixed strategy pair.

Randomness comes from Philox, a named counter-based generator, keyed by
``(seed, sample index)``: per-play substreams are independent of execution
order, so results are bit-identical across runs and could be merged from
parallel workers in sample-index order without changing the estimate.

Per-play verdicts follow the objectives module with a horizon cutoff.  Plays
whose tail objective is still undecided at the horizon are scored by whether
the target was visited within the trailing window; the share of properly
decided plays is reported so callers can tell how much of the estimate rests
on the window heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Game, Owner
from .objectives import Objective, ObjectiveKind
from .strategies import MDStrategy, TransducerStrategy, md_to_transducer


@dataclass(frozen=True)
class SimConfig:
    samples: int
    horizon: int
    seed: int
    buchi_window: int = 1

    def __post_init__(self):
        if self.samples <= 0:
            raise ValueError("samples must be positive")
        if not self.horizon >= self.buchi_window >= 1:
            raise ValueError("need horizon >= buchi_window >= 1")


@dataclass(frozen=True)
class Estimate:
    """Sample mean with a 95% normal-approximation half width and the share
    of plays whose verdict was decided within the horizon."""

    mean: float
    half_width_95: float
    decided_fraction: float


def _as_transducer(strategy, owner: Owner) -> TransducerStrategy | None:
    if strategy is None:
        return None
    if isinstance(strategy, MDStrategy):
        strategy = md_to_transducer(strategy)
    if strategy.owner is not owner:
        raise ValueError(f"owner mismatch: expected a {owner.value} strategy")
    return strategy


def sample_plays(
    game: Game,
    start: str,
    objective: Objective,
    cfg: SimConfig,
    sigma: MDStrategy | TransducerStrategy | None = None,
    pi: MDStrategy | TransducerStrategy | None = None,
) -> Estimate:
    """Estimate the objective probability from ``start`` under the pair.

    Strategies may be omitted only for players that own no states.  MD
    strategies are accepted and lifted to one-mode transducers.
    """
    import numpy as np

    sigma = _as_transducer(sigma, Owner.MAX)
    pi = _as_transducer(pi, Owner.MIN)
    obj = objective if objective.game is game else objective.bind(game)

    target = obj.target
    kind = obj.kind
    # Per random state: cumulative float weights zipped with successors.
    cum = {}
    for s in game.states:
        if game.owner[s] is Owner.RANDOM:
            acc = 0.0
            rows = []
            for t, w in game.distribution(s):
                acc += float(w)
                rows.append((acc, t))
            cum[s] = tuple(rows)
    absorbing = {s for s in game.states if game.is_absorbing(s)}
    owner_of = game.owner

    class _Uniforms:
        """Chunked uniform draws; chunk size is fixed so streams are stable."""

        __slots__ = ("rng", "buf", "pos")

        def __init__(self, rng):
            self.rng = rng
            self.buf = rng.random(64)
            self.pos = 0

        def take(self) -> float:
            if self.pos >= 64:
                self.buf = self.rng.random(64)
                self.pos = 0
            u = self.buf[self.pos]
            self.pos += 1
            return u

    def draw(us: _Uniforms, rows) -> str:
        if len(rows) == 1:
            return rows[0][1]
        u = us.take()
        for acc, t in rows:
            if u < acc:
                return t
        return rows[-1][1]

    def draw_dist(us: _Uniforms, dist: dict) -> str:
        items = list(dist.items())
        if len(items) == 1:
            return items[0][0]
        u = us.take()
        acc = 0.0
        for key, w in items:
            acc += float(w)
            if u < acc:
                return key
        return items[-1][0]

    wins = 0
    decided = 0
    for i in range(cfg.samples):
        rng = _Uniforms(np.random.Generator(np.random.Philox(key=[cfg.seed, i])))
        state = start
        mode_sigma = sigma.initial if sigma else None
        mode_pi = pi.initial if pi else None
        verdict: bool | None = None
        last_hit = -1
        for step in range(cfg.horizon + 1):
            in_target = state in target
            if in_target:
                last_hit = step
            if kind is ObjectiveKind.REACH and in_target:
                verdict = True
                break
            if kind is ObjectiveKind.SAFETY and in_target:
                verdict = False
                break
            if kind is ObjectiveKind.REACH_PLUS and in_target and step >= 1:
                verdict = True
                break
            if kind is ObjectiveKind.REACH_WITHIN:
                if in_target and step <= obj.steps:
                    verdict = True
                    break
                if step >= obj.steps:
                    verdict = False
                    break
            if state in absorbing:
                if kind in (ObjectiveKind.REACH, ObjectiveKind.REACH_PLUS):
                    verdict = False
                elif kind is ObjectiveKind.SAFETY:
                    verdict = True
                elif kind is ObjectiveKind.BUCHI:
                    verdict = in_target
                else:
                    verdict = not in_target
                break
            if step == cfg.horizon:
                break
            owner = owner_of[state]
            if owner is Owner.RANDOM:
                nxt = draw(rng, cum[state])
            elif owner is Owner.MAX:
                if sigma is None:
                    raise ValueError(f"owner mismatch: no maximizer strategy, needed at {state}")
                nxt = draw_dist(rng, sigma.choose[(mode_sigma, state)])
            else:
                if pi is None:
                    raise ValueError(f"owner mismatch: no minimizer strategy, needed at {state}")
                nxt = draw_dist(rng, pi.choose[(mode_pi, state)])
            # Memory updates consume the state being left.
            if sigma:
                upd = sigma.update.get((mode_sigma, state))
                if upd:
                    mode_sigma = draw_dist(rng, upd)
            if pi:
                upd = pi.update.get((mode_pi, state))
                if upd:
                    mode_pi = draw_dist(rng, upd)
            state = nxt

        if verdict is None:
            window_start = cfg.horizon - cfg.buchi_window + 1
            revisited = last_hit >= window_start
            if kind is ObjectiveKind.BUCHI:
                score = revisited
            elif kind is ObjectiveKind.COBUCHI:
                score = not revisited
            elif kind is ObjectiveKind.SAFETY:
                score = True
            else:
                score = False
        else:
            decided += 1
            score = verdict
        if score:
            wins += 1

    mean = wins / cfg.samples
    half_width = 1.96 * (mean * (1.0 - mean) / cfg.samples) ** 0.5
    return Estimate(mean, half_width, decided / cfg.samples)
