"""Quantitative state values for objectives on finite games.

Without a tolerance the value solvers return exact rationals from the exact
solver.  A tolerance ``tol``, a real number (text or a ``bool`` raises
``TypeError``), selects iterate mode, a certified two-sided value iteration
that stops once the bounds are within ``tol``: the lower sequence climbs
from the target indicator, the upper sequence descends from one on the
states that can reach the target at all (everything else is exactly zero),
and end components without target states are periodically deflated to
their best maximizer exit so the upper sequence cannot stall above the
value.  The sweeps run on numpy arrays cut by vectorized indexing from one
flat index of the game (every successor list's state numbers in
declaration order, row starts, owner codes and float weights), with both
sequences in one flat vector (lower half, then upper half).  The
iteration runs one deflation period at a time: eight sweeps into the rows
of a buffer, each reading the row before, then a deflation of the last row
and one stop test over all eight rows' gaps, which returns the first row
within ``tol`` (the sweeps after it are thrown away).  A sweep is one
gather, a fixed list of in-place steps (``np.maximum`` and ``np.minimum``
for owned states, weights and adds in successor order for random states,
so every float is the one a plain loop over each successor list gives) and
one scatter.  The end-component decomposition is recomputed only when the
minimizer's lower-optimal edges change, and deflation is no longer called
once it cannot change anything, nor at all on an acyclic live region.
The reported error bound is the final gap.  It is sound in supremum norm
in real arithmetic; the sweeps round to nearest, so the returned floats
can miss it by a few ulps.  Sound floats need directed rounding, the lower
half rounded down and the upper half up.  The returned lower iterate is
clamped to at most 1 (random rows can add up past it), so all floats lie
in [0, 1].  Bounded-reach values are exact Bellman steps from the target
indicator, each recomputing only the predecessors of the states the step
before changed, on reduced int pairs: no step builds a ``Fraction``, each
output value one.

Values of countable games are certified by exact interval pairs computed on
a pessimistic and an optimistic truncation of the same depth.
"""

from __future__ import annotations

import functools
import numbers
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress

from . import winning
from .exact import (ConvergenceError, bellman_combine, bellman_pair, can_reach, settle_order,
                    solve_reach_exact)
from .graphs import maximal_end_components
from .model import (Game, InvariantError, LazyGame, Owner, SinkMode, _as_fraction, _as_int,
                    check_state, check_targets, swap_roles, truncate)
from .objectives import ObjectiveKind, bounding_sinks

_DEFLATE_EVERY = 8
# Owner codes in the flat view of a game: a state's owner's position here.
_OWNERS = tuple(Owner)
_MAX_SWEEPS = 2_000_000


@dataclass(frozen=True)
class ValueVector:
    """Per-state values in [0, 1]; iterate floats are clamped to at most 1.

    ``error_bound`` is ``None`` for exact rational vectors, which a solver
    returns when given no tolerance.  A tolerance selects iterate mode, whose
    floats carry as ``error_bound`` a supremum-norm bound on the distance to
    the true value vector, sound in real arithmetic (the floats may miss it
    by a few ulps).  An iterate vector is one-sided: :func:`value_reach` and
    :func:`value_buchi` return the lower iterate, which approaches the value
    from below, and :func:`value_safety` and :func:`value_cobuchi` one minus
    it, which approaches from above.
    """

    values: dict[str, Fraction] | dict[str, float]
    error_bound: float | None = None

    @property
    def is_exact(self) -> bool:
        return self.error_bound is None

    def __getitem__(self, state: str):
        return self.values[state]


@dataclass(frozen=True)
class IntervalValues:
    """Certified bounds from a pessimistic/optimistic truncation pair."""

    lower: ValueVector
    upper: ValueVector
    depth: int
    initial: str

    def at_initial(self) -> tuple:
        return self.lower[self.initial], self.upper[self.initial]


def bellman_step(game: Game, targets, values) -> dict:
    """One Bellman application on rationals: targets to 1, max/min/average
    elsewhere.  Pointwise monotone in ``values``.
    """
    targets = check_targets(game, targets)
    one = Fraction(1)
    return {
        s: one if s in targets else bellman_combine(game, values, s)
        for s in game.states
    }


def value_reach(game: Game, targets, tol=None) -> ValueVector:
    """Reach values: the least fixpoint of the Bellman step above the target
    indicator.  Exact rationals when ``tol`` is ``None``; a tolerance
    selects iterate mode, the lower approximant within ``tol``, which must
    be positive (NaN is not).  A tolerance is a real number (an ``int``, a
    ``float``, a ``Fraction`` or a numpy number); text or a ``bool`` raises
    ``TypeError``."""
    targets = check_targets(game, targets)
    if tol is None:
        return ValueVector(solve_reach_exact(game, targets))
    # numpy registers its integer and float types as ``numbers.Real``.
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
        raise TypeError(f"tol must be a real number, not {tol!r}")
    # Written so that NaN, which compares false with everything, is refused too.
    if not tol > 0:
        raise ValueError("iterate mode needs a positive tolerance")
    return _iterate_reach(game, targets, float(tol))


def value_safety(game: Game, targets, tol=None) -> ValueVector:
    """Safety values: one minus the opponent's reach value after swapping
    the players' roles.  The iterative form converges from above."""
    return _complement(value_reach(swap_roles(game), targets, tol))


def value_reach_within(game: Game, targets, steps: int) -> ValueVector:
    """Exact values of reaching the target within ``steps`` steps, computed
    up to step ``steps`` or to the fixpoint, whichever comes first.

    On a game with a random cycle no fixpoint comes: all ``steps`` steps run
    and the numbers widen with each, so a huge ``steps`` does not finish.
    ``steps`` must be an integer: a float or a ``bool`` raises ``TypeError``."""
    targets = check_targets(game, targets)
    steps = _as_int("steps", steps)
    if steps < 0:
        raise ValueError("steps must be non-negative")
    for k, v in enumerate(_bounded_reach(game, targets)):
        if k == steps:
            break
    return ValueVector({s: Fraction(n, d) for s, (n, d) in v.items()})


def epsilon_horizon(game: Game, targets, state: str, eps) -> int:
    """Least horizon whose bounded-reach value at ``state`` exceeds the
    unbounded value minus ``eps``.  Exists on every finite game."""
    targets = check_targets(game, targets)
    check_state(game, state)
    eps = _as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps > 1:
        return 0
    goal = solve_reach_exact(game, targets)[state] - eps
    # The sequence ends only at a fixpoint, which is the value itself.
    return next(h for h, v in enumerate(_bounded_reach(game, targets))
                if v[state][0] * goal.denominator > goal.numerator * v[state][1])


def _bounded_reach(game: Game, targets: set[str]) -> Iterator[dict[str, tuple[int, int]]]:
    """The bounded-reach vectors ``v_0, v_1, ...`` (``v_k`` is what ``k``
    applications of :func:`bellman_step` make of the target indicator), as
    one dict of reduced int pairs (equal exactly when their values are)
    updated in place; ends once a step changes nothing.

    A state's value can change at step ``k + 1`` only if a successor's
    changed at step ``k`` (at step 1: only if a successor is a target), so
    each step recomputes just the predecessors of the last changes.
    """
    v = {s: (int(s in targets), 1) for s in game.states}
    preds = game.predecessors
    changed = list(targets)
    while changed:
        yield v
        frontier = {p for t in changed for p in preds[t] if p not in targets}
        step = {s: bellman_pair(game, v, s) for s in frontier}
        changed = [s for s, x in step.items() if x != v[s]]
        v.update(step)
    yield v


def value_buchi(game: Game, buchi_set, tol=None) -> ValueVector:
    """Buchi values on finite games.

    Computed as the reach value of the almost-sure Buchi winning region: on a
    finite game the maximizer wins with exactly the probability of reaching
    the region where it can win outright.  Cross-checked against the
    enumeration oracle in the test suite; not assumed for countable games.
    """
    region = winning.almost_sure_buchi(game, buchi_set).max_wins
    return value_reach(game, region, tol)


def value_cobuchi(game: Game, target, tol=None) -> ValueVector:
    """Co-Buchi values via duality with the role-swapped Buchi game."""
    return _complement(value_buchi(swap_roles(game), target, tol))


def _complement(inner: ValueVector) -> ValueVector:
    """One minus every value, under the same error bound: ``1 - v`` is a
    ``Fraction`` for an exact value and the float ``1.0 - v`` for an iterate."""
    return ValueVector({s: 1 - v for s, v in inner.values.items()}, inner.error_bound)


SOLVERS = {
    ObjectiveKind.REACH: value_reach,
    ObjectiveKind.SAFETY: value_safety,
    ObjectiveKind.BUCHI: value_buchi,
    ObjectiveKind.COBUCHI: value_cobuchi,
}


def interval_values(base: LazyGame, kind: ObjectiveKind, depth: int,
                    label: str = "target") -> IntervalValues:
    """Certified value bounds for a lazy game at one truncation depth.

    The target set is read from the per-state ``label`` flags produced by the
    generator.  Both bounds are exact solves of the pessimistic and the
    optimistic window, so the value at the initial state lies between them
    by sink monotonicity (one-sided iterates would put one bound on the wrong
    side); a window with no frontier gives the value on both sides.
    """
    if kind not in SOLVERS:
        raise ValueError(f"interval bounds are defined for {sorted(k.value for k in SOLVERS)}")
    lower_mode, upper_mode = bounding_sinks(kind)
    solver = SOLVERS[kind]
    # The sink mode only labels the sink, so one expansion serves both bounds.
    trunc = truncate(base, depth)

    def solve(sink_mode: SinkMode) -> ValueVector:
        return solver(trunc.game, trunc.label_set(label, sink_mode))

    return IntervalValues(
        lower=solve(lower_mode),
        upper=solve(upper_mode),
        depth=depth,
        initial=base.initial,
    )


class _FloatCore:
    """A game indexed for float sweeps, built once per iteration.

    States are numbered in declaration order, and both bounds live in one
    flat vector of length ``2n``: the lower bound at ``[0, n)`` and the upper
    bound at ``[n, 2n)``.  The core is cut from one flat index of the game,
    made in one pass over its states: every successor list's state numbers
    one after the other (``ids``), each state's row in it (``starts``, the
    ``np.cumsum`` of the row lengths ``lens``, less each row's own length),
    owner codes (positions in ``_OWNERS``) and the live random rows' edge
    weights as floats (``0.0`` on every other edge).  The live states (not a
    target, able to reach one) are split by owner, and ``cut`` takes each
    group's edges out of the index as one array row per successor position,
    each state's row padded to the group's widest by its first edge:
    maximizer and minimizer rows repeat their first successor, random rows
    add it with weight ``0.0``.  The successor columns are ``ids`` at those
    edges, the random weights ``weights`` there, zeroed on the padding, and
    the minimizer ``guards`` are cut the same way from the reachable
    minimizer states.  One index ``gather`` fills the buffer ``g`` with every
    group's position 0 (random last), then the later positions (random
    first, so the random block is contiguous), both bounds; the upper
    entries are the lower ones shifted by ``n``.  ``steps`` are
    ``(ufunc, a, b, out)`` on fixed views: one multiply of the random block
    by its weights, then each group's later positions folded into its
    position 0 in order, by ``np.maximum`` or ``np.minimum`` (which never
    round, so padding and fold give exactly a row's max or min) or
    ``np.add``.  The positions 0, ``new``, are scattered through ``at``.
    Both indices are checked once, here.  ``initial`` is the first vector:
    one on the targets' lower and the reachable states' upper entries.
    Directed rounding fits the same layout: after the scatter, the lower
    half of ``out`` would round down and the upper half up.
    """

    def __init__(self, game: Game, targets: set[str], reachable: set[str]):
        import numpy as np

        self.game, self.targets, self.reachable = game, targets, reachable
        states = game.states
        n = len(states)
        self.index = index = dict(zip(states, range(n)))
        rows = list(map(game.succ.__getitem__, states))
        lens = np.array(list(map(len, rows)), dtype=np.intp)
        starts = np.cumsum(lens) - lens
        ids = np.array(list(map(index.__getitem__, chain.from_iterable(rows))), dtype=np.intp)
        owners = np.array(list(map(_OWNERS.index, game.owner.values())), dtype=np.intp)
        is_target, is_reach = np.zeros((2, n), dtype=bool)
        is_target[list(map(index.__getitem__, targets))] = True
        is_reach[list(map(index.__getitem__, reachable))] = True
        live = is_reach & ~is_target
        self.initial = np.concatenate((is_target, is_reach), dtype=float)
        random = live & (owners == _OWNERS.index(Owner.RANDOM))
        weights = np.zeros(len(ids))
        # ``numerator / denominator`` is the double ``float(w)`` gives,
        # without the detour through ``Rational.__float__``.
        weights[np.repeat(random, lens)] = [p.numerator / p.denominator
                                            for s in compress(states, random.tolist())
                                            for p in game.prob[s]]

        def cut(group):
            """The edges of the rows of ``group`` padded to the widest by
            their first, one array row per successor position, and which
            of them are real."""
            position = np.arange(lens[group].max(initial=1))[:, None]
            real = position < lens[group]
            return starts[group] + position * real, real

        # Each nonempty group's entries (lower, then upper) and successor
        # columns over both bounds, one array row per successor position.
        groups = {}
        for code, owner in enumerate(_OWNERS):
            at = np.flatnonzero(live & (owners == code))
            if at.size:
                edges, real = cut(at)
                cols = ids[edges]
                groups[owner] = (np.concatenate((at, at + n)),
                                 np.concatenate((cols, cols + n), axis=1))
                if owner is Owner.RANDOM:
                    # Zero on the padding; over both bounds.
                    w = weights[edges] * real
                    w = np.concatenate((w, w), axis=1).ravel()
        heads = [o for o in (Owner.MAX, Owner.MIN, Owner.RANDOM) if o in groups]
        tails = [o for o in (Owner.RANDOM, Owner.MAX, Owner.MIN) if o in groups]
        # The leading empty arrays let a game have no live state.
        self.at = np.concatenate([np.zeros(0, dtype=np.intp)] + [groups[o][0] for o in heads])
        self.gather = np.concatenate([np.zeros(0, dtype=np.intp)]
                                     + [groups[o][1][0] for o in heads]
                                     + [groups[o][1][1:].ravel() for o in tails])
        if self.gather.size and (self.gather.min() < 0 or self.gather.max() >= 2 * n):
            raise InvariantError("a sweep gathers from outside the value vector")
        # As many entries as live ones, and each live one hit: none repeats.
        scattered = np.zeros(2 * n, dtype=bool)
        scattered[self.at] = True
        if len(self.at) != 2 * np.count_nonzero(live) or \
                not np.array_equal(scattered, np.concatenate((live, live))):
            raise InvariantError("a sweep's scatter repeats an entry or misses a live one")
        self.g = np.empty(len(self.gather))
        self.new = self.g[:len(self.at)]
        head, start = {}, 0
        for o in heads:
            head[o] = self.g[start:start + len(groups[o][0])]
            start += len(groups[o][0])
        fold = {Owner.MAX: np.maximum, Owner.MIN: np.minimum, Owner.RANDOM: np.add}
        self.steps = []
        for o in tails:
            m, later = len(head[o]), groups[o][1][1:]
            if o is Owner.RANDOM:
                # Its head ends where its later positions start.  A row
                # reduction (``np.sum``, a matrix product) may reorder or
                # fuse the adds and change the last bits.
                block = self.g[start - m:start + later.size]
                self.steps.append((np.multiply, block, w, block))
            for _ in later:
                self.steps.append((fold[o], head[o], self.g[start:start + m], head[o]))
                start += m
        # Every reachable minimizer state, targets included: its lower-optimal
        # edges are the ones the end-component decomposition depends on.
        guarded = np.flatnonzero(is_reach & (owners == _OWNERS.index(Owner.MIN)))
        self.guarded = list(map(states.__getitem__, guarded.tolist()))
        self.guards = ids[cut(guarded)[0]]

    def sweep(self, v, out) -> None:
        """One Bellman sweep of both bounds from ``v`` into ``out``, a
        separate vector (a Jacobi sweep).  Only the live entries of ``out``
        are written: targets and states that cannot reach one keep theirs,
        which never change, so ``out`` must already hold them."""
        # The gather's indices were checked when the core was built, and
        # ``mode="raise"`` would gather into a temporary and copy it to ``g``.
        v.take(self.gather, out=self.g, mode="wrap")
        for ufunc, a, b, into in self.steps:
            ufunc(a, b, out=into)
        out[self.at] = self.new


def _iterate_reach(game: Game, targets: set[str], tol: float) -> ValueVector:
    """Interval iteration, one deflation period at a time.

    A period runs ``_DEFLATE_EVERY`` sweeps into the rows of a buffer, row
    ``j`` holding the vector after the period's sweep ``j + 1``; each sweep
    reads the row before it (row 0 reads the last row, which holds the
    previous period's result).  The last row is deflated, and then all
    rows' gaps are taken at once: the first row within ``tol`` is returned,
    the vector and bound that a stop test after every sweep returns.  The
    sweeps after it in its period are thrown away.  Deflation is never
    called when the live states settle backward from the targets and the
    states that cannot reach one (``settle_order``), the same check that
    lets ``solve_reach_exact`` skip strategy iteration: no end component
    then lies off the targets.  Otherwise, once the minimizer's edges cannot
    change the end components (no reachable minimizer state) and no
    component is capped, deflation is not called again.
    """
    import numpy as np

    reachable = can_reach(game, targets)
    core = _FloatCore(game, targets, reachable)
    n = len(game.states)
    rows = np.empty((_DEFLATE_EVERY, 2 * n))
    # Every row starts as the initial vector: the sweeps never write the
    # entries of targets and dead states.
    rows[:] = core.initial
    lowers, uppers = rows[:, :n], rows[:, n:]
    last_row = rows[-1]
    lower, upper = lowers[-1], uppers[-1]
    sweeps = [(rows[j - 1], rows[j]) for j in range(_DEFLATE_EVERY)]
    found = last = None
    deflating = settle_order(game, targets, reachable) is None
    last_gap = float("inf")
    for done in range(0, _MAX_SWEEPS, _DEFLATE_EVERY):
        for v, out in sweeps:
            core.sweep(v, out)
        if deflating:
            found = _deflate(core, lower, upper, found)
            deflating = bool(core.guarded or found[1])
        # Eight floats: a Python loop over them beats numpy's search.
        gaps = (uppers - lowers).max(axis=1).tolist()
        # Past the sweep cap a row does not count.
        for j, gap in enumerate(gaps[:_MAX_SWEEPS - done]):
            if gap <= tol:
                # Random rows can add up past 1.0, and 1.0 is still a sound lower bound.
                clamped = np.minimum(lowers[j], 1.0).tolist()
                return ValueVector(dict(zip(game.states, clamped)), error_bound=gap)
        # A deflation period maps ``v`` to a function of ``v`` alone, so a
        # vector equal to the last period's is a fixpoint.  Snapshots are
        # taken only once the gap stops shrinking.
        gap = gaps[-1]
        if last is not None and np.array_equal(last_row, last):
            raise ConvergenceError(f"interval iteration cannot reach tolerance {tol:g}: "
                                   f"the bounds stopped moving at gap {gap:g}")
        last = last_row.copy() if gap >= last_gap else None
        last_gap = gap
    raise ConvergenceError("interval iteration did not converge")


def _deflate(core: _FloatCore, lower, upper, found):
    """Cap the upper bound of target-free end components by their best
    maximizer exit.

    Sound because inside such a component the minimizer can refuse to leave,
    so the maximizer's value is at most the best value it can exit to (zero
    if it cannot exit at all).  Minimizer edges are narrowed to the ones
    optimal for the current lower bound so the components found shrink onto
    the ones the minimizer would actually defend.

    ``lower`` and ``upper`` are the two halves of a period's last row, as
    views; ``upper`` is capped in place.  ``found`` is what the previous
    call returned (``None`` on the first): the narrowed edges as a key, and
    the members and maximizer exits of each target-free component.  The
    decomposition depends on the lower bound only through those edges, so
    it is recomputed only when they change.
    """
    import numpy as np

    # One row per successor position, folded like the sweep's minimizer rows.
    near = lower[core.guards]
    best = near == functools.reduce(np.minimum, near)
    key = best.tobytes()
    if found is None or found[0] != key:
        game, index = core.game, core.index
        # A row's padding repeats its first successor, so zip stops before it.
        narrowed = {s: tuple(t for t, keep in zip(game.succ[s], row) if keep)
                    for s, row in zip(core.guarded, best.T.tolist())}
        caps = []
        for comp in maximal_end_components(Game(game.owner, {**game.succ, **narrowed}, game.prob),
                                           core.reachable):
            members = set(comp)
            if members & core.targets:
                continue
            exits = [index[t] for s in comp if game.owner[s] is Owner.MAX
                     for t in game.succ[s] if t not in members]
            caps.append((np.array([index[s] for s in comp], dtype=np.intp),
                         np.array(exits, dtype=np.intp)))
        found = key, caps
    for members, exits in found[1]:
        upper[members] = np.minimum(upper[members], upper[exits].max(initial=0.0))
    return found
