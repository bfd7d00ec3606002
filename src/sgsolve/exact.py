"""Exact reachability solvers over rationals.

Reach probabilities of a fixed strategy pair are absorption probabilities of
a finite Markov chain.  The chain's unknowns are split into strongly
connected blocks and solved one block at a time, successors first, with the
values already known outside the block on the right-hand side (topological
solving, as in Storm: Dehnert et al., CAV 2017).  Each block row is scaled
by the lcm of its denominators to integers, and the solver eliminates these
integer rows fraction-free (Bareiss, Math. Comp. 1968), so each unknown
costs one ``Fraction``, built at the end; a one-state block takes one
division by its scaled one-minus-self-loop weight.  The right-hand sides
are integers too: each known term is an int pair, not a ``Fraction``
product.  Optimal values come from strategy iteration over maximizer
policies, each evaluated by an exact minimizer best response.

An acyclic game needs none of that.  The targets (value one) and the states
with no path to them (value zero) are settled first, and then every state
all of whose successors are settled: the game form of topological solving
(Azeem et al., ATVA 2022).  When that settles every state, no cycle is left
outside those values, the Bellman equations have one solution, and one exact
Bellman step per state, in the order the states settled, computes it on
reduced int pairs, one ``Fraction`` per state.  Windows of the Figure 2 game
are of this kind.  The game value is unique, so these are the numbers
strategy iteration would reach, and no value, strategy, partition or
verdict built from them depends on which path ran.  The float guess,
strategy iteration and the chain solves below run only when a cycle remains.

The minimizer best response needs one guard: inside the region where the
minimizer can avoid the target outright (the complement of the positive
attractor) its policy is pinned to stay there, because one-step improvement
cannot discover such avoidance on its own (a self-loop looks no better than
the current move).  With that region pinned to its true value zero, a policy
with no strictly improving switch is optimal: any two pinned fixpoints would
have to differ on a recurrent class the minimizer confines, and such a class
lies inside the pinned region.  A maximizer policy with no strictly
improving switch against its best-response values is optimal too: the values
are then a full Bellman fixpoint, hence at least the game value (the least
fixpoint), and they are realized against the actual minimizer, hence at most
it.  Tie-breaks keep the incumbent choice and prefer earlier successors, so
results are deterministic.

Both players start from a float guess, as in Storm's rational search
(Dehnert et al., CAV 2017): Gauss-Seidel sweeps of value iteration in plain
Python, from the lower bound, give each owned state its greedy move.  Any
start is sound.  The two stop rules above speak only of the policies at
which iteration stops, not of where it began, and strict improvement over
finitely many policies stops from anywhere.  No float reaches an output:
the floats pick the starting moves and nothing else, every value returned
is a chain solve over rationals, and the game value is unique, so values,
and every strategy, partition and verdict built from them, are the same
from any start.  A good start only saves rounds.

Evaluations are incremental.  Each later best response starts from the
previous one's minimizer choices (re-pinned for the new maximizer policy),
which is sound from any start: under every minimizer policy each state of
the positive attractor keeps a path to the target, so those states are
transient, the induced chain has a unique solution, and strictly improving
switches descend to the same pinned fixpoint.  Each chain solve, in turn,
re-solves only the states that can reach a switched choice along the new
chain's edges: the sub-chain any other state can reach is the one it had
before, so its unique solution there is unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .graphs import attractor, strongly_connected_components
from .model import Game, Owner, SgsolveError, check_targets

ZERO = Fraction(0)
ONE = Fraction(1)

# Generous global guard: improvement is strictly monotone, so hitting this
# bound means a broken improvement step rather than a hard instance.
_MAX_ROUNDS = 100_000

# Sweeps of the float guess at most; most guesses settle well before.
_GUESS_SWEEPS = 100

# An induced Markov chain: the owned states' moves and their reach values.
Chain = tuple[dict[str, str], dict[str, Fraction]]


class ConvergenceError(SgsolveError, RuntimeError):
    """Strategy iteration failed to improve monotonically or to stop."""


def gauss_solve(rows: list[dict[int, int]], rhs: list[int]) -> list[Fraction]:
    """Solve a square sparse system with integer coefficients.

    Row ``i`` maps column indices to ``int`` coefficients; a missing column
    is zero.  The rows are eliminated below the diagonal fraction-free
    (pivoting on != 0): a row ``r`` with entry ``f`` under pivot ``p``
    becomes ``(p/g) r - (f/g) prow`` for ``g = gcd(p, f)``, then loses its
    content.  Back-substitution runs on ``(numerator, denominator)`` pairs,
    so each unknown costs one ``Fraction``; a system of one unknown is one
    division.  Neither argument is modified.
    """
    n = len(rows)
    if n == 1:
        p = rows[0].get(0)
        if not p:
            raise ValueError("singular system")
        return [Fraction(rhs[0], p)]
    a, b = [dict(row) for row in rows], list(rhs)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r].get(col)), None)
        if pivot is None:
            raise ValueError("singular system")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        prow, bp = a[col], b[col]
        p = prow[col]
        for r in range(col + 1, n):
            f = a[r].pop(col, None)
            if not f:
                continue
            g = gcd(p, f)
            ps, fs = p // g, f // g
            row = a[r]
            if ps != 1:
                for j in row:
                    row[j] *= ps
            for j, x in prow.items():
                if j != col:
                    row[j] = row.get(j, 0) - fs * x
            c = ps * b[r] - fs * bp
            g = gcd(c, *row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
                c //= g
            b[r] = c
    x: list[tuple[int, int]] = [(0, 1)] * n
    out: list[Fraction] = [ZERO] * n
    for i in reversed(range(n)):
        row = a[i]
        # The row's sum of known terms, num / den over the lcm of their denominators.
        num, den = 0, 1
        for j, c in row.items():
            xn, xd = x[j]
            if j != i and c and xn:
                scale = lcm(den, xd)
                num = num * (scale // den) + c * xn * (scale // xd)
                den = scale
        out[i] = v = Fraction(b[i] * den - num, row[i] * den)
        x[i] = v.numerator, v.denominator
    return out


def can_reach(game: Game, targets: set[str], choice: dict[str, str] | None = None) -> set[str]:
    """States with some path to ``targets`` (restricted to ``choice`` edges
    at owned states when a choice map is given)."""
    return attractor(game, targets, tuple(Owner), choice=choice)


def settle_order(game: Game, targets: set[str], reachable: set[str]) -> dict[str, int] | None:
    """Every state in the order it settles, with its stage (0 for the
    targets and the states outside ``reachable``, which cannot reach one),
    when each other state settles once all its successors have; ``None``
    when some state never does, that is when a cycle is left outside the
    stage-0 states.  Without one, the Bellman fixpoint is unique and no end
    component lies off the targets."""
    order: dict[str, int] = {}
    base = targets | (game.owner.keys() - reachable)
    if len(attractor(game, base, (), layer=order)) < len(game.states):
        return None
    return order


def chain_reach_values(game: Game, choice: dict[str, str], targets: set[str],
                       previous: Chain | None = None) -> dict[str, Fraction]:
    """Exact reach probabilities when both players' moves are fixed.

    ``choice`` must cover every owned state.  States that cannot reach the
    target in the induced chain get probability exactly 0; the remaining
    states form a linear system with a unique solution, solved one strongly
    connected block at a time in the order Tarjan emits them (successors
    first), each block in declaration order, which keeps path-like chains
    such as ruin banded so that elimination fills nothing in.

    ``previous`` is an earlier chain of the same game and targets, as its
    ``(choice, values)`` pair.  Only the states that can reach a switched
    choice along this chain's edges are solved again; every other state
    keeps its previous value, since the sub-chain it can reach is unchanged.
    """
    relevant = can_reach(game, targets, choice)
    if previous is None:
        affected = game.owner
        values = {s: ZERO for s in game.states}
    else:
        old_choice, old_values = previous
        values = dict(old_values)
        affected = can_reach(game, {s for s, t in choice.items() if old_choice[s] != t}, choice)
        for s in affected:
            values[s] = ZERO
    for t in targets:
        if t in game.owner:
            values[t] = ONE
    unknowns = [s for s in game.states if s in affected and s in relevant and s not in targets]
    moves = {s: game.distribution(s) if game.owner[s] is Owner.RANDOM else ((choice[s], ONE),)
             for s in unknowns}
    blocks = strongly_connected_components(unknowns, lambda s: [t for t, _ in moves[s]])
    for block in blocks:
        index = {s: i for i, s in enumerate(block)}
        rows, rhs = [], []
        for s in block:
            inside, known = [], []
            for t, w in moves[s]:
                j = index.get(t)
                if j is None:
                    # Solved in an earlier block, a target, or unable to reach one.
                    if v := values[t]:
                        known.append((w.numerator * v.numerator, w.denominator * v.denominator))
                else:
                    inside.append((j, w))
            # The row times the lcm of its denominators, on integers.
            scale = lcm(*(w.denominator for _, w in inside), *(d for _, d in known))
            row = {index[s]: scale}
            for j, w in inside:
                row[j] = row.get(j, 0) - w.numerator * (scale // w.denominator)
            rows.append(row)
            rhs.append(sum(n * (scale // d) for n, d in known))
        for s, v in zip(block, gauss_solve(rows, rhs)):
            values[s] = v
    return values


def _switch(game: Game, best_of, values: dict[str, Fraction], policy: dict[str, str],
            skip: set[str]) -> bool:
    """One improvement step: point each state of ``policy`` outside ``skip``
    at its first successor of best value (``best_of`` is ``max`` or
    ``min``) when that value differs from the state's; report whether any
    did.  ``values`` are the chain values of the policy, so an owned
    non-target state's value is its successor's, and a best successor of
    another value is strictly better."""
    improved = False
    for s in policy:
        if s not in skip:
            best = best_of(game.succ[s], key=values.__getitem__)
            if values[best] != values[s]:
                policy[s] = best
                improved = True
    return improved


def positive_attractor(game: Game, targets: set[str],
                       sigma: dict[str, str] | None = None) -> set[str]:
    """States from which the target is reached with positive probability
    against the minimizer (maximizer restricted to ``sigma`` if given)."""
    return attractor(game, targets, (Owner.MAX, Owner.RANDOM), choice=sigma)


def min_best_response(game: Game, targets: set[str], sigma: dict[str, str],
                      start: dict[str, str], previous: Chain | None = None) -> Chain:
    """The chain of the exact minimizer best response to a fixed maximizer
    policy, as its ``(choice, values)`` pair.

    Inside the avoidance region (no positive reach against this maximizer)
    the minimizer is pinned to a move that stays there; outside it, strictly
    improving one-step switches iterate to the unique pinned fixpoint.

    ``start`` gives each minimizer state its starting move wherever it is
    not re-pinned (other keys are ignored).  ``previous`` is the chain of an
    earlier call on the same game and targets; each evaluation re-solves
    only what changed since the one before.  Any start works: under every
    minimizer policy each state of the positive attractor keeps a path to
    the target (a maximizer state along ``sigma``, a random state through
    some successor, a minimizer state through all of them), so those states
    are transient, the chain has one solution, and improvement runs down to
    the same fixpoint from wherever it starts.
    """
    attractor = positive_attractor(game, targets, sigma)
    pi: dict[str, str] = {}
    frozen: set[str] = set()
    for s in game.states:
        if game.owner[s] is not Owner.MIN:
            continue
        move = start[s]
        if s not in attractor:
            # Some successor stays out of the attractor, else s would be in it.
            if move in attractor:
                move = next(t for t in game.succ[s] if t not in attractor)
            frozen.add(s)
        pi[s] = move
    skip = frozen | targets
    for _ in range(_MAX_ROUNDS):
        choice = dict(sigma)
        choice.update(pi)
        values = chain_reach_values(game, choice, targets, previous)
        previous = choice, values
        if not _switch(game, min, values, pi, skip):
            return previous
    raise ConvergenceError("minimizer policy iteration did not converge")


def _float_guess(game: Game, targets: set[str]) -> dict[str, str]:
    """A starting move for every owned state, from float value iteration.

    Gauss-Seidel sweeps in declaration order start from the lower bound:
    targets at 1.0, every other state at 0.0.  In each sweep a maximizer
    state takes its first successor of greatest value and a minimizer state
    its first of least value; the sweeps stop once a sweep leaves every
    choice as it was, or after ``_GUESS_SWEEPS``.  With no owned non-target
    state of two successors there is nothing to guess.  The floats only
    choose where strategy iteration starts; no value is read from them.
    """
    start = {s: game.succ[s][0] for s in game.states if game.owner[s] is not Owner.RANDOM}
    if all(len(game.succ[s]) == 1 or s in targets for s in start):
        return start
    states = game.states
    index = {s: i for i, s in enumerate(states)}
    v = [1.0 if s in targets else 0.0 for s in states]
    rows, picked = [], []
    for s in states:
        if s in targets:
            continue
        succ = [index[t] for t in game.succ[s]]
        if game.owner[s] is Owner.RANDOM:
            rows.append((index[s], None,
                         [(j, w.numerator / w.denominator) for j, w in zip(succ, game.prob[s])]))
        else:
            rows.append((index[s], max if game.owner[s] is Owner.MAX else min, succ))
            picked.append(s)
    key = v.__getitem__
    pair = None
    for _ in range(_GUESS_SWEEPS):
        chosen = []
        for i, best_of, succ in rows:
            if best_of is None:
                x = 0.0
                for j, w in succ:
                    x += w * v[j]
                v[i] = x
            else:
                j = best_of(succ, key=key)
                v[i] = v[j]
                chosen.append(j)
        if chosen == pair:
            break
        pair = chosen
    start.update(zip(picked, map(states.__getitem__, pair)))
    return start


def solve_reach_exact(game: Game, targets) -> dict[str, Fraction]:
    """Exact reach values, by state.

    The targets (value 1) and the states with no path to them (value 0) are
    settled first; a state is settled once all its successors are.  When
    that settles every state, the game has no cycle outside those states,
    its Bellman fixpoint is unique, and one exact Bellman step per state, in
    the order the states settled, gives the values on reduced int pairs,
    with no float guess, best response or chain solve.

    Otherwise, maximizer strategy iteration with exact best-response
    evaluations: switch to a strictly better successor under the current
    evaluation, re-evaluate, stop when no switch is left.  The evaluation
    sequence is strictly increasing, so the loop terminates, and a
    switch-free policy realizes a Bellman fixpoint that is squeezed onto the
    game value.  Both players start from the moves of :func:`_float_guess`,
    and each later best response from the previous round's chain.

    Either path returns the game value, which is unique, keyed in
    declaration order, so the output does not depend on the path taken.
    """
    targets = check_targets(game, targets)
    order = settle_order(game, targets, can_reach(game, targets))
    if order is None:
        return _strategy_iteration(game, targets, _float_guess(game, targets))
    pairs: dict[str, tuple[int, int]] = {}
    for s, stage in order.items():
        pairs[s] = bellman_pair(game, pairs, s) if stage else (int(s in targets), 1)
    return {s: Fraction(*pairs[s]) for s in game.states}


def _strategy_iteration(game: Game, targets: set[str],
                        start: dict[str, str]) -> dict[str, Fraction]:
    """:func:`solve_reach_exact` from the owned states' moves in ``start``."""
    sigma = {s: start[s] for s in game.states if game.owner[s] is Owner.MAX}
    chain: Chain | None = None
    for _ in range(_MAX_ROUNDS):
        previous = chain
        chain = min_best_response(game, targets, sigma, start, previous)
        start, values = chain
        # A value that is the previous chain's own object was not re-solved.
        if previous is not None and any(v is not previous[1][s] and v < previous[1][s]
                                        for s, v in values.items()):
            raise ConvergenceError("improvement cycle")
        if not _switch(game, max, values, sigma, targets):
            return values
    raise ConvergenceError("maximizer strategy iteration did not converge")


def bellman_pair(game: Game, pairs, s: str) -> tuple[int, int]:
    """One Bellman application at ``s`` without the target override, on the
    reduced ``(numerator, denominator)`` int pairs that ``pairs`` maps each
    successor to: the first greatest or least pair by cross-multiplication,
    or the non-zero terms summed over the lcm of their denominators, reduced."""
    succ = game.succ[s]
    o = game.owner[s]
    if o is Owner.RANDOM:
        num, den = 0, 1
        for w, t in zip(game.prob[s], succ):
            n, d = pairs[t]
            if n:
                d *= w.denominator
                scale = lcm(den, d)
                num, den = num * (scale // den) + w.numerator * n * (scale // d), scale
        g = gcd(num, den)
        return num // g, den // g
    bn, bd = pairs[succ[0]]
    for t in succ[1:]:
        n, d = pairs[t]
        if (n * bd > bn * d) if o is Owner.MAX else (n * bd < bn * d):
            bn, bd = n, d
    return bn, bd


def bellman_combine(game: Game, values, s: str) -> Fraction:
    """:func:`bellman_pair` on rational ``values``, as one ``Fraction``."""
    pairs = {t: (values[t].numerator, values[t].denominator) for t in game.succ[s]}
    return Fraction(*bellman_pair(game, pairs, s))


def reach_plus_values(game: Game, values) -> dict[str, Fraction]:
    """Values of "visit the target after at least one step".

    Off target these coincide with the plain reach ``values`` given; on
    target states the value is one owner-appropriate combination of the
    successors' reach values, i.e. a single Bellman application without the
    target override.
    """
    return {s: bellman_combine(game, values, s) for s in game.states}
