"""Property tests over generated games.

Hypothesis runs derandomized with a bounded number of examples, so the suite
stays deterministic and quick; a failure prints its smallest game.
"""

import random
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from conftest import (acyclic_game, float_core_layout, reference_almost_sure_reach,
                      reference_buchi_peel, reference_float_core, reference_plays,
                      reference_solve_reach_exact)
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from sgsolve import (Game, Owner, SimConfig, TransducerStrategy, Verdict,
                     almost_sure_buchi, almost_sure_reach, apply_md, bellman_step, buchi,
                     buchi_md_pair, cobuchi, decided, epsilon_horizon, gallery,
                     md_enumeration_oracle, mdp_buchi_exact, reach, reach_plus, rvi, safety,
                     swap_roles, value_buchi, value_cobuchi, value_reach, value_reach_within,
                     value_safety)
from sgsolve import exact
from sgsolve.exact import (ConvergenceError, bellman_combine, can_reach, gauss_solve,
                           solve_reach_exact)
from sgsolve.values import _FloatCore
from sgsolve.winning import buchi_peel

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100, database=None)


@st.composite
def games(draw, max_states: int, owned_width: int) -> tuple[Game, frozenset[str]]:
    """A game of 3 to ``max_states`` states with no dead ends, exact weights
    summing to one, and one or two targets.

    Successor lists and targets are prefixes of drawn permutations: drawing
    states one by one leans towards ``s0`` and mostly yields games whose
    values are all 0 or 1.
    """
    n = draw(st.integers(3, max_states))
    ids = [f"s{i}" for i in range(n)]
    rows = []
    for s in ids:
        owner = draw(st.sampled_from(("max", "min", "rand")))
        width = draw(st.integers(1, 3 if owner == "rand" else owned_width))
        succs = draw(st.permutations(ids))[:width]
        if owner == "rand":
            raw = draw(st.lists(st.integers(1, 4), min_size=width, max_size=width))
            rows.append((s, owner, succs, [Fraction(x, sum(raw)) for x in raw]))
        else:
            rows.append((s, owner, succs))
    targets = draw(st.permutations(ids))[:draw(st.integers(1, 2))]
    return Game.of(rows), frozenset(targets)


# Eight states with two choices each make at most 256 MD pairs, far inside
# ``oracle.PAIR_BOUND`` (the oracle refuses larger games).
_ORACLE_SIZED = games(max_states=8, owned_width=2)


@PROPERTY
@given(_ORACLE_SIZED)
def test_exact_reach_values_equal_the_enumeration_oracle(case):
    game, targets = case
    values = solve_reach_exact(game, targets)
    # Steer the search towards games with values strictly inside (0, 1).
    target(float(sum(0 < v < 1 for v in values.values())))
    assert values == md_enumeration_oracle(game, reach(*targets)).values


@PROPERTY
@given(st.integers(0, 2**32), st.integers(1, 8), st.integers(1, 2))
def test_backward_induction_equals_the_oracle_and_strategy_iteration(seed, n, owned_width):
    # Eight live states of two choices each make at most 256 MD pairs.
    game, targets = acyclic_game(seed, n=n, owned_branch=owned_width, max_targets=2)
    values = solve_reach_exact(game, targets)
    # Steer the search towards games with values strictly inside (0, 1).
    target(float(sum(0 < v < 1 for v in values.values())))
    assert values == reference_solve_reach_exact(game, targets)
    assert values == md_enumeration_oracle(game, reach(*targets)).values


@PROPERTY
@given(games(max_states=12, owned_width=3), st.randoms(use_true_random=False))
def test_exact_values_do_not_depend_on_the_start(case, rng):
    # The float guess only picks where strategy iteration starts.
    game, targets = case
    targets = set(targets)
    values = solve_reach_exact(game, targets)
    first = {s: game.succ[s][0] for s in game.states if game.owner[s] is not Owner.RANDOM}
    start = {s: rng.choice(game.succ[s]) for s in first}
    # Steer the search towards games whose guess moves off the first successors.
    target(float(sum(first[s] != t for s, t in exact._float_guess(game, targets).items())))
    assert exact._strategy_iteration(game, targets, first) == values
    assert exact._strategy_iteration(game, targets, start) == values


@PROPERTY
@given(games(max_states=12, owned_width=3))
def test_pruning_moves_peel_indices_never_the_partition(case):
    game, targets = case
    values = solve_reach_exact(game, targets)
    value_one = {s for s in game.states if values[s] == 1}
    pruned_game = rvi(game, values)
    # Steer the search towards games where pruning removes many edges.
    target(float(sum(len(game.succ[s]) - len(pruned_game.succ[s]) for s in game.states)))
    plain = almost_sure_reach(game, targets)
    pruned = almost_sure_reach(pruned_game, targets)
    assert plain.max_wins == pruned.max_wins == value_one


@PROPERTY
@given(games(max_states=12, owned_width=3))
def test_peels_equal_the_referee_that_rebuilds_the_confined_set(case):
    game, targets = case
    part = almost_sure_reach(game, targets)
    # Steer the search towards games that peel for many rounds.
    target(float(part.rounds))
    assert (part.max_wins, part.rounds, part.index) == reference_almost_sure_reach(game, targets)
    peel = buchi_peel(game, targets)
    assert (peel.partition.max_wins, peel.partition.rounds, peel.partition.index,
            list(peel.min_pick.items())) == reference_buchi_peel(game, targets)


@PROPERTY
@given(st.integers(0, 2**32), st.integers(2, 40), st.integers(1, 4), st.integers(1, 3),
       st.integers(1, 3))
def test_peels_count_down_acyclic_regions_as_the_referee_peels_them(seed, n, branch, owned,
                                                                     goals):
    # An acyclic region is counted down from its first round instead of
    # closed in every round.
    game, targets = acyclic_game(seed, n=n, max_branch=branch, owned_branch=owned,
                                 max_targets=goals)
    part = almost_sure_reach(game, targets)
    # Steer the search towards games that peel for many rounds.
    target(float(part.rounds))
    assert (part.max_wins, part.rounds, part.index) == reference_almost_sure_reach(game, targets)
    peel = buchi_peel(game, targets)
    assert (peel.partition.max_wins, peel.partition.rounds, peel.partition.index,
            list(peel.min_pick.items())) == reference_buchi_peel(game, targets)


@PROPERTY
@given(games(max_states=12, owned_width=3))
def test_buchi_pair_certifies_the_almost_sure_buchi_partition(case):
    game, buchi_set = case
    part = almost_sure_buchi(game, buchi_set)
    # Steer the search towards many edges among the minimizer's winning
    # states, where the minimizer's escape choices matter.
    target(float(sum(len(set(game.succ[s]) & part.min_wins)
                     for s in part.min_wins if game.owner[s] is not Owner.MAX)))
    sigma, pi = buchi_md_pair(game, buchi_set)
    under_pi = mdp_buchi_exact(apply_md(game, pi), buchi_set)
    assert all(under_pi[s] < 1 for s in part.min_wins)
    under_sigma = mdp_buchi_exact(apply_md(game, sigma), buchi_set)
    assert all(under_sigma[s] == 1 for s in part.max_wins)


_GALLERY = [(built.game, frozenset(built.targets)) for built in (
    gallery.build_fig2(6), gallery.build_fig2_with_u(5), gallery.build_ladder(4),
    gallery.build_gamblers_ruin(Fraction(2, 5), 7),
)]


@PROPERTY
@given(st.one_of(games(max_states=12, owned_width=3), st.sampled_from(_GALLERY)))
def test_bounded_reach_equals_repeated_bellman_steps(case):
    game, targets = case
    v = {s: Fraction(int(s in targets)) for s in game.states}
    # Steer the search towards games whose values keep moving for long.
    target(float(sum(value_reach_within(game, targets, 12)[s] != v[s] for s in game.states)))
    for steps in range(13):
        assert list(value_reach_within(game, targets, steps).values.items()) == list(v.items())
        v = bellman_step(game, targets, v)


@PROPERTY
@given(st.one_of(games(max_states=12, owned_width=3), st.sampled_from(_GALLERY)), st.data())
def test_epsilon_horizon_is_least(case, data):
    game, targets = case
    state = data.draw(st.sampled_from(game.states))
    eps = Fraction(1, data.draw(st.integers(1, 64)))
    h = epsilon_horizon(game, targets, state, eps)
    goal = solve_reach_exact(game, targets)[state] - eps
    assert value_reach_within(game, targets, h)[state] > goal
    if h:
        assert value_reach_within(game, targets, h - 1)[state] <= goal


def _uniform_walker(game: Game, owner: Owner) -> TransducerStrategy:
    """A one-mode strategy that moves to each successor with equal weight."""
    choose = {("m", s): {t: Fraction(1, len(game.succ[s])) for t in game.succ[s]}
              for s in game.states if game.owner[s] is owner}
    return TransducerStrategy(owner, ("m",), "m", {}, choose)


_OF_CODE = (Verdict.UNDECIDED, Verdict.VIOLATED_FOREVER, Verdict.SATISFIED_FOREVER)
_OF_VERDICT = {None: Verdict.UNDECIDED, False: Verdict.VIOLATED_FOREVER,
               True: Verdict.SATISFIED_FOREVER}


@PROPERTY
@given(games(max_states=8, owned_width=3),
       st.sampled_from((reach, safety, reach_plus, buchi, cobuchi, "reach<=")),
       st.integers(0, 5), st.integers(0, 2**63 - 1), st.data())
def test_prefix_verdicts_are_the_table_and_the_reference_samplers(case, make, steps, seed, data):
    game, targets = case
    obj = reach(*targets, steps=steps) if make == "reach<=" else make(*targets)
    start = data.draw(st.sampled_from(game.states))
    cfg = SimConfig(samples=6, horizon=data.draw(st.integers(1, 10)), seed=seed)
    walks = reference_plays(game, start, obj, cfg, _uniform_walker(game, Owner.MAX),
                            _uniform_walker(game, Owner.MIN))
    table = obj.verdicts(game)
    decided_plays = 0
    for visited, verdict, _ in walks:
        decided_plays += verdict is not None
        first = 0
        for k, state in enumerate(visited, 1):
            got = decided(obj, game, visited[:k])
            # The first decided code of the shared table along the prefix...
            first = first or table.code(state, k - 1)
            assert got == _OF_CODE[first]
            # ...and the reference sampler's own rule, which decides a play
            # at its last visited state or leaves it open at the horizon.
            assert got == _OF_VERDICT[verdict if k == len(visited) else None]
    # Steer the search towards games where plays get decided.
    target(float(decided_plays))


# Exact rationals with small and with more than 64-bit denominators.
_RATIONALS = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(2**64, 2**72)),
)


@st.composite
def nonsingular_systems(draw) -> tuple[list[dict[int, Fraction]], list[Fraction]]:
    """A sparse system whose rows are those of a strictly diagonally dominant
    matrix in a drawn order, so that zero diagonals force row swaps."""
    n = draw(st.integers(1, 7))
    rows = []
    for i in range(n):
        row = {j: draw(_RATIONALS) for j in range(n) if j != i and draw(st.booleans())}
        margin = draw(st.builds(Fraction, st.integers(1, 2**70), st.integers(1, 2**70)))
        row[i] = draw(st.sampled_from((1, -1))) * (sum(abs(x) for x in row.values()) + margin)
        if row[i].denominator == 1 and draw(st.booleans()):
            row[i] = int(row[i])
        rows.append(row)
    rows = draw(st.permutations(rows))
    return rows, [draw(_RATIONALS) for _ in range(n)]


def _dense_solve(rows, rhs) -> list[Fraction]:
    """Dense Gauss-Jordan over ``Fraction``."""
    n = len(rows)
    a = [[Fraction(row.get(j, 0)) for j in range(n)] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[pivot] = a[pivot], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n] for row in a]


@PROPERTY
@given(nonsingular_systems(), st.data())
def test_gauss_solve_equals_dense_gauss_jordan_and_rejects_singular_systems(system, data):
    rows, rhs = system
    # Each equation times the lcm of its denominators, as chain solves pass it.
    int_rows, int_rhs = [], []
    for row, b in zip(rows, rhs):
        scale = lcm(Fraction(b).denominator, *(Fraction(x).denominator for x in row.values()))
        int_rows.append({j: int(x * scale) for j, x in row.items()})
        int_rhs.append(int(b * scale))
    kept = [dict(row) for row in int_rows], list(int_rhs)
    got = gauss_solve(int_rows, int_rhs)
    assert all(type(x) is Fraction for x in got)
    assert got == _dense_solve(rows, rhs)
    assert (int_rows, int_rhs) == kept
    if len(rows) > 1:
        # A row replaced by a multiple of another leaves the system singular.
        k, i = data.draw(st.permutations(range(len(rows))))[:2]
        c = data.draw(st.integers(-2**70, 2**70).filter(bool))
        singular = list(int_rows)
        singular[k] = {j: c * x for j, x in int_rows[i].items()}
        with pytest.raises(ValueError, match="singular system"):
            gauss_solve(singular, int_rhs)


@PROPERTY
@given(games(max_states=8, owned_width=2), st.data())
def test_random_average_equals_the_fraction_sum(case, data):
    game, _ = case
    # Zero values are common, so some rows have only zero successors.
    values = {s: data.draw(st.one_of(st.just(Fraction(0)), _RATIONALS.map(Fraction)))
              for s in game.states}
    for s in game.states:
        if game.owner[s] is Owner.RANDOM:
            got = bellman_combine(game, values, s)
            assert type(got) is Fraction
            assert got == sum((w * values[t] for t, w in game.distribution(s)), Fraction(0))
            assert bellman_combine(game, dict.fromkeys(game.states, Fraction(0)), s) == 0


@PROPERTY
@given(st.lists(st.integers(1, 200), min_size=2, max_size=6))
@example([4, 41, 48, 2, 36, 24])
def test_iterate_values_lie_in_the_unit_interval(weights):
    # One random state into absorbing targets: its float weights can add up
    # past 1.0 in successor order, which the lower reach iterate must not.
    targets = [f"t{i}" for i in range(len(weights))]
    game = Game.of([("r", "rand", targets, [Fraction(w, sum(weights)) for w in weights])]
                   + [(t, "max", (t,)) for t in targets])
    for solver in (value_reach, value_safety, value_buchi, value_cobuchi):
        vec = solver(game, set(targets), Fraction(1, 10**9))
        assert all(0 <= v <= 1 for v in vec.values.values()), (solver.__name__, vec.values)


@st.composite
def core_games(draw) -> tuple[Game, frozenset[str]]:
    """A game of 1 to 10 states shaped for the iterate core's build, drawn
    from a seed: one to three owners, so a group can be empty, each with its
    own widest row, so a group can be of width 1 and random rows of unequal
    widths; trapped states, which move only among themselves and are never
    targets, interleaved in declaration order; zero to two targets,
    absorbing or not; and so, now and then, no live state at all.  (Drawn
    field by field, the search's small first examples are mostly of one
    owner and have no live state.)"""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ids = [f"s{i}" for i in range(rng.randint(1, 10))]
    trapped = [s for s in ids if rng.random() < 0.25]
    owners = rng.sample(("max", "min", "rand"), rng.randint(1, 3))
    widest = {owner: rng.randint(1, 4) for owner in owners}
    free = [s for s in ids if s not in trapped]
    targets = rng.sample(free, min(rng.choice((0, 1, 1, 2, 2)), len(free)))
    absorbing = rng.random() < 0.5
    rows = []
    for s in ids:
        owner = rng.choice(owners)
        pool = trapped if s in trapped else ids
        succs = [s] if absorbing and s in targets else \
            rng.sample(pool, rng.randint(1, min(widest[owner], len(pool))))
        if owner == "rand":
            raw = [rng.randint(1, 4) for _ in succs]
            rows.append((s, owner, succs, [Fraction(x, sum(raw)) for x in raw]))
        else:
            rows.append((s, owner, succs))
    return Game.of(rows), frozenset(targets)


def _iterate_all(game: Game, targets) -> list:
    """Every iterate objective's vector at tol 1e-9, or its refusal."""
    out = []
    for solver in (value_reach, value_safety, value_buchi, value_cobuchi):
        try:
            out.append(solver(game, targets, 1e-9))
        except ConvergenceError as err:
            out.append(str(err))
    return out


@PROPERTY
@given(core_games())
def test_the_float_core_is_the_reference_layout_and_gives_its_values(case):
    game, targets = case
    for played in (game, swap_roles(game)):
        reachable = can_reach(played, set(targets))
        reference = _FloatCore.__new__(_FloatCore)
        reference_float_core(reference, played, set(targets), reachable)
        core = _FloatCore(played, set(targets), reachable)
        assert float_core_layout(core) == float_core_layout(reference)
    solved = _iterate_all(game, targets)
    with mock.patch.object(_FloatCore, "__init__", reference_float_core):
        assert _iterate_all(game, targets) == solved
