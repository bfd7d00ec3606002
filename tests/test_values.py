"""Quantitative valuation: exact solves, iteration, horizons, intervals."""

import itertools
import re
from fractions import Fraction

import pytest
from conftest import random_game, ruin_probability

from sgsolve import (
    Game,
    LazyGame,
    ObjectiveKind,
    Owner,
    SinkMode,
    StateInfo,
    bellman_step,
    epsilon_horizon,
    interval_values,
    swap_roles,
    value_buchi,
    value_cobuchi,
    value_reach,
    value_reach_within,
    value_safety,
)
from sgsolve import gallery, values
from sgsolve.exact import ConvergenceError, bellman_pair, can_reach, solve_reach_exact
from sgsolve.graphs import maximal_end_components

HALF = Fraction(1, 2)


def test_bellman_first_iterate_marks_absorbing_target():
    g = Game.of([
        ("a", "max", ("t",)),
        ("t", "max", ("t",)),
    ])
    v0 = {"a": Fraction(0), "t": Fraction(0)}
    assert bellman_step(g, {"t"}, v0) == {"a": Fraction(0), "t": Fraction(1)}


def test_bellman_weighted_average():
    g = Game.of([
        ("a", "rand", ("z", "t"), (Fraction(1, 3), Fraction(2, 3))),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ])
    v = {"a": Fraction(0), "t": Fraction(1), "z": Fraction(0)}
    assert bellman_step(g, {"t"}, v)["a"] == Fraction(2, 3)


def test_bellman_on_fig2_sub_chain():
    fig2 = gallery.build_fig2(8)
    v = {s: Fraction(0) for s in fig2.game.states}
    v["r1"] = HALF
    v["t"] = Fraction(1)
    assert bellman_step(fig2.game, fig2.targets, v)["r2"] == Fraction(3, 4)


def test_fig2_exact_chain_values():
    fig2 = gallery.build_fig2(12)
    v = value_reach(fig2.game, fig2.targets)
    for i in range(11):
        assert v[f"r{i}"] == 1 - Fraction(1, 2**i)
        if i >= 1:
            assert v[f"rp{i}"] == Fraction(1, 2**i)


def test_all_states_target_values_one():
    g, _ = random_game(3)
    v = value_reach(g, set(g.states))
    assert all(x == 1 for x in v.values.values())


def test_value_reach_iterate_agrees_with_exact():
    tol = 1e-6
    for seed in range(100):
        g, t = random_game(seed, n=12)
        exact = value_reach(g, t).values
        approx = value_reach(g, t, tol=tol)
        assert approx.error_bound is not None and approx.error_bound <= tol
        for s in g.states:
            assert abs(approx.values[s] - float(exact[s])) <= tol
            assert approx.values[s] <= float(exact[s]) + 1e-12


def test_value_reach_iterate_rejects_bad_tolerance():
    g, t = random_game(0)
    with pytest.raises(ValueError):
        value_reach(g, t, tol=0)


@pytest.mark.parametrize("solver", [value_reach, value_safety, value_buchi, value_cobuchi])
def test_a_tolerance_is_a_real_number(solver):
    import numpy as np

    g, t = random_game(0)
    for bad in ("1/10", True, False, np.True_):
        with pytest.raises(TypeError, match=f"^tol must be a real number, not {re.escape(repr(bad))}$"):
            solver(g, t, tol=bad)
    half = solver(g, t, tol=0.5).values
    for good in (Fraction(1, 2), np.float64(0.5), np.float32(0.5)):
        assert solver(g, t, tol=good).values == half
    for good in (1, np.int64(1)):
        assert not solver(g, t, tol=good).is_exact


@pytest.mark.parametrize("solver", [value_reach, value_safety, value_buchi, value_cobuchi])
def test_a_nan_tolerance_is_refused_before_any_sweep(solver, monkeypatch):
    import numpy as np

    def refuse(*args):
        raise AssertionError("a NaN tolerance reached interval iteration")

    monkeypatch.setattr(values, "_iterate_reach", refuse)
    built = gallery.build_gamblers_ruin(Fraction(1, 2), 5)
    for bad in (float("nan"), np.nan, np.float64("nan")):
        with pytest.raises(ValueError, match="^iterate mode needs a positive tolerance$"):
            solver(built.game, built.targets, tol=bad)


@pytest.mark.parametrize("solver", [value_reach, value_safety, value_buchi, value_cobuchi])
def test_a_tolerance_alone_selects_iterate_mode(solver):
    g, t = random_game(0)
    with pytest.raises(TypeError):
        solver(g, t, mode="exact")
    assert solver(g, t).is_exact
    assert not solver(g, t, tol=1e-6).is_exact


def test_safety_duality_is_exact_on_random_games():
    for seed in range(100):
        g, t = random_game(seed, n=10)
        direct = value_safety(g, t).values
        via_swap = value_reach(swap_roles(g), t).values
        for s in g.states:
            assert direct[s] + via_swap[s] == 1


def test_safety_of_absorbing_non_target_state():
    g = Game.of([("a", "max", ("a",)), ("t", "max", ("t",))])
    assert value_safety(g, {"t"})["a"] == 1


def test_safety_iterate_converges_from_above():
    g, t = random_game(11, n=10)
    exact = value_safety(g, t).values
    approx = value_safety(g, t, tol=1e-7)
    for s in g.states:
        assert approx.values[s] >= float(exact[s]) - 1e-12
        assert abs(approx.values[s] - float(exact[s])) <= 1e-7


def test_gamblers_ruin_safety_matches_closed_form():
    built = gallery.build_gamblers_ruin(Fraction(3, 5), 30)
    ruin = ruin_probability(Fraction(3, 5), 30, 1)
    exact = value_safety(built.game, built.targets)
    assert exact["w1"] == 1 - ruin
    approx = value_safety(built.game, built.targets, tol=1e-10)
    assert abs(approx.values["w1"] - float(1 - ruin)) <= 1e-9


def _reference_iterate(game, targets, tol):
    """Interval iteration over dicts of state names, deflating every 8 sweeps
    with a fresh end-component decomposition and testing the gap after every
    sweep: what iterate mode computes, written as plainly as possible.
    Random states add their terms left to right in an explicit loop.
    Returns the lower bound, the gap and the number of the stop sweep."""
    reachable = can_reach(game, targets)

    def sweep(v):
        out = {}
        for s in game.states:
            if s in targets:
                out[s] = 1.0
            elif s not in reachable:
                out[s] = 0.0
            elif game.owner[s] is Owner.MAX:
                out[s] = max(v[t] for t in game.succ[s])
            elif game.owner[s] is Owner.MIN:
                out[s] = min(v[t] for t in game.succ[s])
            else:
                acc = 0.0
                for w, t in zip(game.prob[s], game.succ[s]):
                    acc += float(w) * v[t]
                out[s] = acc
        return out

    def deflate(lower, upper):
        succ = dict(game.succ)
        for s in game.states:
            if game.owner[s] is Owner.MIN:
                best = min(lower[t] for t in game.succ[s])
                succ[s] = tuple(t for t in game.succ[s] if lower[t] == best)
        live = [s for s in game.states if s in reachable]
        for comp in maximal_end_components(Game(game.owner, succ, game.prob), live):
            if set(comp) & targets:
                continue
            cap = 0.0
            for s in comp:
                if game.owner[s] is Owner.MAX:
                    for t in game.succ[s]:
                        if t not in comp:
                            cap = max(cap, upper[t])
            for s in comp:
                upper[s] = min(upper[s], cap)

    lower = {s: 1.0 if s in targets else 0.0 for s in game.states}
    upper = {s: 1.0 if s in reachable else 0.0 for s in game.states}
    for sweep_no in itertools.count(1):
        lower, upper = sweep(lower), sweep(upper)
        if sweep_no % 8 == 0:
            deflate(lower, upper)
        gap = max(upper[s] - lower[s] for s in game.states)
        if gap <= tol:
            return lower, gap, sweep_no


def _identity_inputs():
    """(game, targets, tol) triples; the last ones at the benchmark's tol."""
    for owned_branch in (2, 3):
        for seed in range(150):
            yield (*random_game(seed, n=5 + seed % 12, owned_branch=owned_branch, max_targets=3),
                   1e-6)
    # Random states with 8 or more successors: a row-wise numpy sum would
    # add their terms in another order.
    for seed in range(10):
        yield (*random_game(seed, n=14, max_branch=12), 1e-6)
    # Its safety bounds change when a stale end-component decomposition is
    # kept after the minimizer's optimal edges moved.
    yield (*random_game(585, n=14, owned_branch=3, max_targets=3), 1e-6)
    for cap in (5, 30):
        built = gallery.build_gamblers_ruin(Fraction(3, 5), cap)
        yield built.game, built.targets, 1e-6
    built = gallery.build_fig2(12)
    yield built.game, built.targets, 1e-6
    # Only random states are live.
    built = gallery.build_gamblers_ruin(Fraction(3, 5), 100)
    yield built.game, built.targets, 1e-9
    built = gallery.build_fig2(40)
    yield built.game, built.targets, 1e-9
    # No live state: only the target can reach the target.
    yield Game.of([
        ("a", "rand", ("a", "z"), (HALF, HALF)),
        ("b", "min", ("a", "b")),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ]), {"t"}, 1e-9
    # No live random state: a maximizer/minimizer cycle the minimizer can
    # keep, beside a random state that cannot reach the target.
    yield Game.of([
        ("a", "max", ("b", "z")),
        ("b", "min", ("a", "t")),
        ("c", "max", ("t", "a")),
        ("r", "rand", ("z", "r"), (HALF, HALF)),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ]), {"t"}, 1e-9
    # The sweep's padding: a random group narrower than both owned groups,
    # so the random block ends before the owned ones' later positions.
    yield Game.of([
        ("a", "max", ("b", "c", "z")),
        ("b", "min", ("a", "c", "e")),
        ("c", "rand", ("t", "z"), (Fraction(1, 3), Fraction(2, 3))),
        ("d", "rand", ("c",), (1,)),
        ("e", "max", ("d", "b")),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ]), {"t"}, 1e-9
    # Every minimizer row and every random row has width 1: those groups
    # have no fold step at all.
    yield Game.of([
        ("a", "min", ("r",)),
        ("b", "min", ("m",)),
        ("m", "max", ("a", "b", "z")),
        ("r", "rand", ("n",), (1,)),
        ("n", "max", ("t", "a")),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ]), {"t"}, 1e-9
    # One live group, the maximizer's, of unequal widths.
    yield Game.of([
        ("a", "max", ("b", "z")),
        ("b", "max", ("a", "c", "z")),
        ("c", "max", ("b", "t")),
        ("t", "max", ("t",)),
        ("z", "rand", ("z",), (1,)),
    ]), {"t"}, 1e-9
    # One live group, the minimizer's.
    yield Game.of([
        ("a", "min", ("b", "t")),
        ("b", "min", ("a", "c", "t")),
        ("c", "min", ("t",)),
        ("t", "max", ("t",)),
    ]), {"t"}, 1e-9


def _live_widths(game, targets):
    """The widest live row of each owner with a live state."""
    widths = {}
    for s in can_reach(game, targets) - set(targets):
        widths[game.owner[s]] = max(widths.get(game.owner[s], 0), len(game.succ[s]))
    return widths


def test_iterate_mode_is_bit_identical_to_the_dict_reference():
    wide = 0
    uneven = {Owner.MAX: 0, Owner.MIN: 0}
    owner_sets = set()
    narrow_random = 0
    width_one = set()
    stops = set()
    for game, targets, tol in _identity_inputs():
        live = can_reach(game, targets) - set(targets)
        wide += any(len(game.succ[s]) >= 8 and game.owner[s] is Owner.RANDOM for s in live)
        for owner in uneven:
            uneven[owner] += len({len(game.succ[s]) for s in live if game.owner[s] is owner}) > 1
        owner_sets.add(frozenset(game.owner[s] for s in live))
        widths = _live_widths(game, targets)
        owned = [w for o, w in widths.items() if o is not Owner.RANDOM]
        rand = widths.get(Owner.RANDOM)
        narrow_random += rand is not None and owned != [] and rand < min(owned)
        width_one |= {o for o, w in widths.items() if w == 1}
        lower, gap, stop = _reference_iterate(game, set(targets), tol)
        reach = value_reach(game, targets, tol=tol)
        assert reach.values == lower and reach.error_bound == gap
        stops.add(stop % 8)
        lower, gap, stop = _reference_iterate(swap_roles(game), set(targets), tol)
        safety = value_safety(game, targets, tol=tol)
        assert safety.values == {s: 1.0 - v for s, v in lower.items()}
        assert safety.error_bound == gap
        stops.add(stop % 8)
    # Iterate mode tests the gaps of a whole deflation period at once: the
    # inputs stop at every position in a period, its deflated end included.
    assert stops == set(range(8))
    assert wide >= 5
    # Owned rows of unequal widths in one group: the sweep folds columns
    # padded with each row's first successor.
    assert min(uneven.values()) >= 20
    # Every owner group is skipped somewhere: no live state at all, one
    # live group of each owner alone, and none random.
    assert {frozenset(), *(frozenset({owner}) for owner in Owner)} <= owner_sets
    assert any(Owner.RANDOM not in owners and owners for owners in owner_sets)
    # The fused layout's padding: a random block narrower than the owned
    # groups' later positions, and groups of each owner with no fold step.
    assert narrow_random >= 20
    assert width_one == set(Owner)


def test_a_sweep_writes_only_the_live_entries():
    import numpy as np

    sentinel = -1.0
    cases = [random_game(seed, n=5 + seed % 12, owned_branch=3, max_targets=3)
             for seed in range(60)]
    for built in (gallery.build_gamblers_ruin(Fraction(3, 5), 30), gallery.build_fig2(12)):
        cases.append((built.game, built.targets))
    rng = np.random.default_rng(7)
    for game, targets in cases:
        reachable = can_reach(game, targets)
        core = values._FloatCore(game, set(targets), reachable)
        n = len(game.states)
        live = np.array([s in reachable and s not in targets for s in game.states] * 2)
        out = np.full(2 * n, sentinel)
        # Sweeps of values in [0, 1] give values in [0, 1] (random rows up
        # to a few ulps past 1), never the sentinel.
        core.sweep(rng.random(2 * n), out)
        assert (out[live] >= 0.0).all()
        assert (out[~live] == sentinel).all()


def test_iterate_sweeps_both_bounds_in_one_call(monkeypatch):
    # One call per sweep: the lower and upper bound share a vector.  The
    # bounds are within 1e-9 after sweep 1603; the rest of its deflation
    # period runs too, and what comes back is still that sweep's vector.
    lowers = []
    sweep = values._FloatCore.sweep

    def counted(core, v, out):
        sweep(core, v, out)
        lowers.append(out[:len(core.index)].tolist())

    monkeypatch.setattr(values._FloatCore, "sweep", counted)
    built = gallery.build_gamblers_ruin(Fraction(3, 5), 100)
    reach = value_reach(built.game, built.targets, tol=1e-9)
    assert len(lowers) == 1608
    assert list(reach.values.values()) == lowers[1602]
    assert list(reach.values.values()) != lowers[1601]


def test_iterate_stops_deflating_once_deflation_cannot_change_anything(monkeypatch):
    # On ruin only random states are live: no minimizer edge can move the
    # end components, and none is target-free, so one call shows that every
    # later one would change nothing.
    calls = 0
    deflate = values._deflate

    def counted(*args):
        nonlocal calls
        calls += 1
        return deflate(*args)

    monkeypatch.setattr(values, "_deflate", counted)
    built = gallery.build_gamblers_ruin(Fraction(3, 5), 100)
    value_reach(built.game, built.targets, tol=1e-9)
    assert calls == 1
    value_safety(built.game, built.targets, tol=1e-9)
    assert calls == 2


def test_iterate_finds_end_components_once_when_minimizer_edges_stay(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return maximal_end_components(*args)

    monkeypatch.setattr(values, "maximal_end_components", counted)
    built = gallery.build_gamblers_ruin(Fraction(3, 5), 100)
    value_reach(built.game, built.targets, tol=1e-9)
    assert len(calls) == 1


def test_iterate_sweep_cap_raises_a_named_error(monkeypatch):
    built = gallery.build_gamblers_ruin(Fraction(3, 5), 5)
    monkeypatch.setattr(values, "_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError):
        value_reach(built.game, built.targets, tol=1e-9)


def test_epsilon_horizon_is_the_first_bellman_step_above_the_goal():
    inputs = [(*random_game(seed, n=4 + seed % 9, owned_branch=b, max_targets=3), seed)
              for b in (2, 3) for seed in range(150)]
    for p in (Fraction(3, 5), HALF, Fraction(2, 5)):
        for cap in (3, 5, 8, 13, 20):
            built = gallery.build_gamblers_ruin(p, cap)
            inputs.append((built.game, built.targets, cap // 2))
    for depth in (5, 10, 20, 30):
        for built in (gallery.build_fig2(depth), gallery.build_fig2_with_u(depth)):
            inputs.append((built.game, built.targets, 0))
    for k in (1, 4, 11):
        built = gallery.build_ladder(k)
        inputs.append((built.game, built.targets, 0))
    epsilons = (Fraction(1), HALF, Fraction(1, 10), Fraction(1, 1000))
    for game, targets, pick in inputs:
        state = game.states[pick % len(game.states)]
        value = solve_reach_exact(game, targets)[state]
        v, h, least = {s: Fraction(int(s in targets)) for s in game.states}, 0, []
        for eps in epsilons:
            while not v[state] > value - eps:
                v, h = bellman_step(game, targets, v), h + 1
            least.append(h)
        assert [epsilon_horizon(game, targets, state, eps) for eps in epsilons] == least


def test_reach_within_zero_is_indicator():
    g, t = random_game(7)
    v = value_reach_within(g, t, 0)
    for s in g.states:
        assert v[s] == (1 if s in t else 0)


def test_reach_within_staircase_on_fig2():
    fig2 = gallery.build_fig2(14)
    g, t = fig2.game, fig2.targets
    previous = None
    for n in range(12):
        v = value_reach_within(g, t, n)["s0"]
        if previous is not None:
            assert v >= previous
        previous = v
    # The best n-step play climbs k rungs and cashes the exit chain.
    for k in (1, 2, 3, 4):
        assert value_reach_within(g, t, 2 * k + 1)["s0"] == 1 - Fraction(1, 2**k)


def test_reach_within_hits_fixpoint_on_acyclic_game():
    g = Game.of([
        ("a", "max", ("b", "z")),
        ("b", "rand", ("t", "z"), (HALF, HALF)),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ])
    v = value_reach_within(g, {"t"}, 10)
    assert v.values == value_reach(g, {"t"}).values


def test_epsilon_horizon_basics():
    fig2 = gallery.build_fig2(14)
    g, t = fig2.game, fig2.targets
    assert epsilon_horizon(g, t, "t", Fraction(1, 100)) == 0
    assert epsilon_horizon(g, t, "s0", Fraction(2)) == 0
    with pytest.raises(ValueError):
        epsilon_horizon(g, t, "s0", 0)


def test_epsilon_horizon_rejects_an_unknown_state():
    g = Game.of([("a", "max", ("t",)), ("t", "max", ("t",))])
    with pytest.raises(ValueError, match="unknown state 'zzz'"):
        epsilon_horizon(g, {"t"}, "zzz", Fraction(1, 100))


def test_reach_within_takes_integer_steps_only():
    import numpy as np

    g = Game.of([
        ("a", "max", ("b", "z")),
        ("b", "rand", ("t", "z"), (HALF, HALF)),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ])
    with pytest.raises(TypeError):
        value_reach_within(g, {"t"}, 1.5)
    assert (value_reach_within(g, {"t"}, np.int64(1)).values
            == value_reach_within(g, {"t"}, 1).values)


def test_reach_within_rejects_an_unknown_target():
    g = Game.of([("a", "max", ("t",)), ("t", "max", ("t",))])
    with pytest.raises(ValueError, match=r"target states not in game: \['zzz'\]"):
        value_reach_within(g, {"zzz"}, 3)


def test_epsilon_horizon_is_least():
    fig2 = gallery.build_fig2(14)
    g, t = fig2.game, fig2.targets
    eps = Fraction(1, 32)
    n = epsilon_horizon(g, t, "s0", eps)
    goal = value_reach(g, t)["s0"] - eps
    assert value_reach_within(g, t, n)["s0"] > goal
    assert value_reach_within(g, t, n - 1)["s0"] <= goal
    # Deep enough to use the fifth exit of the ladder.
    assert n == 11


def test_epsilon_horizon_at_eps_one():
    # v_0(a) = 0 is not above 1 - 1, so the least horizon is 1.
    g = Game.of([("a", "max", ("t",)), ("t", "max", ("t",))])
    assert epsilon_horizon(g, {"t"}, "a", 1) == 1
    # Below value 1 the goal is negative, and v_0 already exceeds it.
    g = Game.of([
        ("a", "rand", ("t", "z"), (HALF, HALF)),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ])
    assert epsilon_horizon(g, {"t"}, "a", 1) == 0


def _primes_after(n: int, count: int) -> list[int]:
    out = []
    while len(out) < count:
        n += 1
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


def _many_primes_game() -> tuple[Game, set[str]]:
    """A fair walk c0..c29 between the target t (above c29) and an absorbing
    z (below c0), and 20 states s_j entering c0 with probability 1/p_j and
    staying otherwise, p_j the 20 primes after 10^6: the denominators of a
    bounded-reach step share few factors."""
    rows = [(f"c{i}", "rand", (f"c{i + 1}" if i < 29 else "t", f"c{i - 1}" if i else "z"),
             (HALF, HALF)) for i in range(30)]
    rows += [("t", "max", ("t",)), ("z", "max", ("z",))]
    rows += [(f"s{j}", "rand", ("c0", f"s{j}"), (Fraction(1, p), 1 - Fraction(1, p)))
             for j, p in enumerate(_primes_after(10**6, 20))]
    return Game.of(rows), {"t"}


def _bounded_reach_inputs():
    for owned_branch in (2, 3):
        for seed in range(300):
            yield random_game(seed, n=4 + seed % 9, owned_branch=owned_branch, max_targets=3)
    for p in (Fraction(3, 5), HALF, Fraction(2, 5)):
        for cap in (*range(3, 11), 13, 17, 25, 33, 50):
            built = gallery.build_gamblers_ruin(p, cap)
            yield built.game, built.targets
    for depth in (5, 6, 7, 8, 10, 14, 20, 30):
        for built in (gallery.build_fig2(depth), gallery.build_fig2_with_u(depth)):
            yield built.game, built.targets
    for k in range(1, 12):
        built = gallery.build_ladder(k)
        yield built.game, built.targets
    yield _many_primes_game()


def _plain_step(game, targets, v) -> dict:
    """A Bellman step written apart from the package, in ``Fraction`` sums."""
    out = {}
    for s in game.states:
        succ = [v[t] for t in game.succ[s]]
        if s in targets:
            out[s] = Fraction(1)
        elif game.owner[s] is Owner.RANDOM:
            out[s] = sum((w * x for w, x in zip(game.prob[s], succ)), Fraction(0))
        else:
            out[s] = (max if game.owner[s] is Owner.MAX else min)(succ)
    return out


def _bellman_steps(game, targets, steps: int) -> list[dict]:
    """``v_0 .. v_steps`` by repeated :func:`bellman_step`, the first 12
    checked against :func:`_plain_step`, cut short one step past a fixpoint."""
    out = [{s: Fraction(int(s in targets)) for s in game.states}]
    while len(out) <= steps and (len(out) < 2 or out[-1] != out[-2]):
        out.append(bellman_step(game, targets, out[-1]))
        assert len(out) > 13 or out[-1] == _plain_step(game, targets, out[-2])
    return out


def test_bounded_reach_is_repeated_bellman_steps_to_step_40_and_past_the_fixpoint(monkeypatch):
    checked = fixpoints = 0
    budget = [float("inf")]

    def counted(*args):
        budget[0] -= 1
        assert budget[0] >= 0, "a step past the fixpoint"
        return bellman_pair(*args)

    monkeypatch.setattr(values, "bellman_pair", counted)
    for i, (game, targets) in enumerate(_bounded_reach_inputs()):
        expected = _bellman_steps(game, targets, 40)
        horizons = range(len(expected))
        if i < 600 and len(expected) == 41:
            # Each call is a fresh run from v_0, so on the random games with
            # no fixpoint by step 40 every fourth horizon past 12 is checked.
            horizons = (*range(13), *range(16, 41, 4))
        for n in horizons:
            got = value_reach_within(game, targets, n).values
            assert list(got.items()) == list(expected[n].items())
            assert all(type(x) is Fraction for x in got.values())
            checked += 1
        if expected[-1] == expected[-2]:
            # Each step up to the one that changes nothing, and no further.
            budget[0] = (len(expected) - 1) * len(game.states)
            got = value_reach_within(game, targets, 10**9).values
            assert list(got.items()) == list(expected[-1].items())
            budget[0] = float("inf")
            fixpoints += 1
    assert checked > 8_000 and fixpoints > 350


def test_value_buchi_all_states_accepting():
    g = Game.of([
        ("a", "max", ("b",)),
        ("b", "rand", ("a", "b"), (HALF, HALF)),
    ])
    v = value_buchi(g, {"a", "b"})
    assert all(x == 1 for x in v.values.values())


def test_value_buchi_empty_set_is_zero():
    g, _ = random_game(9)
    v = value_buchi(g, set())
    assert all(x == 0 for x in v.values.values())


def test_value_buchi_fig2_converges_to_half():
    for depth in (5, 8, 11):
        fig2 = gallery.build_fig2(depth)
        v = value_buchi(fig2.game, fig2.buchi)
        assert v["i"] == HALF - Fraction(1, 2 ** (depth - 1))


def test_value_buchi_below_reach_off_target():
    for seed in range(25):
        g, t = random_game(seed)
        vb = value_buchi(g, t).values
        vr = value_reach(g, t).values
        for s in g.states:
            if s not in t:
                assert vb[s] <= vr[s]


def test_value_cobuchi_duality():
    for seed in range(25):
        g, t = random_game(seed, n=6)
        vc = value_cobuchi(g, t).values
        via = value_buchi(swap_roles(g), t).values
        assert all(vc[s] + via[s] == 1 for s in g.states)


def test_interval_depth_zero_is_vacuous():
    lazy = gallery.fig2_lazy()
    iv = interval_values(lazy, ObjectiveKind.REACH, 0, label="target")
    lo, hi = iv.at_initial()
    assert lo == 0 and hi == 1


def test_interval_gambler_lower_converges_upper_stays_sound():
    lazy = gallery.gamblers_ruin_lazy(Fraction(3, 5))
    limit = Fraction(2, 3)
    previous = None
    for depth in (4, 8, 12):
        iv = interval_values(lazy, ObjectiveKind.REACH, depth)
        lo, hi = iv.at_initial()
        assert lo <= limit <= hi
        # The lower side converges geometrically; the upper side cannot do
        # better than 1 because the walk escapes any finite window with
        # probability bounded away from zero.
        assert limit - lo <= Fraction(2, 3) ** depth
        assert hi == 1
        if previous is not None:
            assert lo >= previous[0] and hi <= previous[1]
        previous = (lo, hi)


def test_interval_fig2_buchi_brackets_one_half():
    iv = interval_values(gallery.fig2_lazy(), ObjectiveKind.BUCHI, 12, label="buchi")
    lo, hi = iv.at_initial()
    assert lo <= HALF <= hi
    assert hi - lo <= Fraction(1, 2**10)


def test_interval_values_expand_each_state_once():
    # One truncation serves both bounds: the sink mode only labels the sink.
    base = gallery.fig2_lazy()
    calls = []

    def expand(sid):
        calls.append(sid)
        return base.expand(sid)

    lazy = LazyGame(base.initial, expand, base.branching_bound)
    iv = interval_values(lazy, ObjectiveKind.BUCHI, 12, label="buchi")
    assert len(calls) == len(set(calls)) > 12
    assert iv.at_initial() == interval_values(base, ObjectiveKind.BUCHI, 12,
                                              label="buchi").at_initial()


def test_interval_monotone_in_depth_fig2_buchi():
    previous = None
    for depth in (4, 6, 8, 10):
        iv = interval_values(gallery.fig2_lazy(), ObjectiveKind.BUCHI, depth, label="buchi")
        lo, hi = iv.at_initial()
        if previous is not None:
            assert lo >= previous[0] and hi <= previous[1]
        previous = (lo, hi)


def test_pessimistic_below_optimistic_statewise():
    for depth in (4, 7):
        pess = gallery.build_fig2(depth, SinkMode.PESSIMISTIC)
        opt = gallery.build_fig2(depth, SinkMode.OPTIMISTIC)
        vp = value_reach(pess.game, pess.targets)
        vo = value_reach(opt.game, opt.targets)
        for s in pess.game.states:
            assert vp[s] <= vo[s]


def test_interval_safety_flips_the_sinks():
    lazy = gallery.gamblers_ruin_lazy(Fraction(3, 5))
    survival = Fraction(1, 3)
    for depth in (4, 8, 12):
        iv = interval_values(lazy, ObjectiveKind.SAFETY, depth)
        lo, hi = iv.at_initial()
        assert lo <= survival <= hi
        assert hi - survival <= Fraction(2, 3) ** depth


def test_interval_cobuchi_brackets_the_value():
    for depth in (5, 8):
        iv = interval_values(gallery.fig2_lazy(), ObjectiveKind.COBUCHI, depth, label="buchi")
        lo, hi = iv.at_initial()
        assert lo <= HALF <= hi


def _lazy(game: Game, targets) -> LazyGame:
    """``game`` seen from its first state, its targets as the ``target`` label."""
    def expand(s):
        return StateInfo(game.owner[s], game.succ[s], game.prob.get(s),
                         frozenset({"target"}) if s in targets else frozenset())

    return LazyGame(game.states[0], expand)


def test_intervals_bracket_the_value_and_close_once_the_window_holds_the_game():
    # Below n the window may have a frontier; from n on it holds every state
    # reachable from the first, so both sinks are out of reach.
    gaps = 0
    for seed in range(200):
        game, targets = random_game(seed, n=2 + seed % 7)
        lazy, start, n = _lazy(game, targets), game.states[0], len(game.states)
        for kind, solver in values.SOLVERS.items():
            value = solver(game, targets)[start]
            for depth in range(n + 2):
                lo, hi = interval_values(lazy, kind, depth).at_initial()
                if depth >= n:
                    assert lo == hi == value, (seed, kind, depth)
                else:
                    assert lo <= value <= hi, (seed, kind, depth)
                    gaps += lo < hi
    assert gaps >= 500


def test_intervals_of_a_game_held_by_every_window_are_exact():
    # The true reach value is 1, which a lower iterate never attains.
    lazy = _lazy(Game.of([
        ("a", "rand", ("t", "a"), (HALF, HALF)),
        ("t", "max", ("t",)),
    ]), {"t"})
    for depth in range(1, 8):
        for kind, value in ((ObjectiveKind.REACH, 1), (ObjectiveKind.BUCHI, 1),
                            (ObjectiveKind.SAFETY, 0), (ObjectiveKind.COBUCHI, 0)):
            assert interval_values(lazy, kind, depth).at_initial() == (value, value)


def test_interval_rejects_unbounded_kinds():
    with pytest.raises(ValueError):
        interval_values(gallery.fig2_lazy(), ObjectiveKind.REACH_WITHIN, 3)
