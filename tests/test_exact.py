"""Exact chain solves: the sparse block-wise elimination against a dense
reference, closed forms at sizes the dense solve could not reach, and the
named failures of strategy iteration."""

import random
import time
from fractions import Fraction
from math import gcd

import pytest
from conftest import acyclic_game, random_game, reference_solve_reach_exact, ruin_probability

from sgsolve import Game, Owner, SinkMode, gallery, swap_roles, value_reach, value_safety
from sgsolve import exact
from sgsolve.exact import (ConvergenceError, can_reach, chain_reach_values, gauss_solve,
                           min_best_response, solve_reach_exact)
from sgsolve.graphs import strongly_connected_components
from sgsolve.strategies import optimal_max_md, optimal_min_md


def _dense_reach(game: Game, choice: dict[str, str], targets) -> dict[str, Fraction]:
    """Reach probabilities of the induced chain by dense Gauss-Jordan over
    every state that has a path to the target."""

    def moves(s):
        if game.owner[s] is Owner.RANDOM:
            return list(zip(game.succ[s], game.prob[s]))
        return [(choice[s], Fraction(1))]

    relevant = {t for t in targets if t in game.owner}
    grown = True
    while grown:
        grown = False
        for s in game.states:
            if s not in relevant and any(t in relevant for t, _ in moves(s)):
                relevant.add(s)
                grown = True
    unknowns = [s for s in game.states if s in relevant and s not in targets]
    col = {s: i for i, s in enumerate(unknowns)}
    n = len(unknowns)
    a = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for s, i in col.items():
        a[i][i] += 1
        for t, w in moves(s):
            if t in targets:
                a[i][n] += w
            elif t in col:
                a[i][col[t]] -= w
    for c in range(n):
        pivot = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[pivot] = a[pivot], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    values = {s: Fraction(int(s in targets)) for s in game.states}
    values.update((s, a[i][n]) for s, i in col.items())
    return values


def _single_state_blocks(game: Game, choice: dict[str, str], targets) -> list[tuple[str, bool]]:
    """The one-state blocks of the induced chain's unknowns, each with
    whether it has a self-loop."""
    moves = {s: game.succ[s] if game.owner[s] is Owner.RANDOM else (choice[s],)
             for s in game.states}
    unknowns = [s for s in can_reach(game, set(targets), choice) if s not in targets]
    blocks = strongly_connected_components(
        unknowns, lambda s: [t for t in moves[s] if t in unknowns])
    return [(b[0], b[0] in moves[b[0]]) for b in blocks if len(b) == 1]


def test_block_solve_matches_a_dense_reference_on_random_chains():
    rng = random.Random(2024)
    checked = 0
    singles = {True: 0, False: 0}
    for seed in range(320):
        game, targets = random_game(seed, n=4 + seed % 22, owned_branch=2 + seed % 2,
                                    max_targets=3)
        for _ in range(2):
            choice = {s: rng.choice(game.succ[s]) for s in game.states
                      if game.owner[s] is not Owner.RANDOM}
            got = chain_reach_values(game, choice, set(targets))
            assert list(got.items()) == list(_dense_reach(game, choice, targets).items())
            checked += 1
            for _, loop in _single_state_blocks(game, choice, targets):
                singles[loop] += 1
    assert checked == 640
    # One-state blocks skip elimination; both kinds are covered.
    assert singles[True] > 0 and singles[False] > 0


@pytest.mark.parametrize("seed", [24, 25, 31, 3])
def test_solve_on_large_games_matches_a_dense_reference_under_the_optimal_pair(seed, monkeypatch):
    # n = 120 to 144.  Weights have denominators of at most 12, so a scaled
    # row of in-block weights alone has entries of at most 11 bits; wider
    # entries come from values an earlier block solved.
    game, targets = random_game(seed, n=120 + 8 * (seed % 6), max_targets=3)
    widths = []
    solve = exact.gauss_solve

    def spy(rows, rhs):
        widths.append(max(abs(x).bit_length() for row in rows for x in row.values()))
        return solve(rows, rhs)

    monkeypatch.setattr(exact, "gauss_solve", spy)
    values = solve_reach_exact(game, targets)
    assert max(widths) > 16
    choice = {**optimal_max_md(game, targets).choice, **optimal_min_md(game, targets).choice}
    assert list(values.items()) == list(_dense_reach(game, choice, targets).items())


def test_single_state_block_with_a_random_self_loop():
    third = Fraction(1, 3)
    game = Game.of([
        ("a", "max", ("b", "z")),
        ("b", "rand", ("b", "t", "z"), (third, third, third)),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ])
    choice = {"a": "b", "t": "t", "z": "z"}
    assert _single_state_blocks(game, choice, {"t"}) == [("b", True), ("a", False)]
    got = chain_reach_values(game, choice, {"t"})
    assert list(got.items()) == list(_dense_reach(game, choice, {"t"}).items())
    assert got["a"] == got["b"] == Fraction(1, 2)


def _switch(rng: random.Random, game: Game, choice: dict[str, str], count: int) -> dict[str, str]:
    """``choice`` with ``count`` owned states (of those that have a second
    successor) switched to another successor."""
    choice = dict(choice)
    free = [s for s in choice if len(game.succ[s]) > 1]
    for s in rng.sample(free, min(count, len(free))):
        choice[s] = rng.choice([t for t in game.succ[s] if t != choice[s]])
    return choice


def test_block_reuse_matches_a_dense_reference_after_switched_choices():
    # The dense reference's 640 pairs, each re-solved from its chain after
    # one switched choice, then from that chain after several more.
    rng = random.Random(2024)
    checked = 0
    for seed in range(320):
        game, targets = random_game(seed, n=4 + seed % 22, owned_branch=2 + seed % 2,
                                    max_targets=3)
        for _ in range(2):
            choice = {s: rng.choice(game.succ[s]) for s in game.states
                      if game.owner[s] is not Owner.RANDOM}
            chain = choice, chain_reach_values(game, choice, set(targets))
            for count in (1, rng.randint(2, 5)):
                switched = _switch(rng, game, chain[0], count)
                got = chain_reach_values(game, switched, set(targets), chain)
                assert list(got.items()) == list(_dense_reach(game, switched, targets).items())
                checked += switched != chain[0]
                chain = switched, got
    assert checked > 1000


def _first_successors(game: Game) -> dict[str, str]:
    """Every owned state's first listed move."""
    return {s: game.succ[s][0] for s in game.states if game.owner[s] is not Owner.RANDOM}


def test_best_response_does_not_depend_on_its_start():
    # Any earlier chain, whatever its minimizer choices (inside the positive
    # attractor or not), leads to the values of a cold first-successor start.
    rng = random.Random(7)
    for seed in range(200):
        game, targets = random_game(seed, n=4 + seed % 18, owned_branch=3, max_targets=2)
        targets = set(targets)
        owned = [s for s in game.states if game.owner[s] is not Owner.RANDOM]
        sigma = {s: rng.choice(game.succ[s]) for s in owned if game.owner[s] is Owner.MAX}
        cold = min_best_response(game, targets, sigma, _first_successors(game))
        start = {s: rng.choice(game.succ[s]) for s in owned}
        warm = min_best_response(game, targets, sigma, start,
                                 (start, chain_reach_values(game, start, targets)))
        assert warm[1] == cold[1]
        assert chain_reach_values(game, warm[0], targets) == cold[1]


def test_ruin_at_cap_400_matches_the_closed_form():
    p = Fraction(3, 5)
    built = gallery.build_gamblers_ruin(p, 400)
    started = time.perf_counter()
    values = solve_reach_exact(built.game, built.targets)
    assert time.perf_counter() - started < 1.0
    for w in range(401):
        assert values[f"w{w}"] == ruin_probability(p, 400, w)


def test_fig2_at_depth_160_matches_the_exit_values():
    built = gallery.build_fig2(160)
    started = time.perf_counter()
    values = solve_reach_exact(built.game, built.targets)
    assert time.perf_counter() - started < 1.0
    for i in range(159):
        assert values[f"r{i}"] == 1 - Fraction(1, 2**i)
        if i >= 1:
            assert values[f"rp{i}"] == Fraction(1, 2**i)


def test_gauss_solve_pivots_past_a_zero_diagonal():
    rows = [{1: 2}, {0: 1, 1: 1}]
    rhs = [4, 3]
    assert gauss_solve(rows, rhs) == [Fraction(1), Fraction(2)]
    assert rows == [{1: 2}, {0: 1, 1: 1}] and rhs == [4, 3]


def test_gauss_solve_divides_out_one_unknown():
    assert gauss_solve([{0: 3}], [2]) == [Fraction(2, 3)]


@pytest.mark.parametrize("rows", [
    [{0: 1, 1: 1}, {0: 2, 1: 2}],
    [{0: 1}, {}],
    [{}],
    [{0: 0}],
])
def test_gauss_solve_rejects_a_singular_system(rows):
    with pytest.raises(ValueError, match="singular system"):
        gauss_solve(rows, [1, 2][:len(rows)])


def _two_round_game(owner: str, moves) -> Game:
    """A sure path of ten random steps to the goal, declared far end first,
    so that each float sweep moves the goal's value one step back along it.
    The coin's 1/2 shows after one sweep, the path's 1 only after ten: the
    guess stops on the worse move for the owner of ``a``, so the iteration
    needs a second round.  The path's first step stays put with probability
    1/2: that cycle keeps the game off the backward-induction path, which
    solves acyclic games without strategy iteration."""
    path = [(f"p{i}", "rand", (f"p{i + 1}",), (1,)) for i in range(1, 9)]
    return Game.of([
        ("a", owner, moves),
        ("p0", "rand", ("p1", "p0"), (Fraction(1, 2), Fraction(1, 2))),
        *path,
        ("p9", "rand", ("goal",), (1,)),
        ("coin", "rand", ("goal", "dead"), (Fraction(1, 2), Fraction(1, 2))),
        ("goal", "max", ("goal",)),
        ("dead", "max", ("dead",)),
    ])


@pytest.mark.parametrize("owner, moves, value, message", [
    ("max", ("p0", "coin"), Fraction(1), "maximizer strategy iteration did not converge"),
    ("min", ("p0", "coin"), Fraction(1, 2), "minimizer policy iteration did not converge"),
])
def test_round_cap_raises_a_named_error(monkeypatch, owner, moves, value, message):
    game = _two_round_game(owner, moves)
    values = solve_reach_exact(game, {"goal"})
    assert values["a"] == value
    assert values[exact._float_guess(game, {"goal"})["a"]] != value
    monkeypatch.setattr(exact, "_MAX_ROUNDS", 1)
    with pytest.raises(ConvergenceError, match=message):
        solve_reach_exact(game, {"goal"})


def test_a_lower_re_solved_value_is_an_improvement_cycle(monkeypatch):
    game = _two_round_game("max", ("p0", "coin"))
    evaluate, rounds = exact.min_best_response, []

    def lowered(*args):
        choice, values = evaluate(*args)
        rounds.append(args)
        if len(rounds) == 2:
            # A new object below the first round's value: the check compares it.
            values = {**values, "coin": values["coin"] - Fraction(1, 4)}
        return choice, values

    monkeypatch.setattr(exact, "min_best_response", lowered)
    with pytest.raises(ConvergenceError, match="improvement cycle"):
        solve_reach_exact(game, {"goal"})


def _start_cases():
    """880 seeded random games, then ruin, fig2, fig2u and ladder with
    their target and Büchi sets, each also role-swapped."""
    for seed in range(880):
        yield random_game(seed, n=3 + seed % 24, owned_branch=2 + seed % 3, max_targets=3)
    built = [gallery.build_gamblers_ruin(p, cap)
             for p in (Fraction(1, 2), Fraction(3, 5), Fraction(1, 3)) for cap in (3, 17, 50)]
    built += [gallery.build_fig2(depth) for depth in (2, 5, 9, 20)]
    built += [gallery.build_fig2_with_u(depth) for depth in (4, 8)]
    built += [gallery.build_ladder(k) for k in (1, 2, 5, 12)]
    for b in built:
        for targets in (b.targets, b.buchi):
            if targets:
                yield b.game, targets
                yield swap_roles(b.game), targets


def test_values_do_not_depend_on_where_strategy_iteration_starts():
    # The float guess only picks the start; strategy iteration from the first
    # successors, or from random moves, must stop at the same values.
    rng = random.Random(21)
    count = guessed = 0
    for game, targets in _start_cases():
        targets = set(targets)
        values = solve_reach_exact(game, targets)
        first = _first_successors(game)
        assert exact._strategy_iteration(game, targets, first) == values
        start = {s: rng.choice(game.succ[s]) for s in first}
        assert exact._strategy_iteration(game, targets, start) == values
        count += 1
        guessed += exact._float_guess(game, targets) != first
    assert count >= 900
    # The guess moves off the first successors on most of them.
    assert guessed > count / 2


def _fig2_windows():
    """fig2 windows at depths 1 to 64 and fig2u windows at depths 4 to 64
    (the least with ``u``'s successors), in both sink modes."""
    for mode in SinkMode:
        for depth in range(1, 65):
            yield gallery.build_fig2(depth, mode)
            if depth >= 4:
                yield gallery.build_fig2_with_u(depth, mode)


def _referee_cases():
    """600 seeded acyclic and 600 seeded random games, the fig2 and fig2u
    windows, ruin and ladder with their target and Büchi sets, each also
    role-swapped."""
    cases = [acyclic_game(seed, n=1 + seed % 20, owned_branch=2 + seed % 3, max_targets=3)
             for seed in range(600)]
    cases += [random_game(seed, n=3 + seed % 24, owned_branch=2 + seed % 3, max_targets=3)
              for seed in range(600)]
    built = [*_fig2_windows()]
    built += [gallery.build_gamblers_ruin(p, cap)
              for p in (Fraction(1, 2), Fraction(3, 5), Fraction(1, 3)) for cap in (3, 17, 50)]
    built += [gallery.build_ladder(k) for k in (1, 2, 5, 12)]
    cases += [(b.game, targets) for b in built for targets in (b.targets, b.buchi) if targets]
    for game, targets in cases:
        yield game, targets
        yield swap_roles(game), targets


def _diagonal_pivots(rows):
    """The diagonal pivots of the fraction-free elimination of ``rows`` in
    declaration order, with no row swap, up to the first that is not
    positive."""
    a = [dict(row) for row in rows]
    pivots = []
    for col, prow in enumerate(a):
        p = prow.get(col, 0)
        pivots.append(p)
        if p <= 0:
            break
        for row in a[col + 1:]:
            f = row.pop(col, None)
            if not f:
                continue
            g = gcd(p, f)
            for j in row:
                row[j] *= p // g
            for j, x in prow.items():
                if j != col:
                    row[j] = row.get(j, 0) - f // g * x
            g = gcd(*row.values()) or 1
            for j in row:
                row[j] //= g
    return pivots


def test_chain_blocks_eliminate_on_a_positive_diagonal(monkeypatch):
    # Each block is I - Q over transient states, a nonsingular M-matrix, so
    # elimination in declaration order keeps every diagonal pivot positive
    # and the pivot search in ``gauss_solve`` never swaps rows.
    blocks = []

    def checked(rows, rhs):
        pivots = _diagonal_pivots(rows)
        assert len(pivots) == len(rows) and all(p > 0 for p in pivots), pivots
        blocks.append(len(rows))
        return gauss_solve(rows, rhs)

    monkeypatch.setattr(exact, "gauss_solve", checked)
    cases = [random_game(seed, n=3 + seed % 24, owned_branch=2 + seed % 3, max_targets=3)
             for seed in range(600)]
    cases += [(b.game, b.targets) for b in (gallery.build_gamblers_ruin(Fraction(2, 5), cap)
                                           for cap in (9, 50, 100))]
    for game, targets in cases:
        solve_reach_exact(game, targets)
        solve_reach_exact(swap_roles(game), targets)
    # The ruin chain at cap 100 is one block of 99 unknowns.
    assert len(blocks) > 5000 and max(blocks) == 99


def test_backward_induction_equals_strategy_iteration_from_the_float_guess():
    count = 0
    for game, targets in _referee_cases():
        values = solve_reach_exact(game, targets)
        reference = reference_solve_reach_exact(game, targets)
        assert values == reference
        assert list(values) == list(reference) == list(game.states)
        count += 1
    assert count >= 3400


def test_fig2_windows_solve_without_strategy_iteration(monkeypatch):
    windows = [*_fig2_windows()]
    expected = [(reference_solve_reach_exact(b.game, b.targets),
                 {s: 1 - v for s, v in reference_solve_reach_exact(swap_roles(b.game),
                                                                   b.targets).items()})
                for b in windows]

    def refuse(*args, **kwargs):
        raise AssertionError("an acyclic game reached strategy iteration")

    for name in ("_strategy_iteration", "_float_guess", "chain_reach_values"):
        monkeypatch.setattr(exact, name, refuse)
    for b, (reach_values, safety_values) in zip(windows, expected):
        assert value_reach(b.game, b.targets).values == reach_values
        assert value_safety(b.game, b.targets).values == safety_values
