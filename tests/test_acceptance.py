"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; everything not explicitly toleranced
is asserted with exact rational equality.
"""

import time
from fractions import Fraction

from conftest import random_game, ruin_probability

from sgsolve import (
    almost_sure_buchi,
    almost_sure_reach,
    almost_sure_safety,
    apply_md,
    buchi,
    buchi_md_pair,
    chain_buchi_values,
    md_enumeration_oracle,
    mdp_buchi_exact,
    optimal_max_md,
    optimal_min_md,
    reach,
    safety,
    sample_plays,
    value_buchi,
    value_reach,
    value_safety,
    SimConfig,
    Owner,
)
from sgsolve import gallery
from sgsolve.exact import solve_reach_exact
from sgsolve.transforms import rvi
from sgsolve.values import epsilon_horizon

HALF = Fraction(1, 2)


def _report(number: int, text: str, started: float) -> None:
    print(f"criterion {number} PASS ({time.time() - started:.1f}s): {text}")


def test_criterion_1_fig2_exact_exit_values():
    started = time.time()
    built = gallery.build_fig2(23)
    values = value_reach(built.game, built.targets)
    for i in range(21):
        assert values[f"r{i}"] == 1 - Fraction(1, 2**i)
        if i >= 1:
            assert values[f"rp{i}"] == Fraction(1, 2**i)
    assert values["rp0"] == 0
    _report(1, "exit-chain values 1-2^-i and 2^-i exact for i=0..20", started)


def test_criterion_2_fig2_buchi_intervals_bracket_one_half():
    started = time.time()
    from sgsolve import ObjectiveKind, interval_values

    for depth in range(4, 13):
        pess = gallery.build_fig2(depth)
        v = value_buchi(pess.game, pess.buchi)["i"]
        assert abs(v - HALF) <= Fraction(1, 2 ** (depth - 1))
        iv = interval_values(gallery.fig2_lazy(), ObjectiveKind.BUCHI, depth, label="buchi")
        lo, hi = iv.at_initial()
        assert lo <= HALF <= hi
    _report(2, "Buchi intervals contain 1/2 at depths 4..12 within 2^(1-depth)", started)


def _exit_pair(game, n: int, m: int):
    """The MD pair climbing to rung n on the upper ladder and delaying to
    rung m on the accepting ladder, first-available elsewhere."""
    import re

    sigma, pi = {}, {}
    for s in game.states:
        if game.owner[s] is Owner.MAX:
            rung = re.fullmatch(r"s(\d+)", s)
            if s == f"s{n}":
                sigma[s] = f"r{n}"
            elif rung and f"s{int(rung.group(1)) + 1}" in game.owner:
                sigma[s] = f"s{int(rung.group(1)) + 1}"
            else:
                sigma[s] = game.succ[s][0]
        elif game.owner[s] is Owner.MIN:
            rung = re.fullmatch(r"sp(\d+)", s)
            if s == f"sp{m}":
                pi[s] = f"rp{m}"
            elif rung and f"sp{int(rung.group(1)) + 1}" in game.owner:
                pi[s] = f"sp{int(rung.group(1)) + 1}"
            else:
                pi[s] = game.succ[s][0]
    return sigma, pi


def test_criterion_3_non_determinacy_mechanism_at_desk_scale():
    started = time.time()
    built = gallery.build_fig2(15)
    game = built.game
    outcomes: dict[tuple[int, int], Fraction] = {}
    for n in range(0, 11):
        for m in range(1, 13):
            sigma, pi = _exit_pair(game, n, m)
            choice = dict(sigma)
            choice.update(pi)
            value = chain_buchi_values(game, choice, set(built.buchi))["i"]
            expected = HALF * (1 - Fraction(1, 2**n)) + HALF * Fraction(1, 2**m)
            assert value == expected
            outcomes[(n, m)] = value
    for n in range(0, 11):
        assert min(outcomes[(n, m)] for m in range(1, 13)) < HALF
    for m in range(1, 11):
        sigma, pi = _exit_pair(game, m + 1, m)
        choice = dict(sigma)
        choice.update(pi)
        assert chain_buchi_values(game, choice, set(built.buchi))["i"] > HALF
    _report(3, "every fixed exit is beaten: outcomes 1/2(1-2^-n)+1/2 2^-m exact", started)


def test_criterion_4_gamblers_ruin_closed_form():
    started = time.time()
    for p in (Fraction(3, 5), Fraction(1, 2), Fraction(11, 20)):
        built = gallery.build_gamblers_ruin(p, 30)
        exact = value_reach(built.game, built.targets)
        approx = value_reach(built.game, built.targets, tol=1e-10)
        for w in range(31):
            expected = ruin_probability(p, 30, w)
            assert exact[f"w{w}"] == expected
            assert abs(approx.values[f"w{w}"] - float(expected)) <= 1e-9
            if 0 < w < 30:
                assert 0 < exact[f"w{w}"] < 1
    _report(4, "ruin values match the closed form exactly and to 1e-9 in floats", started)


def test_criterion_5_rvi_preserving_and_idempotent():
    started = time.time()
    for seed in range(100):
        g, t = random_game(seed, n=6 + seed % 7)
        values = solve_reach_exact(g, t)
        once = rvi(g, values)
        again = solve_reach_exact(once, t)
        assert again == values
        twice = rvi(once, again)
        assert twice.succ == once.succ and twice.owner == once.owner
    _report(5, "rvi preserves exact values and is idempotent on 100 seeded games", started)


def _gallery_instances():
    return [
        gallery.build_fig2(8),
        gallery.build_fig2_with_u(8),
        *(gallery.build_ladder(k) for k in range(1, 9)),
        gallery.build_gamblers_ruin(Fraction(3, 5), 30),
    ]


def test_criterion_6_partitions_partition_and_ladder_rounds():
    started = time.time()
    games = [random_game(seed, n=6 + seed % 7) for seed in range(100)]
    games += [(b.game, b.targets) for b in _gallery_instances()]
    for g, t in games:
        for part in (
            almost_sure_reach(g, t),
            almost_sure_buchi(g, t),
            almost_sure_safety(g, t),
        ):
            assert part.max_wins | part.min_wins == set(g.states)
            assert not (part.max_wins & part.min_wins)
            for s in g.states:
                assert (part.index[s] is None) == (s in part.max_wins)
    for k in range(1, 9):
        built = gallery.build_ladder(k)
        assert almost_sure_reach(built.game, built.targets).rounds == k + 1
    _report(6, "partitions cover 100 random + gallery games; ladder peels in k+1 rounds", started)


def test_criterion_7_md_strategy_certificates():
    started = time.time()
    instances = [random_game(seed, n=6 + seed % 5) for seed in range(40)]
    instances += [(b.game, b.targets) for b in _gallery_instances()]
    for g, t in instances:
        values = solve_reach_exact(g, t)
        assert solve_reach_exact(apply_md(g, optimal_min_md(g, t)), t) == values
        assert solve_reach_exact(apply_md(g, optimal_max_md(g, t)), t) == values
    buchi_instances = [random_game(seed, n=6) for seed in range(40)]
    buchi_instances += [
        (b.game, b.buchi) for b in (gallery.build_fig2(8), gallery.build_ladder(4))
    ]
    for g, t in buchi_instances:
        part = almost_sure_buchi(g, t)
        sigma, pi = buchi_md_pair(g, t)
        sigma.check(g)
        pi.check(g)
        under_sigma = mdp_buchi_exact(apply_md(g, sigma), t)
        assert all(under_sigma[s] == 1 for s in part.max_wins)
        under_pi = mdp_buchi_exact(apply_md(g, pi), t)
        assert all(under_pi[s] < 1 for s in part.min_wins)
    _report(7, "all synthesized strategies pass their exact re-solve checks", started)


def test_criterion_8_oracle_equivalence():
    started = time.time()
    for seed in range(100):
        g, t = random_game(seed, n=6 + seed % 4)
        assert md_enumeration_oracle(g, reach(*t)).values == value_reach(g, t).values
        assert md_enumeration_oracle(g, safety(*t)).values == value_safety(g, t).values
        assert md_enumeration_oracle(g, buchi(*t)).values == value_buchi(g, t).values
    _report(8, "enumeration oracle equals reach/safety/Buchi solvers on 100 games", started)


def test_criterion_9_simulation_consistency():
    started = time.time()
    eps = Fraction(1, 1000)
    runs = []

    fig2 = gallery.build_fig2(10)
    horizon = max(60, epsilon_horizon(fig2.game, fig2.targets, "r3", eps))
    runs.append((fig2.game, "r3", fig2.targets, horizon, None, None, Fraction(7, 8)))
    pair_value = solve_reach_exact(fig2.game, fig2.targets)["i"]
    runs.append((
        fig2.game, "i", fig2.targets,
        max(80, epsilon_horizon(fig2.game, fig2.targets, "i", eps)),
        optimal_max_md(fig2.game, fig2.targets),
        optimal_min_md(fig2.game, fig2.targets),
        pair_value,
    ))

    ruin = gallery.build_gamblers_ruin(Fraction(3, 5), 30)
    runs.append((
        ruin.game, "w1", ruin.targets,
        max(600, epsilon_horizon(ruin.game, ruin.targets, "w1", eps)),
        None, None, ruin_probability(Fraction(3, 5), 30, 1),
    ))

    ladder = gallery.build_ladder(3)
    runs.append((
        ladder.game, "home", ladder.targets, 40,
        optimal_max_md(ladder.game, ladder.targets), None,
        Fraction(1),
    ))

    fig2u = gallery.build_fig2_with_u(8)
    runs.append((
        fig2u.game, "u", fig2u.targets,
        max(60, epsilon_horizon(fig2u.game, fig2u.targets, "u", eps)),
        optimal_max_md(fig2u.game, fig2u.targets),
        optimal_min_md(fig2u.game, fig2u.targets),
        solve_reach_exact(fig2u.game, fig2u.targets)["u"],
    ))

    for game, start, targets, horizon, sigma, pi, expected in runs:
        cfg = SimConfig(samples=100_000, horizon=horizon, seed=2026)
        est = sample_plays(game, start, reach(*targets), cfg, sigma=sigma, pi=pi)
        assert abs(est.mean - float(expected)) <= 3 * est.half_width_95 + float(eps)

    game, start, targets, horizon, sigma, pi, _ = runs[0]
    cfg = SimConfig(samples=100_000, horizon=horizon, seed=2026)
    again = sample_plays(game, start, reach(*targets), cfg, sigma=sigma, pi=pi)
    first = sample_plays(game, start, reach(*targets), cfg, sigma=sigma, pi=pi)
    assert again == first
    _report(9, "seeded estimates within 3 half-widths + 1e-3 of exact; reruns identical", started)
