"""MD strategy constructions, their re-solve certificates, thresholds,
transducers and the strategy file format."""

from fractions import Fraction

import pytest
from conftest import random_game

from sgsolve import (
    Game,
    InvariantError,
    Owner,
    ValueDecreaseError,
    almost_sure_buchi,
    apply_md,
    buchi_md_pair,
    format_strategy,
    md_to_transducer,
    mdp_buchi_exact,
    optimal_max_md,
    optimal_max_md_no_decrease,
    optimal_min_md,
    parse_strategy,
    reachplus_max_md,
    reachplus_min_md,
    threshold_decide,
)
from sgsolve import gallery
from sgsolve.exact import reach_plus_values, solve_reach_exact
from sgsolve.strategies import MDStrategy, TransducerStrategy

HALF = Fraction(1, 2)


def _strip_max_decreasing(game, targets):
    values = solve_reach_exact(game, targets)
    succ = {
        s: (
            tuple(t for t in game.succ[s] if values[t] >= values[s])
            if game.owner[s] is Owner.MAX and s not in targets
            else game.succ[s]
        )
        for s in game.states
    }
    return Game(dict(game.owner), succ, dict(game.prob))


def test_optimal_min_picks_the_cheaper_successor():
    g = Game.of([
        ("m", "min", ("half", "quarter")),
        ("half", "rand", ("t", "z"), (HALF, HALF)),
        ("quarter", "rand", ("t", "z"), (Fraction(1, 4), Fraction(3, 4))),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ])
    assert optimal_min_md(g, {"t"}).choice["m"] == "quarter"


def test_optimal_min_on_u_extension_takes_the_ladder():
    built = gallery.build_fig2_with_u(8)
    strategy = optimal_min_md(built.game, built.targets)
    # On a finite truncation the ladder entry is the strict minimizer.
    assert strategy.choice["u"] == "s0"


def test_optimal_min_re_solve_reproduces_values():
    for seed in range(30):
        g, t = random_game(seed)
        values = solve_reach_exact(g, t)
        residual = apply_md(g, optimal_min_md(g, t))
        assert solve_reach_exact(residual, t) == values


def test_optimal_max_re_solve_reproduces_values():
    for seed in range(30):
        g, t = random_game(seed)
        values = solve_reach_exact(g, t)
        residual = apply_md(g, optimal_max_md(g, t))
        assert solve_reach_exact(residual, t) == values


def test_rank_tiebreak_prefers_the_closer_preserving_successor():
    # Both successors preserve the value 1/2; x resolves immediately.
    g = Game.of([
        ("a", "max", ("b", "x")),
        ("b", "max", ("x",)),
        ("x", "rand", ("t", "z"), (HALF, HALF)),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ])
    strategy = optimal_max_md_no_decrease(g, {"t"})
    assert strategy.choice["a"] == "x"


def test_unique_preserving_successor_is_forced():
    g = Game.of([
        ("a", "max", ("x",)),
        ("x", "rand", ("t", "z"), (HALF, HALF)),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ])
    assert optimal_max_md_no_decrease(g, {"t"}).choice["a"] == "x"


def test_progress_ranks_reject_values_that_are_not_the_games():
    # A self-loop at positive value never cashes out; the named error holds
    # under python -O too.
    from sgsolve.strategies import _progress_ranks

    g = Game.of([("a", "max", ("a", "t")), ("t", "max", ("t",))])
    assert _progress_ranks(g, {"a": Fraction(1), "t": Fraction(1)}, {"t"}) == {"t": 0, "a": 1}
    with pytest.raises(InvariantError, match="no progress layer at a"):
        _progress_ranks(g, {"a": HALF, "t": Fraction(1)}, {"t"})


def test_no_decrease_precondition_lists_offenders():
    g = Game.of([
        ("a", "max", ("x", "z")),
        ("x", "rand", ("t", "z"), (HALF, HALF)),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ])
    with pytest.raises(ValueDecreaseError) as err:
        optimal_max_md_no_decrease(g, {"t"})
    assert ("a", "z") in err.value.offenders


def test_no_decrease_on_stripped_games_re_solves():
    for seed in range(30):
        g, t = random_game(seed)
        values = solve_reach_exact(g, t)
        residual = _strip_max_decreasing(g, t)
        strategy = optimal_max_md_no_decrease(residual, t)
        assert solve_reach_exact(apply_md(residual, strategy), t) == values


def test_ladder_residual_strategy_wins_from_home():
    built = gallery.build_ladder(4)
    residual = _strip_max_decreasing(built.game, built.targets)
    strategy = optimal_max_md_no_decrease(residual, built.targets)
    assert strategy.choice["home"] == "goal"
    fixed = apply_md(residual, strategy)
    values = solve_reach_exact(fixed, built.targets)
    assert values == solve_reach_exact(built.game, built.targets)
    assert values["home"] == 1


def test_reachplus_on_absorbing_target_loop():
    g = Game.of([("t", "min", ("t",)), ("a", "max", ("t", "a"))])
    vplus = reach_plus_values(g, solve_reach_exact(g, {"t"}))
    assert vplus["t"] == 1
    assert reachplus_min_md(g, {"t"}).choice["t"] == "t"
    g2 = Game.of([("t", "max", ("t",)), ("a", "min", ("t", "a"))])
    assert reachplus_max_md(g2, {"t"}).choice["t"] == "t"


def test_optimal_max_steps_from_a_target_to_its_best_successor():
    # The first successor z is absorbing off the target; a leads back to t.
    g = Game.of([
        ("t", "max", ("z", "a")),
        ("z", "max", ("z",)),
        ("a", "rand", ("t",), (1,)),
    ])
    assert optimal_max_md(g, {"t"}).choice == {"t": "a", "z": "z"}


def test_reachplus_min_exits_the_accepting_ladder():
    fig2 = gallery.build_fig2(9)
    strategy = reachplus_min_md(fig2.game, fig2.buchi)
    vplus = reach_plus_values(fig2.game, solve_reach_exact(fig2.game, fig2.buchi))
    for i in range(1, 7):
        assert vplus[f"sp{i}"] == Fraction(1, 2**i)
        assert strategy.choice[f"sp{i}"] == f"rp{i}"


def test_reachplus_re_solve_certificates():
    for seed in range(40):
        g, t = random_game(seed)
        values = solve_reach_exact(g, t)
        vplus = reach_plus_values(g, values)
        residual = apply_md(g, reachplus_min_md(g, t))
        resolved = solve_reach_exact(residual, t)
        assert reach_plus_values(residual, resolved) == vplus
        residual = apply_md(g, reachplus_max_md(g, t))
        resolved = solve_reach_exact(residual, t)
        assert reach_plus_values(residual, resolved) == vplus


def _certificate_cases():
    """600 seeded random games and the gallery games, each gallery game with
    its target and its Buchi labels."""
    cases = [random_game(seed, n=4 + seed % 12) for seed in range(600)]
    built = [gallery.build_fig2(d) for d in (4, 8, 30)]
    built += [gallery.build_ladder(k) for k in (1, 3, 16)] + [gallery.build_fig2_with_u(8)]
    return cases + [(b.game, labels) for b in built for labels in (b.buchi, b.targets)]


def _reference_reachplus_min_choice(game, targets):
    """The minimizer's revisit choices with an explicit target-state rule: an
    off-target successor of exactly the revisit value when it is below one,
    else the first successor."""
    values = solve_reach_exact(game, targets)
    vplus = reach_plus_values(game, values)
    choice = optimal_min_md(game, targets).choice
    for s in choice:
        if s in targets:
            choice[s] = game.succ[s][0] if vplus[s] == 1 else next(
                t for t in game.succ[s] if t not in targets and values[t] == vplus[s])
    return choice


def _reference_reachplus_max_choice(game, targets):
    """The maximizer's revisit choices as built under the precondition that
    no maximizer move decreases the revisit value (``ValueDecreaseError``
    otherwise): a target state steps into the target or to a successor of
    its own revisit value, of least progress rank."""
    from sgsolve.strategies import _progress_ranks, _uniform_max_choice, _wasteful_moves

    targets = set(targets)
    values = solve_reach_exact(game, targets)
    vplus = reach_plus_values(game, values)
    offenders = _wasteful_moves(game, vplus, targets)
    if offenders:
        raise ValueDecreaseError(offenders)
    rank = _progress_ranks(game, values, targets)
    choice = _uniform_max_choice(game, values, targets)
    for s in choice:
        if s in targets:
            choice[s] = min((t for t in game.succ[s] if t in targets or vplus[t] == vplus[s]),
                            key=rank.__getitem__)
    return choice


def test_reachplus_constructions_match_the_references_and_re_solve():
    refused = 0
    for g, t in _certificate_cases():
        vplus = reach_plus_values(g, solve_reach_exact(g, t))
        pi = reachplus_min_md(g, t)
        # Same choices, in the same order.
        assert list(pi.choice.items()) == list(_reference_reachplus_min_choice(g, t).items())
        sigma = reachplus_max_md(g, t)
        try:
            reference = _reference_reachplus_max_choice(g, t)
        except ValueDecreaseError:
            refused += 1
        else:
            assert list(sigma.choice.items()) == list(reference.items())
        for strategy in (pi, sigma):
            residual = apply_md(g, strategy)
            assert reach_plus_values(residual, solve_reach_exact(residual, t)) == vplus
    # Enough cases where only the construction without the precondition answers.
    assert refused > 100


def test_buchi_pair_on_all_accepting_cycle():
    g = Game.of([
        ("a", "max", ("b",)),
        ("b", "rand", ("a", "b"), (HALF, HALF)),
    ])
    sigma, pi = buchi_md_pair(g, {"a", "b"})
    assert sigma.choice == {"a": "b"}
    assert almost_sure_buchi(g, {"a", "b"}).min_wins == frozenset()


def test_buchi_pair_fig2_certificates():
    fig2 = gallery.build_fig2(8)
    part = almost_sure_buchi(fig2.game, fig2.buchi)
    sigma, pi = buchi_md_pair(fig2.game, fig2.buchi)
    for i in range(1, 6):
        assert pi.choice[f"sp{i}"] == f"rp{i}"
    under_pi = mdp_buchi_exact(apply_md(fig2.game, pi), fig2.buchi)
    assert under_pi["i"] < 1
    assert all(under_pi[s] < 1 for s in part.min_wins)
    under_sigma = mdp_buchi_exact(apply_md(fig2.game, sigma), fig2.buchi)
    assert all(under_sigma[s] == 1 for s in part.max_wins)


def test_buchi_pair_ladder_moves_straight_to_goal():
    built = gallery.build_ladder(3)
    sigma, _ = buchi_md_pair(built.game, built.buchi)
    assert sigma.choice["home"] == "goal"


def test_buchi_pair_with_empty_accepting_set_is_total():
    g = Game.of([("a", "min", ("b", "a")), ("b", "max", ("a", "b"))])
    sigma, pi = buchi_md_pair(g, set())
    sigma.check(g)
    pi.check(g)
    assert almost_sure_buchi(g, set()).max_wins == frozenset()



def _subgame_buchi_sigma(game, buchi_set):
    """The maximizer's Buchi choices built the long way, in state order: the
    revisit-optimal construction, with its exact solves, on the surviving
    subgame, and the first successor off it."""
    alive = almost_sure_buchi(game, buchi_set).max_wins
    choice = {s: game.succ[s][0] for s in game.states
              if game.owner[s] is Owner.MAX and s not in alive}
    if alive:
        owner = {s: game.owner[s] for s in game.states if s in alive}
        succ = {s: tuple(t for t in game.succ[s] if t in alive) if o is Owner.MAX
                else game.succ[s] for s, o in owner.items()}
        prob = {s: game.prob[s] for s, o in owner.items() if o is Owner.RANDOM}
        choice.update(reachplus_max_md(Game(owner, succ, prob), alive & set(buchi_set)).choice)
    return {s: choice[s] for s in game.states if s in choice}


def test_buchi_maximizer_matches_the_revisit_optimal_subgame_construction():
    cases = [random_game(seed, n=4 + seed % 12) for seed in range(1000)]
    built = [gallery.build_fig2(d) for d in (4, 8, 30)]
    built += [gallery.build_ladder(k) for k in (1, 3, 64)] + [gallery.build_fig2_with_u(8)]
    cases += [(b.game, labels) for b in built for labels in (b.buchi, b.targets)]
    chosen = 0
    for g, t in cases:
        sigma, _ = buchi_md_pair(g, t)
        # Same choices, in state order.
        assert list(sigma.choice.items()) == list(_subgame_buchi_sigma(g, t).items())
        alive = almost_sure_buchi(g, t).max_wins
        chosen += any(sum(u in alive for u in g.succ[s]) > 1 for s in sigma.choice if s in alive)
    # Enough cases where the region leaves the maximizer a real choice.
    assert chosen > 100


def _buchi_pair_cases():
    """3,000 seeded random games of 4 to 17 states with branching 2 to 4,
    and the gallery games, each with its Buchi labels and its target."""
    for seed in range(3000):
        width = 2 + seed // 14 % 3
        yield random_game(seed, n=4 + seed % 14, max_branch=width, owned_branch=width)
    built = [gallery.build_fig2(d) for d in (4, 8, 10, 30)]
    built += [gallery.build_ladder(k) for k in (1, 3, 16, 64)] + [gallery.build_fig2_with_u(8)]
    for b in built:
        yield b.game, b.buchi
        yield b.game, b.targets


def test_buchi_pair_certificates_on_random_games():
    for g, t in _buchi_pair_cases():
        part = almost_sure_buchi(g, t)
        sigma, pi = buchi_md_pair(g, t)
        sigma.check(g)
        pi.check(g)
        under_pi = mdp_buchi_exact(apply_md(g, pi), t)
        assert all(under_pi[s] < 1 for s in part.min_wins)
        under_sigma = mdp_buchi_exact(apply_md(g, sigma), t)
        assert all(under_sigma[s] == 1 for s in part.max_wins)
        for s in part.max_wins:
            if g.owner[s] is Owner.MAX:
                assert sigma.choice[s] in part.max_wins


def test_buchi_pair_runs_no_exact_solve(monkeypatch):
    import sgsolve.exact

    def refuse(*args, **kwargs):
        raise AssertionError("exact solve called")

    # Every exact solve evaluates minimizer best responses.
    monkeypatch.setattr(sgsolve.exact, "min_best_response", refuse)
    cases = [(b.game, b.buchi) for b in (gallery.build_fig2(8), gallery.build_ladder(3))]
    cases += [random_game(seed, n=4 + seed % 14) for seed in range(200)]
    for g, t in cases:
        sigma, pi = buchi_md_pair(g, t)
        sigma.check(g)
        pi.check(g)


def test_buchi_minimizer_seed_escapes_down_the_reach_peel_layers():
    # m escapes to c, which never reaches t.  The naive escape, the first
    # successor outside the region {t}, is a, from where t is reached
    # almost surely however often the play returns to m.
    g = Game.of([
        ("m", "min", ("a", "c")),
        ("a", "rand", ("t", "m"), (HALF, HALF)),
        ("c", "max", ("c",)),
        ("t", "max", ("t",)),
    ])
    _, pi = buchi_md_pair(g, {"t"})
    assert pi.choice["m"] == "c"
    assert mdp_buchi_exact(apply_md(g, pi), {"t"})["m"] < 1
    assert mdp_buchi_exact(apply_md(g, MDStrategy(Owner.MIN, {"m": "a"})), {"t"})["m"] == 1


def test_threshold_below_value_minimizer_wins():
    fig2 = gallery.build_fig2(8)
    verdict = threshold_decide(fig2.game, fig2.targets, Fraction(9, 10), False, "r3")
    assert verdict.winner == "min"
    assert verdict.reason == "value<c"
    residual = apply_md(fig2.game, verdict.strategy)
    assert solve_reach_exact(residual, fig2.targets)["r3"] == Fraction(7, 8)


def test_threshold_strictly_positive_maximizer_wins():
    fig2 = gallery.build_fig2(8)
    verdict = threshold_decide(fig2.game, fig2.targets, Fraction(0), True, "s0")
    assert verdict.winner == "max"
    residual = apply_md(fig2.game, verdict.strategy)
    assert solve_reach_exact(residual, fig2.targets)["s0"] > 0


def test_threshold_one_on_ladder_guard_state():
    built = gallery.build_ladder(3)
    verdict = threshold_decide(built.game, built.targets, Fraction(1), False, "q1")
    assert verdict.winner == "min"
    residual = apply_md(built.game, verdict.strategy)
    assert solve_reach_exact(residual, built.targets)["q1"] < 1


def test_threshold_case_tags_at_the_value():
    # Value 1/2 at a maximizer-free chain: no decreasing maximizer edges.
    g = Game.of([
        ("x", "rand", ("t", "z"), (HALF, HALF)),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ])
    verdict = threshold_decide(g, {"t"}, HALF, False, "x")
    assert (verdict.winner, verdict.reason) == ("max", "case-1")
    verdict = threshold_decide(g, {"t"}, HALF, True, "x")
    assert (verdict.winner, verdict.reason) == ("min", "case-4")
    verdict = threshold_decide(g, {"t"}, Fraction(0), False, "z")
    assert verdict.winner == "max" and verdict.strategy is not None


def test_threshold_case_two_uses_the_residual_game():
    # The maximizer has a decreasing edge, the minimizer no increasing one.
    g = Game.of([
        ("a", "max", ("x", "z")),
        ("x", "rand", ("t", "z"), (HALF, HALF)),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ])
    verdict = threshold_decide(g, {"t"}, HALF, False, "a")
    assert (verdict.winner, verdict.reason) == ("max", "case-2")
    residual = apply_md(g, verdict.strategy)
    assert solve_reach_exact(residual, {"t"})["a"] == HALF


def test_threshold_case_three_at_one():
    g = Game.of([
        ("a", "max", ("t", "z")),
        ("m", "min", ("x", "a")),
        ("x", "rand", ("t", "z"), (HALF, HALF)),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ])
    # a has a decreasing edge (to z) and m an increasing one (to a).
    verdict = threshold_decide(g, {"t"}, Fraction(1), False, "a")
    assert (verdict.winner, verdict.reason) == ("max", "case-3")
    residual = apply_md(g, verdict.strategy)
    assert solve_reach_exact(residual, {"t"})["a"] == 1


def test_threshold_out_of_scope_corner():
    g = Game.of([
        ("a", "max", ("x", "z")),
        ("m", "min", ("z", "x")),
        ("x", "rand", ("t", "z"), (HALF, HALF)),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ])
    # val(a) = 1/2 with a decreasing maximizer edge a->z and an increasing
    # minimizer edge m->x: none of the paper's four cases applies, and the
    # finite game's optimal strategy a->x attains 1/2.
    verdict = threshold_decide(g, {"t"}, HALF, False, "a")
    assert (verdict.winner, verdict.reason) == ("max", "none-applicable")
    assert verdict.strategy.choice["a"] == "x"
    assert solve_reach_exact(apply_md(g, verdict.strategy), {"t"})["a"] == HALF
    assert threshold_decide(g, {"t"}, HALF, True, "a").winner == "min"
    assert threshold_decide(g, {"t"}, Fraction(1), False, "t").winner == "max"
    assert threshold_decide(g, {"t"}, Fraction(0), False, "z").winner == "max"
    with pytest.raises(ValueError):
        threshold_decide(g, {"t"}, Fraction(3, 2), False, "a")


def test_threshold_rejects_an_unknown_start():
    g = Game.of([("a", "max", ("t",)), ("t", "max", ("t",))])
    with pytest.raises(ValueError, match="unknown state 'zzz'"):
        threshold_decide(g, {"t"}, HALF, False, "zzz")


def test_threshold_verdicts_hold_up_on_random_games():
    for seed in range(25):
        g, t = random_game(seed, n=6)
        values = solve_reach_exact(g, t)
        start = g.states[seed % len(g.states)]
        for c, strict in ((values[start], False), (values[start], True),
                          (HALF, False), (Fraction(1), False)):
            verdict = threshold_decide(g, t, c, strict, start)
            residual = apply_md(g, verdict.strategy)
            achieved = solve_reach_exact(residual, t)[start]
            if verdict.winner == "max":
                assert achieved > c if strict else achieved >= c
            else:
                assert achieved <= c if strict else achieved < c


def test_every_verdict_at_the_value_re_solves():
    # At the value a strict threshold goes to the minimizer and a non-strict
    # one to the maximizer, and fixing the exported strategy leaves exactly
    # the value at the start state.
    none_applicable = 0
    for g, t in _certificate_cases():
        values = solve_reach_exact(g, t)
        resolved = {}
        for s in g.states:
            for strict in (False, True):
                verdict = threshold_decide(g, t, values[s], strict, s)
                assert verdict.winner == ("min" if strict else "max")
                assert verdict.strategy.owner is Owner(verdict.winner)
                key = (verdict.winner, tuple(verdict.strategy.choice.items()))
                if key not in resolved:
                    resolved[key] = solve_reach_exact(apply_md(g, verdict.strategy), t)
                assert resolved[key][s] == values[s]
                none_applicable += verdict.reason == "none-applicable"
    # Enough answers that none of the paper's countable-game cases decides.
    assert none_applicable > 100


def test_transducer_round_trip_and_dirac_shape():
    g, t = random_game(3)
    strategy = optimal_min_md(g, t)
    lifted = md_to_transducer(strategy)
    assert len(lifted.modes) == 1
    assert all(len(d) == 1 and next(iter(d.values())) == 1 for d in lifted.choose.values())


def test_strategy_file_round_trip_md():
    g, t = random_game(8)
    strategy = optimal_min_md(g, t)
    parsed = parse_strategy(format_strategy(strategy))
    assert isinstance(parsed, MDStrategy)
    assert parsed.owner is Owner.MIN
    assert parsed.choice == strategy.choice


def test_strategy_file_round_trip_transducer():
    strategy = TransducerStrategy(
        owner=Owner.MAX,
        modes=("m0", "m1"),
        initial="m0",
        update={("m0", "a"): {"m1": Fraction(1, 2), "m0": Fraction(1, 2)}},
        choose={("m0", "a"): {"b": Fraction(1)}, ("m1", "a"): {"c": Fraction(1)}},
    )
    parsed = parse_strategy(format_strategy(strategy))
    assert isinstance(parsed, TransducerStrategy)
    assert parsed == strategy


def test_strategy_validation_errors():
    g = Game.of([("a", "max", ("a",)), ("b", "max", ("a", "b"))])
    with pytest.raises(ValueError):
        MDStrategy(Owner.MAX, {"a": "a"}).check(g)  # missing b
    with pytest.raises(ValueError):
        MDStrategy(Owner.MAX, {"a": "b", "b": "b"}).check(g)  # a->b not an edge
    with pytest.raises(ValueError):
        parse_strategy("choose a b\n")


@pytest.mark.parametrize("stray", ["nosuch", "m"])
def test_md_choice_where_the_owner_does_not_move_is_rejected(stray):
    g = Game.of([("a", "max", ("a", "m")), ("m", "min", ("a",))])
    MDStrategy(Owner.MAX, {"a": "m"}).check(g)
    with pytest.raises(ValueError, match=f"^choice at {stray}, which is not a max state$"):
        MDStrategy(Owner.MAX, {"a": "m", stray: "a"}).check(g)


def test_transducer_row_checks_allow_missing_rows_and_totality_needs_them():
    g = Game.of([("a", "max", ("a", "b")), ("b", "max", ("a",))])
    partial = TransducerStrategy(Owner.MAX, ("m0",), "m0", choose={("m0", "a"): {"b": Fraction(1)}})
    partial.check_rows(g)
    with pytest.raises(ValueError, match="^no successor row for mode m0 at b$"):
        partial.check(g)
    stray = TransducerStrategy(Owner.MAX, ("m0",), "m0", {("m0", "x"): {"m0": Fraction(1)}})
    for check in (stray.check_rows, stray.check):
        with pytest.raises(ValueError, match="^update row for mode m0 at x, which is not a state$"):
            check(g)


@pytest.mark.parametrize("text, message", [
    ("strategy max md\nchoose a a\nchoose b a\nchoose a b\n",
     "line 4: repeated choose row at a"),
    ("strategy max transducer\ninitial m\nmode m\nupdate m a m 1\nupdate m a m 1\n",
     "line 5: repeated update row for mode m at a to m"),
    ("strategy max transducer\ninitial m\nmode m\ninitial n\nmode n\n",
     "line 4: repeated initial row"),
    ("strategy max transducer\ninitial m0\nmode m0\nmode m1\nmode m0\n",
     "line 5: repeated mode row for m0"),
    ("strategy max transducer\ninitial m\nmode m\n# weight\nchoose m a b 1/0\n",
     "line 5: malformed rational '1/0': expected p or p/q with q >= 1"),
    ("strategy max transducer\ninitial m\nmode m\nchoose m a b 0.5\n",
     "line 4: malformed rational '0.5': expected p or p/q with q >= 1"),
    ("# sigma\nstrategy foo md\nchoose a a\n",
     "line 2: a strategy belongs to max or min, not 'foo'"),
    ("strategy rand md\nchoose a a\n", "line 1: a strategy belongs to max or min, not 'rand'"),
    ("\n# header below\n\nstrategy max foo\n", "line 4: unknown strategy form 'foo'"),
])
def test_strategy_file_errors_name_their_line(text, message):
    with pytest.raises(ValueError) as err:
        parse_strategy(text)
    assert str(err.value) == message


@pytest.mark.parametrize("bad", ["a#b", "", "a b", "a\u2028b", "a\x85b"])
def test_format_strategy_refuses_an_id_it_cannot_read_back(bad):
    with pytest.raises(ValueError, match="cannot write id") as err:
        format_strategy(MDStrategy(Owner.MAX, {"a": "b", bad: "a"}))
    assert repr(bad) in str(err.value)
    for strategy in (
        TransducerStrategy(Owner.MIN, ("m0", bad), "m0", choose={("m0", "a"): {"b": Fraction(1)}}),
        TransducerStrategy(Owner.MIN, ("m0",), "m0", update={("m0", "a"): {bad: Fraction(1)}}),
        TransducerStrategy(Owner.MIN, ("m0",), "m0", choose={("m0", "a"): {bad: Fraction(1)}}),
    ):
        with pytest.raises(ValueError, match="cannot write id") as err:
            format_strategy(strategy)
        assert repr(bad) in str(err.value)


def test_format_strategy_names_the_first_unwritable_id_in_writing_order():
    with pytest.raises(ValueError, match="'x y'"):
        format_strategy(MDStrategy(Owner.MAX, {"a": "x y", "b#": "a"}))
    strategy = TransducerStrategy(Owner.MAX, ("m0",), "m0",
                                  update={("m0", "u v"): {"m0": Fraction(1)}},
                                  choose={("m0", "a#"): {"b": Fraction(1)}})
    with pytest.raises(ValueError, match="'u v'"):
        format_strategy(strategy)


@pytest.mark.parametrize("name", ["a-b", "x/y", "0", "choose", "md", "été"])
def test_strategy_round_trip_writable_ids(name):
    md = MDStrategy(Owner.MIN, {name: "t", "t": name})
    assert parse_strategy(format_strategy(md)) == md
    choose = {(name, name): {"t": Fraction(1, 3), name: Fraction(2, 3)},
              ("m", name): {"t": Fraction(1)}}
    transducer = TransducerStrategy(Owner.MAX, (name, "m"), name,
                                    update={(name, "a"): {"m": Fraction(1)}}, choose=choose)
    assert parse_strategy(format_strategy(transducer)) == transducer
