"""Qualitative winning partitions and the peeling fixpoints."""

from fractions import Fraction

import pytest
from conftest import (acyclic_game, random_game, reference_almost_sure_reach,
                      reference_buchi_peel)

from sgsolve import (
    Game,
    Owner,
    almost_sure_buchi,
    almost_sure_reach,
    almost_sure_safety,
    apply_md,
    buchi,
    format_game,
    md_enumeration_oracle,
    mdp_buchi_exact,
    positive_reach_set,
    rvi,
    swap_roles,
    value_buchi,
    value_reach,
    value_safety,
)
from sgsolve import gallery, winning
from sgsolve.cli import main
from sgsolve.exact import bellman_combine, solve_reach_exact
from sgsolve.model import SinkMode, truncate
from sgsolve.strategies import _buchi_max_md, _buchi_min_md
from sgsolve.winning import _patched_subgame, buchi_peel

HALF = Fraction(1, 2)


def test_positive_reach_excludes_unreachable_component():
    g = Game.of([
        ("a", "max", ("t",)),
        ("t", "max", ("t",)),
        ("island", "max", ("island",)),
    ])
    assert positive_reach_set(g, {"t"}) == {"a", "t"}
    assert positive_reach_set(g, set()) == frozenset()


def test_positive_reach_on_fig2():
    # The absorbing dead ends fail, and so do the minimizer ladder states:
    # the minimizer can climb forever without ever touching t (in the full
    # countable game just as on any truncation).
    fig2 = gallery.build_fig2(8)
    pos = positive_reach_set(fig2.game, fig2.targets)
    sink = fig2.truncation.sink
    doomed = {"r0", "rp0", sink, "s7"} | {f"sp{j}" for j in range(8)}
    assert pos == set(fig2.game.states) - doomed
    assert {"i", "t", "s0", "r1", "r6"} <= pos


def test_positive_reach_needs_all_min_successors():
    g = Game.of([
        ("m", "min", ("t", "z")),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ])
    assert "m" not in positive_reach_set(g, {"t"})


def test_almost_sure_reach_ladder_rounds_and_region():
    for k in (1, 2, 3, 5):
        built = gallery.build_ladder(k)
        part = almost_sure_reach(built.game, built.targets)
        assert part.rounds == k + 1
        assert part.max_wins == {"goal", "home"}
        # One level per round: the coin chain first, then each guard level.
        assert part.index["dead"] == 0
        assert part.index["c"] == 1
        for j in range(1, k + 1):
            assert part.index[f"q{j}"] == j + 1
            assert part.index[f"x{j}"] == j + 1
        assert part.index["home"] is None


def _referee_cases():
    """Seeded random and acyclic games, ladders and fig2 windows in both
    sink modes, with and without u, each with a reach target set and a
    Buchi set.  Acyclic regions, the ladders and fig2 are counted down
    from their first round, fig2 for up to 38 rounds."""
    for seed in range(600):
        game, targets = random_game(seed, n=4 + seed % 37, max_branch=1 + seed % 4,
                                    owned_branch=1 + seed % 3, max_targets=1 + seed % 4)
        yield game, targets, targets
    for seed in range(600):
        game, targets = acyclic_game(seed, n=8 + seed % 40, max_branch=2 + seed % 3,
                                     owned_branch=1 + seed % 2, max_targets=1 + seed % 2)
        yield game, targets, targets
    for k in range(1, 25):
        b = gallery.build_ladder(k)
        yield b.game, b.targets, b.buchi
    for depth in range(1, 41):
        trunc = truncate(gallery.fig2_lazy(), depth)
        for mode in SinkMode:
            yield trunc.game, trunc.label_set("target", mode), trunc.label_set("buchi", mode)
    for depth in (4, 5, 9, 24):
        for mode in SinkMode:
            b = gallery.build_fig2_with_u(depth, mode)
            yield b.game, b.targets, b.buchi


def test_peels_match_the_referee_that_rebuilds_the_confined_set():
    cases = many_rounds = 0
    for game, targets, buchi_set in _referee_cases():
        part = almost_sure_reach(game, targets)
        assert (part.max_wins, part.rounds, part.index) == reference_almost_sure_reach(game, targets)
        peel = buchi_peel(game, buchi_set)
        assert (peel.partition.max_wins, peel.partition.rounds, peel.partition.index,
                list(peel.min_pick.items())) == reference_buchi_peel(game, buchi_set)
        cases += 1
        many_rounds += part.rounds >= 2
    assert cases == 600 + 600 + 24 + 80 + 8
    # Many cases peel for two rounds or more; on an acyclic region every
    # round is counted down.
    assert many_rounds >= 300


def test_buchi_md_halves_re_solve_on_every_referee_case():
    # Each half, fixed, leaves a one-player game that the end-component
    # solver settles exactly: below one on the minimizer's region under its
    # half, one on the maximizer's region under its half.
    for game, _, buchi_set in _referee_cases():
        peel = buchi_peel(game, buchi_set)
        part = peel.partition
        under_pi = mdp_buchi_exact(apply_md(game, _buchi_min_md(game, peel)), buchi_set)
        assert all(under_pi[s] < 1 for s in part.min_wins)
        sigma = _buchi_max_md(game, peel, buchi_set)
        under_sigma = mdp_buchi_exact(apply_md(game, sigma), buchi_set)
        assert all(under_sigma[s] == 1 for s in part.max_wins)


def test_buchi_round_removes_what_the_removal_strands_in_the_same_round():
    # z is a minimizer trap off the Buchi set, so b escapes to it; then m has
    # no other successor and n no longer reaches b surely.  One attractor
    # removes all four in round 1.
    g = Game.of([
        ("z", "min", ("z",)),
        ("b", "min", ("b", "z")),
        ("m", "max", ("b",)),
        ("n", "rand", ("m", "g"), (HALF, HALF)),
        ("g", "max", ("g",)),
    ])
    peel = buchi_peel(g, {"b", "g"})
    assert peel.partition == almost_sure_buchi(g, {"b", "g"})
    assert peel.partition.max_wins == {"g"}
    assert peel.partition.rounds == 1
    assert peel.partition.index == {"z": 1, "b": 1, "m": 1, "n": 1, "g": None}
    assert peel.min_pick == {"z": "z", "b": "z"}


def _counting_closures(monkeypatch):
    """Counts the confined-attractor runs of the peels from here on."""
    runs = []
    closure = winning._confined_attractor
    monkeypatch.setattr(winning, "_confined_attractor",
                        lambda *args: runs.append(1) or closure(*args))
    return runs


def test_acyclic_regions_peel_with_no_closure_run(monkeypatch):
    runs = _counting_closures(monkeypatch)
    for built, rounds in ((gallery.build_fig2(128), 126), (gallery.build_ladder(64), 65)):
        part = almost_sure_reach(built.game, built.targets)
        assert part.rounds == rounds
        buchi_peel(built.game, built.buchi)
        assert not runs
        assert (part.max_wins, part.rounds, part.index) == reference_almost_sure_reach(
            built.game, built.targets)
        runs.clear()


def test_cyclic_regions_peel_with_one_closure_run_per_round(monkeypatch):
    game, targets = random_game(331, n=39, max_branch=4, owned_branch=2, max_targets=4)
    runs = _counting_closures(monkeypatch)
    part = almost_sure_reach(game, targets)
    assert part.rounds == 4
    assert len(runs) == part.rounds + 1
    assert (part.max_wins, part.rounds, part.index) == reference_almost_sure_reach(game, targets)


class _CountingRows(dict):
    """A successor dict that counts the rows read from it."""

    reads = 0

    def __getitem__(self, s):
        self.reads += 1
        return super().__getitem__(s)


def _peel_row_reads(built):
    """Successor rows read by the reach and the Buchi peel of ``built``.

    The predecessor index is built first and not counted: it reads each
    row once whatever the peel does."""
    rows = _CountingRows(built.game.succ)
    game = Game(built.game.owner, rows, built.game.prob)
    game.predecessors
    rows.reads = 0
    almost_sure_reach(game, built.targets)
    reach_reads, rows.reads = rows.reads, 0
    almost_sure_buchi(game, built.buchi)
    return reach_reads, rows.reads


def test_peels_read_each_successor_row_a_bounded_number_of_times():
    built = gallery.build_ladder(64)
    assert len(built.game.states) == 132
    assert almost_sure_reach(built.game, built.targets).rounds == 65
    assert almost_sure_buchi(built.game, built.buchi).max_wins == {"goal", "home"}
    reach_reads, buchi_reads = _peel_row_reads(built)
    # Rebuilding the confined set every round reads 2,145 rows for the reach
    # peel and 2,280 for the Buchi peel.
    assert reach_reads <= 132
    assert buchi_reads <= 264


def test_peels_read_rows_only_of_minimizer_and_buchi_states():
    # The confined set comes off predecessor lists, and a Buchi round's
    # removal is one attractor from the states outside its reach region.
    # The rows still read are those of the positive attractor's minimizer
    # states and, in the Buchi peel, those of the maximizer states the
    # removal attractor counts down and of the removed minimizer states,
    # whose escape it picks.  Scanning every random row for the confined set
    # and every live row for the Buchi seeds read 65 and 200 rows on the
    # ladder and 379 and 895 on fig2.
    assert _peel_row_reads(gallery.build_ladder(64)) == (0, 2)
    assert _peel_row_reads(gallery.build_fig2(128)) == (126, 128)


def test_almost_sure_reach_all_targets_one_round():
    g, _ = random_game(4)
    part = almost_sure_reach(g, set(g.states))
    assert part.max_wins == set(g.states)
    assert part.rounds == 1


def test_almost_sure_reach_region_is_value_one_region():
    for seed in range(60):
        g, t = random_game(seed)
        part = almost_sure_reach(g, t)
        values = value_reach(g, t).values
        assert part.max_wins == {s for s in g.states if values[s] == 1}
        assert part.max_wins | part.min_wins == set(g.states)
        assert not (part.max_wins & part.min_wins)
        for s in g.states:
            assert (part.index[s] is None) == (s in part.max_wins)


def test_almost_sure_reach_region_closed_for_min_and_random():
    for seed in range(40):
        g, t = random_game(seed)
        part = almost_sure_reach(g, t)
        for s in part.max_wins:
            if g.owner[s] in (Owner.MIN, Owner.RANDOM) and s not in t:
                assert all(x in part.max_wins for x in g.succ[s])


def test_fig2_with_u_is_min_winning_at_u():
    built = gallery.build_fig2_with_u(8)
    part = almost_sure_reach(built.game, built.targets)
    assert "u" in part.min_wins
    assert "u" in positive_reach_set(built.game, built.targets)


def test_almost_sure_buchi_absorbing_accepting_state():
    g = Game.of([("t", "max", ("t",)), ("a", "max", ("t", "a"))])
    part = almost_sure_buchi(g, {"t"})
    assert part.max_wins == {"t", "a"}


def test_almost_sure_buchi_empty_set():
    g, _ = random_game(2)
    part = almost_sure_buchi(g, set())
    assert part.max_wins == frozenset()
    assert part.min_wins == set(g.states)


def test_almost_sure_buchi_fig2_matches_oracle_membership():
    for depth in (4, 5):
        fig2 = gallery.build_fig2(depth)
        part = almost_sure_buchi(fig2.game, fig2.buchi)
        assert "i" not in part.max_wins
        oracle = md_enumeration_oracle(fig2.game, buchi(*fig2.buchi))
        assert part.max_wins == {s for s in fig2.game.states if oracle[s] == 1}


def test_almost_sure_buchi_region_is_value_one_region():
    for seed in range(40):
        g, t = random_game(seed, n=6)
        part = almost_sure_buchi(g, t)
        values = value_buchi(g, t).values
        assert part.max_wins == {s for s in g.states if values[s] == 1}
        for s in g.states:
            assert (part.index[s] is None) == (s in part.max_wins)


def test_almost_sure_buchi_monotone_in_accepting_set():
    for seed in range(25):
        g, t = random_game(seed, n=6)
        small = almost_sure_buchi(g, t)
        bigger_set = set(t) | {g.states[seed % len(g.states)]}
        big = almost_sure_buchi(g, bigger_set)
        assert small.max_wins <= big.max_wins


def test_almost_sure_safety_examples():
    g = Game.of([
        ("safehole", "max", ("safehole",)),
        ("leaky", "rand", ("safehole", "t"), (HALF, HALF)),
        ("t", "max", ("t",)),
    ])
    part = almost_sure_safety(g, {"t"})
    assert "safehole" in part.max_wins
    assert "leaky" in part.min_wins


def test_almost_sure_safety_complements_swapped_attractor():
    for seed in range(40):
        g, t = random_game(seed)
        part = almost_sure_safety(g, t)
        attr = positive_reach_set(swap_roles(g), t)
        assert part.max_wins == set(g.states) - attr
        assert part.max_wins == {
            s for s in g.states if value_safety(g, t)[s] == 1
        }


def test_partitions_cover_gallery_games():
    built = [
        gallery.build_fig2(6),
        gallery.build_fig2_with_u(6),
        gallery.build_ladder(3),
        gallery.build_gamblers_ruin(Fraction(3, 5), 10),
    ]
    for b in built:
        for part in (
            almost_sure_reach(b.game, b.targets),
            almost_sure_buchi(b.game, b.buchi or b.targets),
            almost_sure_safety(b.game, b.targets),
        ):
            assert part.max_wins | part.min_wins == set(b.game.states)
            assert not (part.max_wins & part.min_wins)
            assert part.rounds >= 1


def test_target_subset_is_checked():
    g, _ = random_game(1)
    with pytest.raises(ValueError):
        almost_sure_reach(g, {"nope"})
    with pytest.raises(ValueError):
        positive_reach_set(g, {"nope"})


def _rvi_matters_game():
    g, _ = random_game(157, n=22, max_branch=3, owned_branch=3, max_targets=3)
    return g


# The peel's indices on that game once the minimizer's value-increasing
# edges are gone, as ``transform --rvi`` followed by ``winning-set`` reports
# them.
_RVI_INDICES = [1, 3, 0, 2, 2, 0, 0, 3, 3, 1, None, 2, 2, 0, 1, 0, 1, 2, 1, 1, 0, 2]


def test_almost_sure_reach_indices_pinned_on_a_game_where_rvi_matters():
    # Without the minimizer's value-increasing edges removed first, the peel
    # on this game ends after two rounds and s1 leaves in round 2.  Removing
    # them moves the indices but not the partition; ``winning-set`` peels the
    # game it is given, so that is the caller's choice.
    g = _rvi_matters_game()
    plain = almost_sure_reach(g, {"s10"})
    assert plain.rounds == 2 and plain.index["s1"] == 2
    part = almost_sure_reach(rvi(g, solve_reach_exact(g, {"s10"})), {"s10"})
    assert part.max_wins == plain.max_wins
    assert part.rounds == 3
    assert part.index["s1"] == 3
    assert [part.index[s] for s in g.states] == _RVI_INDICES


def _partition_lines(g, indices, rounds):
    return [f"state {s} {'max' if i is None else 'min'} index {'bot' if i is None else i}"
            for s, i in zip(g.states, indices)] + [f"rounds {rounds}"]


@pytest.fixture
def rvi_matters_file(tmp_path):
    path = tmp_path / "g157.game"
    path.write_text(format_game(_rvi_matters_game(), ["s10"]))
    return path


def test_winning_set_command_prints_the_peel_of_the_game_given(rvi_matters_file, capsys):
    g = _rvi_matters_game()
    assert main(["winning-set", str(rvi_matters_file)]) == 0
    plain = almost_sure_reach(g, {"s10"})
    assert capsys.readouterr().out.splitlines() == _partition_lines(
        g, [plain.index[s] for s in g.states], 2)


def test_transform_rvi_then_winning_set_prints_the_rvi_indices(rvi_matters_file, capsys):
    pruned = rvi_matters_file.with_suffix(".rvi.game")
    assert main(["transform", str(rvi_matters_file), "--rvi", "--emit", str(pruned)]) == 0
    capsys.readouterr()
    assert main(["winning-set", str(pruned)]) == 0
    assert capsys.readouterr().out.splitlines() == _partition_lines(
        _rvi_matters_game(), _RVI_INDICES, 3)


def _removal_closure(game, alive, seeds):
    """Seeds closed backward inside ``alive`` in one closure: minimizer and
    random states enter with one successor removed, maximizer states with
    all of them, where the states outside ``alive`` count as removed."""
    gone = set(seeds) | (set(game.states) - alive)
    while True:
        level = {
            s for s in alive - gone
            if (all if game.owner[s] is Owner.MAX else any)(t in gone for t in game.succ[s])
        }
        if not level:
            return gone & alive
        gone |= level


def _buchi_cases():
    for seed in range(320):
        yield random_game(seed, n=5 + seed % 20, max_branch=3,
                          owned_branch=2 + seed % 2, max_targets=3)
    for b in (gallery.build_fig2(7), gallery.build_fig2_with_u(7), gallery.build_ladder(4)):
        yield b.game, b.buchi or b.targets
        yield b.game, b.targets


def test_buchi_peel_seeds_are_the_states_with_exact_revisit_value_below_one():
    for game, buchi_set in _buchi_cases():
        peel = buchi_peel(game, buchi_set)
        index = peel.partition.index
        for k in range(1, peel.partition.rounds + 2):
            alive = {s for s in game.states if index[s] is None or index[s] >= k}
            if not alive:
                break
            sub = _patched_subgame(game, alive)
            vals = solve_reach_exact(sub, alive & buchi_set)
            seeds = {s for s in alive if bellman_combine(sub, vals, s) < 1}
            removed = {s for s in alive if index[s] == k}
            assert removed == _removal_closure(game, alive, seeds), (buchi_set, k)
            # A minimizer seed escapes to a state removed earlier or of exact
            # round value below one.
            for s in seeds:
                if game.owner[s] is Owner.MIN:
                    t = peel.min_pick[s]
                    assert t not in alive or vals[t] < 1, (buchi_set, s, t)


def _reach_partition_cases():
    for seed in range(600):
        yield random_game(seed, n=4 + seed % 22, max_branch=3,
                          owned_branch=2 + seed % 2, max_targets=3)
    for b in (gallery.build_fig2(9), gallery.build_fig2_with_u(9), gallery.build_ladder(5),
              gallery.build_gamblers_ruin(Fraction(2, 5), 9)):
        yield b.game, b.targets


def test_winning_set_reach_partition_needs_no_exact_solve(monkeypatch):
    import sgsolve.exact
    from sgsolve.cli import _TABLE
    from sgsolve.objectives import reach

    cases = [(g, t, {s for s, v in solve_reach_exact(g, t).items() if v == 1})
             for g, t in _reach_partition_cases()]

    def refuse(*args, **kwargs):
        raise AssertionError("exact solve called")

    monkeypatch.setattr(sgsolve.exact, "solve_reach_exact", refuse)
    for g, t, value_one in cases:
        part = _TABLE["reach"]["winning-set"](g, reach(*t))
        assert part.max_wins == value_one, sorted(t)
        assert part.min_wins == set(g.states) - value_one


def test_buchi_partition_needs_no_exact_solve(monkeypatch):
    import sgsolve.exact

    def refuse(*args, **kwargs):
        raise AssertionError("exact solve called")

    # Every exact solve evaluates minimizer best responses.
    monkeypatch.setattr(sgsolve.exact, "min_best_response", refuse)
    fig2 = gallery.build_fig2(6)
    assert "i" in almost_sure_buchi(fig2.game, fig2.buchi).min_wins
    g, t = random_game(3, n=12)
    almost_sure_buchi(g, t)
    value_buchi(g, t, tol=Fraction(1, 10**6))
