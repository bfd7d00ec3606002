"""Monte-Carlo sampling: reproducibility, consistency, window scoring."""

import os
import random
import signal
from collections import Counter
from fractions import Fraction

import pytest
from conftest import random_game, reference_plays, reference_sample_plays, ruin_probability

from sgsolve import (
    Game,
    Owner,
    SimConfig,
    TransducerStrategy,
    Verdict,
    buchi,
    cobuchi,
    decided,
    optimal_max_md,
    optimal_min_md,
    reach,
    reach_plus,
    safety,
    sample_plays,
)
from sgsolve import cli, gallery, simulate, value_reach_within
from sgsolve.exact import reach_plus_values, solve_reach_exact
from sgsolve.simulate import _PLAYS, _SLICE, _philox
from sgsolve.strategies import MDStrategy
from sgsolve.textio import format_game

HALF = Fraction(1, 2)
ONE = Fraction(1)


@pytest.fixture(autouse=True)
def no_process_outlives_a_run():
    """Every process a run forks has been reaped when it returns or raises."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _force_split(monkeypatch, cpus):
    """Split every lockstep set of two or more live plays across up to
    ``cpus`` processes; returns the process counts of the splits made."""
    splits = []
    in_shares = simulate._in_shares

    def counted(k, work):
        splits.append(k)
        return in_shares(k, work)

    monkeypatch.setattr(simulate, "_SPLIT", 1)
    monkeypatch.setattr(simulate, "_cpus", lambda: cpus)
    monkeypatch.setattr(simulate, "_in_shares", counted)
    return splits


def test_deterministic_game_gives_zero_one_mean():
    g = Game.of([("a", "max", ("b",)), ("b", "max", ("t", "b")), ("t", "max", ("t",))])
    sigma = MDStrategy(Owner.MAX, {"a": "b", "b": "t", "t": "t"})
    est = sample_plays(g, "a", reach("t"), SimConfig(samples=50, horizon=10, seed=1), sigma=sigma)
    assert est.mean == 1.0
    assert est.half_width_95 == 0.0
    assert est.decided_fraction == 1.0


def test_reruns_are_bit_identical():
    fig2 = gallery.build_fig2(8)
    cfg = SimConfig(samples=5000, horizon=120, seed=42)
    first = sample_plays(fig2.game, "r3", reach(*fig2.targets), cfg)
    second = sample_plays(fig2.game, "r3", reach(*fig2.targets), cfg)
    assert first == second


def test_fig2_chain_estimate_matches_exact_value():
    fig2 = gallery.build_fig2(8)
    est = sample_plays(
        fig2.game, "r3", reach(*fig2.targets), SimConfig(samples=20000, horizon=150, seed=7)
    )
    assert abs(est.mean - 7 / 8) <= 3 * est.half_width_95 + 1e-3


def test_gambler_estimate_matches_closed_form():
    built = gallery.build_gamblers_ruin(Fraction(3, 5), 20)
    est = sample_plays(
        built.game, "w1", reach(*built.targets), SimConfig(samples=20000, horizon=600, seed=3)
    )
    closed = float(ruin_probability(Fraction(3, 5), 20, 1))
    assert abs(est.mean - closed) <= 3 * est.half_width_95 + 1e-3


def test_strategy_pair_estimate_matches_game_value():
    fig2 = gallery.build_fig2(7)
    from sgsolve.exact import solve_reach_exact

    exact = float(solve_reach_exact(fig2.game, fig2.targets)["i"])
    est = sample_plays(
        fig2.game,
        "i",
        reach(*fig2.targets),
        SimConfig(samples=20000, horizon=150, seed=5),
        sigma=optimal_max_md(fig2.game, fig2.targets),
        pi=optimal_min_md(fig2.game, fig2.targets),
    )
    assert abs(est.mean - exact) <= 3 * est.half_width_95 + 1e-3


def test_owner_mismatch_errors():
    fig2 = gallery.build_fig2(6)
    pi = optimal_min_md(fig2.game, fig2.targets)
    with pytest.raises(ValueError, match="owner mismatch"):
        sample_plays(
            fig2.game, "i", reach(*fig2.targets),
            SimConfig(samples=10, horizon=10, seed=0), sigma=pi,
        )
    with pytest.raises(ValueError, match="owner mismatch"):
        # Maximizer moves are needed on the upper ladder but no strategy given.
        sample_plays(
            fig2.game, "s0", reach(*fig2.targets),
            SimConfig(samples=10, horizon=10, seed=0), pi=pi,
        )


def test_buchi_window_scores_undecided_cycles():
    g = Game.of([("a", "max", ("b",)), ("b", "max", ("a",))])
    sigma = MDStrategy(Owner.MAX, {"a": "b", "b": "a"})
    est = sample_plays(
        g, "a", buchi("b"), SimConfig(samples=20, horizon=9, seed=0, buchi_window=2),
        sigma=sigma,
    )
    assert est.mean == 1.0
    assert est.decided_fraction == 0.0
    est = sample_plays(
        g, "a", buchi("b"), SimConfig(samples=20, horizon=9, seed=0, buchi_window=1),
        sigma=sigma,
    )
    assert est.decided_fraction == 0.0


def test_config_invariants():
    with pytest.raises(ValueError):
        SimConfig(samples=0, horizon=5, seed=1)
    with pytest.raises(ValueError):
        SimConfig(samples=1, horizon=1, seed=1, buchi_window=2)
    with pytest.raises(ValueError):
        SimConfig(samples=1, horizon=1, seed=1, buchi_window=0)
    for field, value in (("samples", 2.5), ("horizon", 10.0), ("seed", 1.5),
                         ("buchi_window", 1.0), ("samples", True)):
        fields = {**dict(samples=2, horizon=10, seed=1, buchi_window=1), field: value}
        with pytest.raises(TypeError, match=f"^{field} must be an int"):
            SimConfig(**fields)


def test_config_rejects_seeds_that_numpy_cannot_key_exactly():
    for seed in (-1, 2**63, 2**64):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(samples=1, horizon=1, seed=seed)
    SimConfig(samples=1, horizon=1, seed=2**63 - 1)


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**63 - 1])
def test_kernel_is_numpy_philox(seed):
    """Draw k of play i is word k % 4 of block k // 4 + 1 under key (seed, i)."""
    import numpy as np

    plays = [0, 1, 4095, 4096, 4097, 10**9]
    blocks = 41
    counter = np.arange(1, blocks + 1, dtype=np.uint64)[None, :].repeat(len(plays), axis=0)
    key = np.array(plays, dtype=np.uint64)[:, None]
    draws = _philox(counter, seed, key).reshape(len(plays), 4 * blocks)
    for row, i in zip(draws, plays):
        stream = np.random.Generator(np.random.Philox(key=[seed, i]))
        assert row.tolist() == stream.random(4 * blocks).tolist()


_KINDS = ("reach", "reach<=", "reachplus", "safety", "buchi", "cobuchi")


def _objective(rng, kind, targets):
    if kind == "reach<=":
        return reach(*targets, steps=rng.randint(0, 6))
    return {"reach": reach, "reachplus": reach_plus, "safety": safety,
            "buchi": buchi, "cobuchi": cobuchi}[kind](*targets)


def _distribution(rng, support):
    """A random distribution over a random non-empty part of ``support``,
    often with weights whose float sums are inexact."""
    picked = rng.sample(list(support), rng.randint(1, len(support)))
    raw = [rng.choice((1, 1, 2, 3, 7)) for _ in picked]
    return {x: Fraction(w, sum(raw)) for x, w in zip(picked, raw)}


def _random_md(rng, game, owner):
    return MDStrategy(owner, {s: rng.choice(game.succ[s])
                              for s in game.states if game.owner[s] is owner})


def _random_transducer(rng, game, owner):
    modes = tuple(f"m{j}" for j in range(rng.randint(2, 3)))
    choose = {(m, s): _distribution(rng, game.succ[s])
              for m in modes for s in game.states if game.owner[s] is owner}
    update = {(m, s): _distribution(rng, modes)
              for m in modes for s in game.states if rng.random() < 0.5}
    return TransducerStrategy(owner, modes, rng.choice(modes), update, choose)


def _same(game, start, obj, cfg, sigma=None, pi=None):
    """The lockstep sampler and the reference agree: the same estimate, or
    the same error."""
    try:
        expected = reference_sample_plays(game, start, obj, cfg, sigma=sigma, pi=pi)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            sample_plays(game, start, obj, cfg, sigma=sigma, pi=pi)
        assert str(raised.value) == str(exc)
        return None
    assert sample_plays(game, start, obj, cfg, sigma=sigma, pi=pi) == expected
    return expected


def _random_cases(monkeypatch):
    """300 random games, strategy pairs and runs, each checked by ``_same``;
    returns how many gave an estimate rather than an error."""
    estimates = 0
    for seed in range(300):
        rng = random.Random(seed)
        # Lockstep sets and Philox slices of one and a few plays, and the
        # default widths, each with and without transducers.
        monkeypatch.setattr(simulate, "_PLAYS", (1, 7, _PLAYS)[seed // 2 % 3])
        monkeypatch.setattr(simulate, "_SLICE", (1, 3, _SLICE)[seed // 6 % 3])
        game, targets = random_game(seed, n=rng.randint(2, 9), max_branch=3,
                                    owned_branch=rng.choice((1, 2, 3)))
        make = _random_transducer if seed % 2 else _random_md
        sigma = make(rng, game, Owner.MAX) if rng.random() < 0.9 else None
        pi = make(rng, game, Owner.MIN) if rng.random() < 0.9 else None
        horizon = rng.choice((1, 2, rng.randint(3, 30)))
        cfg = SimConfig(samples=rng.randint(1, 150), horizon=horizon, seed=rng.getrandbits(63),
                        buchi_window=rng.randint(1, horizon))
        obj = _objective(rng, _KINDS[seed % len(_KINDS)], targets)
        estimates += _same(game, rng.choice(game.states), obj, cfg, sigma, pi) is not None
    return estimates


def test_lockstep_sampler_matches_the_reference_on_random_games(monkeypatch):
    assert _random_cases(monkeypatch) >= 250


@pytest.mark.parametrize("cpus", (2, 3))
def test_split_sets_match_the_reference_on_random_games(monkeypatch, cpus):
    splits = _force_split(monkeypatch, cpus)
    assert _random_cases(monkeypatch) >= 250
    assert len(splits) >= 40 and set(splits) == set(range(2, cpus + 1))


_GALLERY = {
    "fig2": (lambda: gallery.build_fig2(6), "i"),
    "fig2u": (lambda: gallery.build_fig2_with_u(5), "u"),
    "ruin": (lambda: gallery.build_gamblers_ruin(Fraction(3, 5), 8), "w1"),
    "ladder": (lambda: gallery.build_ladder(3), "home"),
}


def _gallery_cases(name):
    build, start = _GALLERY[name]
    built = build()
    game = built.game
    rng = random.Random(name)
    for kind in _KINDS:
        members = built.buchi if kind in ("buchi", "cobuchi") else built.targets
        obj = _objective(rng, kind, members)
        for transducers in (False, True):
            make = _random_transducer if transducers else _random_md
            cfg = SimConfig(samples=rng.randint(60, 200), horizon=rng.choice((1, 40)),
                            seed=rng.getrandbits(63), buchi_window=1)
            if cfg.horizon > 1:
                cfg = SimConfig(cfg.samples, cfg.horizon, cfg.seed, rng.randint(1, 10))
            assert _same(game, start, obj, cfg, make(rng, game, Owner.MAX),
                         make(rng, game, Owner.MIN)) is not None


@pytest.mark.parametrize("name", sorted(_GALLERY))
def test_lockstep_sampler_matches_the_reference_on_the_gallery(name):
    _gallery_cases(name)


@pytest.mark.parametrize("cpus", (2, 3))
@pytest.mark.parametrize("name", sorted(_GALLERY))
def test_split_sets_match_the_reference_on_the_gallery(monkeypatch, name, cpus):
    splits = _force_split(monkeypatch, cpus)
    _gallery_cases(name)
    assert splits


def test_estimates_do_not_depend_on_the_play_block(monkeypatch):
    fig2 = gallery.build_fig2(5)
    rng = random.Random(5)
    sigma = _random_transducer(rng, fig2.game, Owner.MAX)
    pi = _random_transducer(rng, fig2.game, Owner.MIN)
    obj = buchi(*fig2.buchi)
    # 150 plays cross several lockstep sets and Philox slices of each width.
    cfg = SimConfig(samples=150, horizon=12, seed=11, buchi_window=3)
    whole = _same(fig2.game, "i", obj, cfg, sigma, pi)
    for plays in (1, 7, 64):
        for width in (1, 3):
            monkeypatch.setattr(simulate, "_PLAYS", plays)
            monkeypatch.setattr(simulate, "_SLICE", width)
            assert sample_plays(fig2.game, "i", obj, cfg, sigma, pi) == whole


def _count_blocks(monkeypatch):
    """Philox blocks computed per play index, counted around the kernel."""
    import numpy as np

    computed = Counter()

    def counted(counter, seed, play):
        computed.update(np.broadcast_to(play, counter.shape).ravel().tolist())
        return _philox(counter, seed, play)

    monkeypatch.setattr(simulate, "_philox", counted)
    return computed


def test_a_play_that_reads_one_draw_computes_one_block(monkeypatch):
    computed = _count_blocks(monkeypatch)
    g = Game.of([("a", "rand", ("t", "z"), (HALF, HALF)),
                 ("t", "rand", ("t",), (1,)), ("z", "rand", ("z",), (1,))])
    cfg = SimConfig(samples=500, horizon=10, seed=3)
    assert sample_plays(g, "a", reach("t"), cfg) == reference_sample_plays(g, "a", reach("t"), cfg)
    assert computed == Counter(range(cfg.samples))


def test_each_play_computes_the_blocks_its_draws_fall_in(monkeypatch):
    computed = _count_blocks(monkeypatch)
    built = gallery.build_gamblers_ruin(Fraction(3, 5), 8)
    obj = reach(*built.targets)
    cfg = SimConfig(samples=400, horizon=60, seed=8)
    sample_plays(built.game, "w4", obj, cfg)
    # Every step of a play, but its last, leaves a two-way random state: one draw.
    for i, (visited, _, _) in enumerate(reference_plays(built.game, "w4", obj, cfg)):
        assert computed[i] == -(-(len(visited) - 1) // 4), (i, len(visited), computed[i])


# ``a`` and ``b`` flip a coin each step, and both players flip one for their
# mode at every state: every step takes three draws, so steps straddle blocks.
_THREE_DRAWS = Game.of([("a", "rand", ("a", "b"), (HALF, HALF)),
                        ("b", "rand", ("b", "a"), (HALF, HALF))])


def _coin_modes(owner):
    flip = {"m0": HALF, "m1": HALF}
    return TransducerStrategy(owner, ("m0", "m1"), "m0",
                              {(m, s): flip for m in ("m0", "m1") for s in ("a", "b")})


@pytest.mark.parametrize("plays", (1, 7, _PLAYS))
@pytest.mark.parametrize("width", (1, 3, _SLICE))
def test_steps_of_three_draws_compute_only_the_blocks_they_read(monkeypatch, plays, width):
    monkeypatch.setattr(simulate, "_PLAYS", plays)
    monkeypatch.setattr(simulate, "_SLICE", width)
    computed = _count_blocks(monkeypatch)
    cfg = SimConfig(samples=40, horizon=6, seed=21, buchi_window=2)
    sigma, pi = _coin_modes(Owner.MAX), _coin_modes(Owner.MIN)
    assert _same(_THREE_DRAWS, "a", buchi("b"), cfg, sigma, pi) is not None
    # 6 steps of 3 draws: draws 0 to 17, in blocks 1 to 5.
    assert computed == Counter({i: 5 for i in range(cfg.samples)})


def test_peak_memory_follows_the_lockstep_width_not_the_sample_count(monkeypatch):
    import tracemalloc

    monkeypatch.setattr(simulate, "_PLAYS", 1024)
    monkeypatch.setattr(simulate, "_SLICE", 256)
    built = gallery.build_gamblers_ruin(Fraction(3, 5), 30)
    obj = reach(*built.targets)
    sample_plays(built.game, "w1", obj, SimConfig(64, 50, 1))
    peaks = []
    for samples in (1024, 8192):
        tracemalloc.start()
        try:
            sample_plays(built.game, "w1", obj, SimConfig(samples, 50, 1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_unreachable_owner_needs_no_strategy():
    g = Game.of([
        ("a", "rand", ("b", "t"), (HALF, HALF)),
        ("b", "rand", ("a", "t"), (HALF, HALF)),
        ("m", "max", ("a", "t")),
        ("n", "min", ("m",)),
        ("t", "rand", ("t",), (1,)),
    ])
    cfg = SimConfig(samples=300, horizon=20, seed=4)
    assert _same(g, "a", reach("t"), cfg).mean == 1.0
    with pytest.raises(ValueError, match="owner mismatch: no minimizer strategy, needed at n"):
        sample_plays(g, "n", reach("t"), cfg, sigma=MDStrategy(Owner.MAX, {"m": "a"}))


def test_a_missing_row_fails_only_where_a_play_needs_it():
    g = Game.of([
        ("a", "rand", ("t", "m"), (HALF, HALF)),
        ("m", "max", ("t",)),
        ("k", "max", ("t",)),
        ("t", "rand", ("t",), (1,)),
    ])
    cfg = SimConfig(samples=50, horizon=5, seed=2)
    partial = MDStrategy(Owner.MAX, {"m": "t"})
    assert sample_plays(g, "a", reach("t"), cfg, sigma=partial).mean == 1.0
    with pytest.raises(ValueError, match="no successor row for mode m0 at m"):
        sample_plays(g, "a", reach("t"), cfg, sigma=MDStrategy(Owner.MAX, {"k": "t"}))


# Four coin flips lead from s through layers 1 to 4 and a three-way draw to
# the absorbing target t or to one of the maximizer's states m and k, so a
# play reads its fifth draw before it can be decided.
_LAYERS = Game.of(
    [("s", "rand", ("x1", "y1"), (HALF, HALF))]
    + [(f"{a}{i}", "rand", (f"x{i + 1}", f"y{i + 1}"), (HALF, HALF))
       for i in (1, 2, 3) for a in "xy"]
    + [(f"{a}4", "rand", ("m", "k", "t"), (Fraction(1, 3),) * 3) for a in "xy"]
    + [("m", "max", ("t",)), ("k", "max", ("t",)), ("t", "rand", ("t",), (1,))])


def test_a_missing_row_in_either_share_gives_the_sequential_message(monkeypatch):
    # Nothing is decided before step 5, so the two shares of the split after
    # step 4 hold the even and the odd plays.  Both lack rows at m and k; a
    # run's error names the lowest-numbered play at either, as in one process.
    cases = {}
    for seed in range(100):
        cfg = SimConfig(samples=12, horizon=8, seed=seed)
        rows = MDStrategy(Owner.MAX, {"m": "t", "k": "t"})
        at = [(i, visited[5]) for i, (visited, _, _) in
              enumerate(reference_plays(_LAYERS, "s", reach("t"), cfg, sigma=rows))
              if visited[5] != "t"]
        firsts = [next((x for x in at if x[0] % 2 == r), None) for r in (0, 1)]
        if None not in firsts and firsts[0][1] != firsts[1][1]:
            cases.setdefault(min(firsts)[0] % 2, (cfg, min(firsts)[1]))
    assert sorted(cases) == [0, 1]
    splits = _force_split(monkeypatch, 2)
    for cfg, state in cases.values():
        with pytest.raises(ValueError, match=f"^no successor row for mode m0 at {state}$"):
            sample_plays(_LAYERS, "s", reach("t"), cfg, sigma=MDStrategy(Owner.MAX, {}))
    assert splits == [2, 2]


def test_one_cpu_never_forks(monkeypatch):
    def fork():
        raise AssertionError("forked")

    built = gallery.build_gamblers_ruin(Fraction(3, 5), 8)
    cfg = SimConfig(samples=100, horizon=40, seed=6)
    expected = reference_sample_plays(built.game, "w1", reach(*built.targets), cfg)
    monkeypatch.setattr(simulate, "_SPLIT", 1)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert sample_plays(built.game, "w1", reach(*built.targets), cfg) == expected
    # Nor where the platform has no fork at all.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork")
    assert sample_plays(built.game, "w1", reach(*built.targets), cfg) == expected


@pytest.mark.parametrize("forks", (0, 1))
def test_a_set_whose_fork_fails_continues_in_process(monkeypatch, forks):
    # The fork after the first ``forks`` raises: the children forked before
    # it are stopped, and the set is played out in one process.
    real, calls = os.fork, []

    def fork():
        calls.append(None)
        if len(calls) > forks:
            raise OSError("no more processes")
        return real()

    built = gallery.build_gamblers_ruin(Fraction(3, 5), 8)
    cfg = SimConfig(samples=100, horizon=40, seed=6)
    expected = reference_sample_plays(built.game, "w1", reach(*built.targets), cfg)
    splits = _force_split(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", fork)
    assert sample_plays(built.game, "w1", reach(*built.targets), cfg) == expected
    assert splits == [3] and len(calls) == forks + 1


def test_a_share_that_ends_without_its_counts_raises_a_named_error(monkeypatch, tmp_path,
                                                                   capsys):
    parent, philox = os.getpid(), simulate._philox

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return philox(*args)

    def hung(signum, frame):
        raise TimeoutError("waited 60 s for a share")

    monkeypatch.setattr(simulate, "_philox", dying)
    _force_split(monkeypatch, 2)
    built = gallery.build_gamblers_ruin(Fraction(3, 5), 8)
    path = tmp_path / "ruin.game"
    path.write_text(format_game(built.game, built.targets), encoding="utf-8")
    argv = ["simulate", str(path), "--from", "w1", "--samples", "100", "--horizon", "40"]
    # A parent that waited for the lost share's counts would hang: fail instead.
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(simulate.WorkerError,
                           match=r"ended without its counts \(exit code 3\)"):
            sample_plays(built.game, "w1", reach(*built.targets), SimConfig(100, 40, 6))
        assert cli.main(argv) == 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: a forked share of the plays ended without its counts "
                   "(exit code 3)\n")


def test_a_long_run_splits_at_the_default_size_with_the_same_estimate(monkeypatch):
    built = gallery.build_gamblers_ruin(Fraction(3, 5), 30)
    obj, cfg = reach(*built.targets), SimConfig(samples=20000, horizon=200, seed=50)
    monkeypatch.setattr(simulate, "_cpus", lambda: 1)
    whole = sample_plays(built.game, "w1", obj, cfg)
    splits = []
    in_shares = simulate._in_shares

    def counted(k, work):
        splits.append(k)
        return in_shares(k, work)

    monkeypatch.setattr(simulate, "_cpus", lambda: 2)
    monkeypatch.setattr(simulate, "_in_shares", counted)
    assert sample_plays(built.game, "w1", obj, cfg) == whole
    assert splits == [2]
    # A Figure 2 query reads at most four draws a play and never splits.
    fig2 = gallery.build_fig2(10)
    sample_plays(fig2.game, "r3", reach(*fig2.targets), cfg)
    assert splits == [2]


# a is the maximizer's; b loops, c leads to the absorbing target t.
_FORK = Game.of([("a", "max", ("b", "c")), ("b", "rand", ("b",), (1,)),
                 ("c", "rand", ("t",), (1,)), ("t", "rand", ("t",), (1,))])


def test_a_row_that_is_not_a_distribution_over_its_support_is_rejected():
    cfg = SimConfig(samples=10, horizon=5, seed=0)
    # A move along the non-edge a -> t would win every play.
    with pytest.raises(ValueError, match="^bad successor row for mode m0 at a$"):
        sample_plays(_FORK, "a", reach("t"), cfg, sigma=MDStrategy(Owner.MAX, {"a": "t"}))
    choose = {("m0", "a"): {"c": ONE}}
    for bad in ({"c": HALF}, {"b": HALF, "t": HALF}):
        sigma = TransducerStrategy(Owner.MAX, ("m0",), "m0", choose={("m0", "a"): bad})
        with pytest.raises(ValueError, match="^bad successor row for mode m0 at a$"):
            sample_plays(_FORK, "a", reach("t"), cfg, sigma=sigma)
    for bad in ({"m1": ONE}, {"m0": HALF}):
        sigma = TransducerStrategy(Owner.MAX, ("m0",), "m0", {("m0", "b"): bad}, choose)
        with pytest.raises(ValueError, match="^bad update row for mode m0 at b$"):
            sample_plays(_FORK, "a", reach("t"), cfg, sigma=sigma)
    sigma = TransducerStrategy(Owner.MAX, ("m0",), "m0", {("m0", "b"): {"m0": ONE}}, choose)
    assert sample_plays(_FORK, "a", reach("t"), cfg, sigma=sigma).mean == 1.0



def test_a_stray_row_is_rejected_before_any_play():
    cfg = SimConfig(samples=10, horizon=5, seed=0)
    # No play from c ever reaches a or b, so only the up-front check sees them.
    for stray, message in (({"b": "b"}, "successor row for mode m0 at b, which is not a max state"),
                           ({"x": "b"}, "successor row for mode m0 at x, which is not a max state")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample_plays(_FORK, "c", reach("t"), cfg, sigma=MDStrategy(Owner.MAX, stray))
    sigma = TransducerStrategy(Owner.MAX, ("m0",), "m0", {("m0", "x"): {"m0": ONE}})
    with pytest.raises(ValueError, match="^update row for mode m0 at x, which is not a state$"):
        sample_plays(_FORK, "c", reach("t"), cfg, sigma=sigma)
    assert sample_plays(_FORK, "c", reach("t"), cfg, sigma=MDStrategy(Owner.MAX, {})).mean == 1.0


def test_a_target_outside_the_game_is_rejected():
    cfg = SimConfig(samples=10, horizon=5, seed=0)
    with pytest.raises(ValueError, match=r"^target states not in game: \['nope', 'zz'\]$"):
        sample_plays(_FORK, "c", buchi("t", "zz", "nope"), cfg)
    with pytest.raises(ValueError, match=r"^target states not in game: \['nope'\]$"):
        sample_plays(_FORK, "c", reach("nope", steps=3), cfg)


# a steps into the absorbing non-target d; t is an absorbing target.
_ABSORBING = Game.of([("a", "rand", ("d",), (1,)), ("d", "rand", ("d",), (1,)),
                      ("t", "rand", ("t",), (1,))])


def test_bounded_reach_play_absorbed_outside_the_target_is_lost():
    est = sample_plays(_ABSORBING, "a", reach("t", steps=5), SimConfig(10, 20, 1))
    assert value_reach_within(_ABSORBING, {"t"}, 5)["a"] == 0
    assert est.mean == 0.0 and est.decided_fraction == 1.0


def test_reachplus_play_starting_in_an_absorbing_target_is_won():
    est = sample_plays(_ABSORBING, "t", reach_plus("t"), SimConfig(10, 20, 1))
    assert reach_plus_values(_ABSORBING, solve_reach_exact(_ABSORBING, {"t"}))["t"] == 1
    assert est.mean == 1.0 and est.decided_fraction == 1.0


# a moves to the absorbing target t or into the random cycle b <-> c, from
# which t is out of reach.
_CYCLE = Game.of([("a", "rand", ("t", "b"), (HALF, HALF)), ("b", "rand", ("c",), (1,)),
                  ("c", "rand", ("b",), (1,)), ("t", "rand", ("t",), (1,))])


@pytest.mark.parametrize("make, mean", [(reach, 0.509), (safety, 0.491)])
def test_a_play_that_cannot_reach_the_target_is_decided(make, mean):
    obj = make("t")
    lost = Verdict.VIOLATED_FOREVER if make is reach else Verdict.SATISFIED_FOREVER
    assert decided(obj, _CYCLE, ("a", "b")) == lost
    est = _same(_CYCLE, "a", obj, SimConfig(1000, 20, 0))
    # The mean is the one scoring at the horizon gives; only the decided
    # share moves, up from 0.509.
    assert est.mean == mean and est.decided_fraction == 1.0


def test_bounded_reach_play_out_of_range_is_lost_before_step_n():
    # From b the target is four steps away, so a play moving a -> b has lost
    # reach<=4 at step 1, and is decided within a horizon of 2.
    g = Game.of([("a", "rand", ("t", "b"), (HALF, HALF)), ("b", "rand", ("c",), (1,)),
                 ("c", "rand", ("d",), (1,)), ("d", "rand", ("e",), (1,)),
                 ("e", "rand", ("t",), (1,)), ("t", "rand", ("t",), (1,))])
    obj = reach("t", steps=4)
    assert decided(obj, g, ("a", "b")) == Verdict.VIOLATED_FOREVER
    assert decided(reach("t", steps=5), g, ("a", "b")) == Verdict.UNDECIDED
    est = _same(g, "a", obj, SimConfig(1000, 2, 0))
    assert est.mean == 0.509 and est.decided_fraction == 1.0
