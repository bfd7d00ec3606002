"""Game construction, validation, and lazy-game truncation."""

import re
from fractions import Fraction

import pytest
from conftest import random_game

from sgsolve import (
    Game,
    LazyGame,
    ObjectiveKind,
    Owner,
    SimConfig,
    SinkMode,
    StateInfo,
    TruncationError,
    bellman_step,
    chain_buchi_values,
    classify_transitions,
    interval_values,
    md_enumeration_oracle,
    mdp_buchi_exact,
    reach,
    sample_plays,
    swap_roles,
    threshold_decide,
    truncate,
    validate,
    value_reach_within,
)
from sgsolve import gallery
from sgsolve.model import _as_fraction, check_targets

HALF = Fraction(1, 2)


def test_smallest_legal_game_is_valid():
    g = Game.of([("s", "max", ("s",))])
    assert validate(g) == []


def test_weight_sum_violation_reports_actual_sum():
    g = Game.of([
        ("a", "rand", ("t", "z"), (Fraction(1, 2), Fraction(1, 3))),
        ("t", "max", ("t",)),
        ("z", "max", ("z",)),
    ])
    violations = validate(g)
    assert len(violations) == 1
    assert violations[0].kind == "weight-sum"
    assert "5/6" in violations[0].detail


def test_dead_end_dangling_and_duplicate_edges():
    g = Game(
        owner={"a": Owner.MAX, "b": Owner.MAX},
        succ={"a": (), "b": ("ghost", "b", "b")},
        prob={},
    )
    kinds = sorted(v.kind for v in validate(g))
    assert kinds == ["dangling-id", "dead-end", "duplicate-edge"]


def test_nonpositive_weight_and_shape():
    g = Game(
        owner={"a": Owner.RANDOM, "b": Owner.RANDOM, "t": Owner.MAX},
        succ={"a": ("t", "b"), "b": ("t",), "t": ("t",)},
        prob={"a": (Fraction(2), Fraction(-2)), "b": ()},
    )
    kinds = sorted(v.kind for v in validate(g))
    assert kinds == ["nonpositive-weight", "weight-shape", "weight-sum"]


def test_violations_are_listed_per_state_in_a_fixed_order():
    g = Game(
        owner={"a": Owner.RANDOM, "b": Owner.MAX, "c": Owner.MIN, "d": Owner.RANDOM,
               "t": Owner.MAX},
        succ={"a": ("t", "ghost", "t", "b"), "b": (), "c": ("c", "t", "c"), "d": ("t",),
              "t": ("t",)},
        prob={"a": (Fraction(0), Fraction(-1, 2), Fraction(1, 2), Fraction(1, 3)), "d": ()},
    )
    assert [str(v) for v in validate(g)] == [
        "dangling-id at a: successor 'ghost' is not a state",
        "duplicate-edge at a: successor 't' listed twice",
        "nonpositive-weight at a: weight 0 is not positive",
        "nonpositive-weight at a: weight -1/2 is not positive",
        "weight-sum at a: weights sum to 1/3, expected 1",
        "dead-end at b: state has no successor",
        "duplicate-edge at c: successor 'c' listed twice",
        "weight-shape at d: 0 weights for 1 successors",
    ]


def test_gallery_truncation_validates():
    built = gallery.build_fig2(10)
    assert validate(built.game) == []


def test_swap_roles_involution():
    g, _ = random_game(5)
    assert swap_roles(swap_roles(g)).owner == g.owner


def _two_step_lazy():
    def expand(s):
        if s == "a":
            return StateInfo(Owner.MAX, ("b", "c"))
        return StateInfo(Owner.MAX, (s,))

    return LazyGame("a", expand, branching_bound=2)


def test_truncate_depth_zero_keeps_initial_and_sink():
    trunc = truncate(_two_step_lazy(), 0)
    assert set(trunc.game.states) == {"a", trunc.sink}
    assert trunc.game.succ["a"] == (trunc.sink,)
    assert trunc.frontier == {"b", "c"}


def test_truncate_gambler_depth_five_layers():
    trunc = truncate(gallery.gamblers_ruin_lazy(Fraction(3, 5)), 5)
    # BFS from wealth 1: w0..w6 are within five steps, w7 is replaced.
    expected = {f"w{i}" for i in range(7)} | {trunc.sink}
    assert set(trunc.game.states) == expected
    assert trunc.frontier == {"w7"}
    assert trunc.game.succ["w6"] == ("w5",) or trunc.sink in trunc.game.succ["w6"]


def test_truncate_merges_parallel_sink_edges():
    trunc = truncate(gallery.gamblers_ruin_lazy(Fraction(3, 5)), 5)
    for s in trunc.game.states:
        succs = trunc.game.succ[s]
        assert len(succs) == len(set(succs))
    assert validate(trunc.game) == []


def test_truncate_embedding_monotone_in_depth():
    for d in (3, 5, 8):
        small = truncate(gallery.fig2_lazy(), d)
        big = truncate(gallery.fig2_lazy(), d + 2)
        small_states = set(small.game.states) - {small.sink}
        big_states = set(big.game.states) - {big.sink}
        assert small_states <= big_states
        for s in small_states:
            assert small.game.owner[s] == big.game.owner[s]
            if small.sink not in small.game.succ[s]:
                assert small.game.succ[s] == big.game.succ[s]


def test_truncate_state_count_bound_and_linear_growth():
    for depth in range(4, 12):
        trunc = truncate(gallery.fig2_lazy(), depth)
        bound = 1 + sum(2**k for k in range(depth + 1))
        assert len(trunc.game.states) <= bound
        # Two ladders and two chains: linear, not exponential.
        assert len(trunc.game.states) == 4 * depth + 1


def test_truncate_divergence_error():
    def expand(s):
        return StateInfo(Owner.MAX, ("a", "b", "c"))

    with pytest.raises(TruncationError):
        truncate(LazyGame("a", expand, branching_bound=2), 3)

    def empty(s):
        return StateInfo(Owner.MAX, ())

    with pytest.raises(TruncationError):
        truncate(LazyGame("a", empty), 1)


def _lazy_with(a: StateInfo) -> LazyGame:
    """A lazy game whose state ``a`` expands to ``a`` and every other state
    to a maximizer self-loop labelled target."""
    def expand(s):
        if s == "a":
            return a
        return StateInfo(Owner.MAX, (s,), labels=frozenset({"target"}))

    return LazyGame("a", expand)


def test_truncate_refuses_a_random_state_without_weights():
    lazy = _lazy_with(StateInfo(Owner.RANDOM, ("t", "a")))
    with pytest.raises(TruncationError, match=r"^expand\('a'\) returned 0 weights for 2 successors$"):
        truncate(lazy, 3)
    lazy = _lazy_with(StateInfo(Owner.RANDOM, ("t", "a"), (Fraction(1),)))
    with pytest.raises(TruncationError, match=r"^expand\('a'\) returned 1 weights for 2 successors$"):
        truncate(lazy, 3)


def test_truncate_refuses_weights_at_an_owned_state():
    lazy = _lazy_with(StateInfo(Owner.MIN, ("t", "a"), (HALF, HALF)))
    with pytest.raises(TruncationError, match=r"^expand\('a'\) returned weights for an owned state$"):
        truncate(lazy, 3)


def test_truncate_refuses_a_window_that_validate_rejects():
    third = Fraction(1, 3)
    lazy = _lazy_with(StateInfo(Owner.RANDOM, ("t", "a"), (third, third)))
    message = r"^malformed expansion: weight-sum at a: weights sum to 2/3, expected 1$"
    with pytest.raises(TruncationError, match=message):
        truncate(lazy, 3)
    # No certified bracket comes out of such a window.
    with pytest.raises(TruncationError, match=message):
        interval_values(lazy, ObjectiveKind.REACH, 3)
    lazy = _lazy_with(StateInfo(Owner.MAX, ("t", "t")))
    with pytest.raises(TruncationError, match=r"^malformed expansion: duplicate-edge at a: "):
        truncate(lazy, 3)


F = Fraction
_REPEATED = r"^malformed expansion: duplicate-edge at a: successor 'x' listed twice$"
_NONPOSITIVE = r"^malformed expansion: nonpositive-weight at a: weight {} is not positive$"


@pytest.mark.parametrize("row, message", [
    (StateInfo(Owner.MAX, ("x", "x")), _REPEATED),
    (StateInfo(Owner.RANDOM, ("x", "t", "x"), (F(1, 3),) * 3), _REPEATED),
    (StateInfo(Owner.RANDOM, ("t", "x", "y"), (F(1, 2), F(-1, 4), F(3, 4))),
     _NONPOSITIVE.format("-1/4")),
    (StateInfo(Owner.RANDOM, ("t", "x", "y"), (F(1, 2), F(0), F(1, 2))), _NONPOSITIVE.format("0")),
], ids=["owned", "random", "negative-weight", "zero-weight"])
def test_truncate_refuses_a_malformed_row_at_every_depth(row, message):
    # At depth 0 the bad edges leave the window and would merge into one
    # sink edge of a valid weight; deeper, they stay.  The refusal is the
    # same either way.
    for depth in (0, 1, 2):
        with pytest.raises(TruncationError, match=message):
            truncate(_lazy_with(row), depth)
    with pytest.raises(TruncationError, match=message):
        interval_values(_lazy_with(row), ObjectiveKind.REACH, 0)


@pytest.mark.parametrize("weights", [(0.5, 0.5), (0.1, 0.9), (HALF, 0.5)])
def test_truncate_takes_no_float_weights(weights):
    lazy = _lazy_with(StateInfo(Owner.RANDOM, ("t", "x"), weights))
    bad = next(w for w in weights if isinstance(w, float))
    for depth in (0, 1, 2):
        with pytest.raises(TypeError, match=f"^not an exact rational weight: {bad}$"):
            truncate(lazy, depth)


def test_truncate_reads_weights_like_game_of():
    # Text ``p/q`` and ints are read as ``Game.of`` reads them.
    exact = _lazy_with(StateInfo(Owner.RANDOM, ("t", "x"), (HALF, HALF)))
    for weights in (("1/2", "1/2"), ("1/2", HALF), ("2/4", "1/2")):
        text = _lazy_with(StateInfo(Owner.RANDOM, ("t", "x"), weights))
        for depth in (0, 1, 2):
            assert truncate(text, depth) == truncate(exact, depth)
    whole = _lazy_with(StateInfo(Owner.RANDOM, ("t",), (1,)))
    assert truncate(whole, 1).game.prob["a"] == (Fraction(1),)
    with pytest.raises(ValueError, match="^malformed rational '0.5'"):
        truncate(_lazy_with(StateInfo(Owner.RANDOM, ("t", "x"), ("0.5", "1/2"))), 1)


def _lazy_of(game: Game) -> LazyGame:
    """``game`` as a lazy game from its first state."""
    def expand(s):
        return StateInfo(game.owner[s], game.succ[s], game.prob.get(s))

    return LazyGame(game.states[0], expand)


def test_every_window_passes_validate():
    # Rows are checked before their leaving edges merge into the sink, and
    # the window is not checked again: merging must keep valid rows valid.
    lazies = [gallery.fig2_lazy(), gallery.gamblers_ruin_lazy(F(3, 5)),
              gallery.gamblers_ruin_lazy(F(2, 5))]
    for lazy in lazies:
        for depth in range(41):
            assert validate(truncate(lazy, depth).game) == []
    for seed in range(600):
        n = 4 + seed % 9
        game, _ = random_game(seed, n=n, max_branch=4)
        for depth in range(n + 1):
            assert validate(truncate(_lazy_of(game), depth).game) == []


def test_expand_is_deterministic_on_gallery_generators():
    lazy = gallery.fig2_lazy()
    for sid in ("i", "s3", "sp2", "r0", "rp4", "t"):
        assert lazy.expand(sid) == lazy.expand(sid)


def test_optimistic_sink_joins_every_label_set():
    trunc = truncate(gallery.fig2_lazy(), 5)
    for label in ("target", "buchi"):
        assert trunc.sink not in trunc.label_set(label, SinkMode.PESSIMISTIC)
        assert (trunc.label_set(label, SinkMode.OPTIMISTIC)
                == trunc.label_set(label, SinkMode.PESSIMISTIC) | {trunc.sink})


@pytest.mark.parametrize("text, value", [
    ("0", Fraction(0)), ("7", Fraction(7)), ("2/4", HALF), ("01/10", Fraction(1, 10)),
])
def test_rational_reader_takes_p_and_p_over_q(text, value):
    assert _as_fraction(text) == value


@pytest.mark.parametrize("text", [
    "0", "00", "0/7", "7", "2/4", "01/10", "10/0100", "6/3", "3/6", "123456789012345678901234567890/7",
    # Past Python's limit on int-from-string conversion: both raise the
    # same ValueError.
    "1" * 5000 + "/3", "3/" + "1" * 5000,
])
def test_rational_reader_returns_or_raises_what_fraction_does(text):
    try:
        expected = Fraction(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _as_fraction(text)
        assert str(got.value) == str(exc)
    else:
        value = _as_fraction(text)
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)


@pytest.mark.parametrize("text", ["1/0", "3/00", "abc", "", "1e-9", "0.5", "-1/2", "+1", " 1",
                                  "1/", "/2", "1/2/3", "\u0661/2"])
def test_rational_reader_rejects_anything_else(text):
    with pytest.raises(ValueError, match="malformed rational"):
        _as_fraction(text)


def test_rational_reader_takes_no_floats():
    with pytest.raises(TypeError):
        _as_fraction(0.5)


def test_rational_reader_takes_no_bools():
    # ``bool`` subclasses ``int``; the reader refuses it as ``_as_int`` does.
    for flag in (True, False):
        with pytest.raises(TypeError, match=f"^not an exact rational weight: {flag}$"):
            _as_fraction(flag)
    assert _as_fraction(1) == 1 and _as_fraction(0) == 0
    with pytest.raises(TypeError):
        Game.of([("a", "rand", ("t",), (True,)), ("t", "max", ("t",))])
    game = Game.of([("a", "rand", ("t",), (1,)), ("t", "max", ("t",))])
    with pytest.raises(TypeError):
        threshold_decide(game, {"t"}, True, False, "a")
    assert threshold_decide(game, {"t"}, 1, False, "a") is not None


def test_target_check_names_the_stray_states():
    g = Game.of([("s", "max", ("s",))])
    assert check_targets(g, ("s",)) == {"s"}
    with pytest.raises(ValueError, match=r"target states not in game: \['x', 'y'\]"):
        check_targets(g, ("y", "s", "x"))


# Every referee that takes a target set, given one with a stray state.
_STRAY = {"nope"}
_STRAY_TARGET_SITES = {
    "md_enumeration_oracle": lambda g: md_enumeration_oracle(g, reach(*_STRAY)),
    "mdp_buchi_exact": lambda g: mdp_buchi_exact(g, _STRAY),
    "chain_buchi_values": lambda g: chain_buchi_values(g, {"a": "t", "t": "t"}, _STRAY),
    "bellman_step": lambda g: bellman_step(g, _STRAY, dict.fromkeys(g.states, HALF)),
    "classify_transitions": lambda g: classify_transitions(g, dict.fromkeys(g.states, HALF),
                                                           _STRAY),
}


@pytest.mark.parametrize("site", _STRAY_TARGET_SITES.values(), ids=_STRAY_TARGET_SITES)
def test_every_referee_refuses_a_stray_target(site):
    g = Game.of([("a", "max", ("t", "a")), ("t", "max", ("t",))])
    with pytest.raises(ValueError, match=r"^target states not in game: \['nope'\]$"):
        site(g)


def test_truncate_takes_an_integer_depth_only():
    import numpy as np

    # A finite game, so that a float depth cannot make the expansion run on.
    def expand(s):
        if s == "a":
            return StateInfo(Owner.RANDOM, ("t", "a"), (HALF, HALF))
        return StateInfo(Owner.MAX, ("t",))

    lazy = LazyGame("a", expand)
    with pytest.raises(TypeError):
        truncate(lazy, 2.5)
    assert truncate(lazy, np.int64(2)).game == truncate(lazy, 2).game


_CHAIN = Game.of([("a", "rand", ("t", "a"), (HALF, HALF)), ("t", "max", ("t",))])
_LAZY = LazyGame("a", lambda s: StateInfo(_CHAIN.owner[s], _CHAIN.succ[s], _CHAIN.prob.get(s)))
_CONFIG = dict(samples=50, horizon=10, seed=1, buchi_window=1)


def _config(name, n):
    return SimConfig(**{**_CONFIG, name: n})


# Every site that reads an integer argument: the argument's name, and what
# the site keeps of a value ``n`` passed there (its result, where it keeps
# nothing).
_INTEGER_SITES = {
    "truncate": ("depth", lambda n: truncate(_LAZY, n).depth),
    "value_reach_within": ("steps", lambda n: value_reach_within(_CHAIN, {"t"}, n).values),
    "Objective": ("steps", lambda n: reach("t", steps=n).steps),
    "build_ladder": ("k", lambda n: gallery.build_ladder(n).game.states),
    "build_gamblers_ruin": ("cap", lambda n: gallery.build_gamblers_ruin("1/2", n).game.states),
    "sample_plays": ("seed", lambda n: sample_plays(_CHAIN, "a", reach("t"), _config("seed", n))),
    **{f"SimConfig.{name}": (name, lambda n, name=name: getattr(_config(name, n), name))
       for name in _CONFIG},
}


@pytest.mark.parametrize("name, read", _INTEGER_SITES.values(), ids=_INTEGER_SITES)
def test_every_integer_argument_follows_one_rule(name, read):
    import numpy as np

    for bad in (2.5, True):
        with pytest.raises(TypeError, match=f"^{name} must be an int, not {re.escape(repr(bad))}$"):
            read(bad)
    kept = read(np.int64(7))
    assert kept == read(7)
    assert type(kept) is type(read(7))
