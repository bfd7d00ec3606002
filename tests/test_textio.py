"""The text game-file format: strict parsing, round trips, line numbers."""

import pytest
from conftest import random_game

from sgsolve import Game, GameFormatError, format_game, parse_game
from sgsolve import gallery


def test_round_trip_ladder():
    built = gallery.build_ladder(3)
    text = format_game(built.game, sorted(built.targets))
    parsed = parse_game(text)
    assert parsed.game.owner == built.game.owner
    assert parsed.game.succ == built.game.succ
    assert parsed.game.prob == built.game.prob
    assert parsed.targets == built.targets


def test_comments_and_blank_lines():
    parsed = parse_game(
        """
        # a tiny chain
        state a rand
        state t max   # the goal
        edge a t 1/2
        edge a a 1/2
        edge t t
        target t
        """
    )
    assert parsed.targets == {"t"}
    assert parsed.state_lines["a"] == 3


@pytest.mark.parametrize(
    "text, line, needle",
    [
        ("state a max\nfoo a b\n", 2, "unknown keyword"),
        ("state a max\nstate a min\n", 2, "duplicate"),
        ("state a max\nedge b a\n", 2, "undeclared"),
        ("state a max\nedge a b\n", 2, "undeclared"),
        ("state a rand\nstate b max\nedge a b 0.5\n", 3, "malformed rational"),
        ("state a rand\nstate b max\nedge a b\nedge b b\n", 3, "needs a weight"),
        ("state a max\nstate b max\nedge a b 1/2\n", 3, "must not carry"),
        ("state a weird\n", 1, "unknown state kind"),
        ("state a max\ntarget b\n", 2, "undeclared"),
        # Errors of the line-by-line pass come before unresolved edges.
        ("state a max\nedge a b\nfoo a\n", 3, "unknown keyword"),
        ("edge a b\nstate a max\nstate a min\n", 3, "duplicate"),
        # The comment cut comes before the split into tokens.
        ("state a#x max\n", 1, "expected: state <id> max|min|rand"),
    ],
)
def test_strict_parse_errors_carry_line_numbers(text, line, needle):
    with pytest.raises(GameFormatError) as err:
        parse_game(text)
    assert err.value.line == line
    assert needle in str(err.value)


def test_duplicate_edges_are_left_to_validation():
    parsed = parse_game("state a max\nedge a a\nedge a a\n")
    from sgsolve import validate

    assert [v.kind for v in validate(parsed.game)] == ["duplicate-edge"]


def test_edges_may_come_before_their_states():
    parsed = parse_game("edge a t 1/3\nedge a a 2/3\nedge t t\nstate a rand\nstate t max\n")
    assert parsed.game.succ == {"a": ("t", "a"), "t": ("t",)}
    assert [str(w) for w in parsed.game.prob["a"]] == ["1/3", "2/3"]
    assert parsed.state_lines == {"a": 4, "t": 5}


def test_a_comment_may_touch_the_last_token():
    parsed = parse_game("state a max#x\nedge a a# loop\n")
    assert parsed.game.succ == {"a": ("a",)}


def test_crlf_line_endings_parse():
    text = "state a rand\nstate t max\nedge a t 1/2\nedge a a 1/2\nedge t t\ntarget t\n"
    crlf = parse_game(text.replace("\n", "\r\n"))
    assert crlf == parse_game(text)
    assert crlf.state_lines == {"a": 1, "t": 2}


def test_round_trip_random_games():
    for seed in range(240):
        game, targets = random_game(seed, n=3 + seed % 13, max_branch=1 + seed % 5,
                                    owned_branch=1 + seed % 3, max_targets=3)
        parsed = parse_game(format_game(game, sorted(targets)))
        assert parsed.game == game
        assert parsed.game.states == game.states
        assert parsed.targets == targets


# Ids the reader cannot read back as one token: empty, holding whitespace
# (every line break counts) or holding a comment sign.
UNWRITABLE = ["a#b", "#", "", "a b", " a", "a\t", "a\r\nb", "a\x0bb", "a\x0cb", "a\x1cb", "a\x85b",
              "a\u2028b", "a\u3000b"]
WRITABLE = ["a-b", "x/y", "0", "1/2", "state", "edge", "max", "été", "a,b", "a<=b"]


@pytest.mark.parametrize("bad", UNWRITABLE)
@pytest.mark.parametrize("where", ["state", "target"])
def test_format_game_refuses_an_id_it_cannot_read_back(bad, where):
    game = Game.of([("a", "max", ["t"]), (bad, "max", ["t"]), ("t", "max", ["t"])])
    with pytest.raises(ValueError, match="cannot write id") as err:
        format_game(game, [bad, "a"] if where == "target" else ["a"])
    assert repr(bad) in str(err.value)


def test_format_game_names_the_first_unwritable_id_in_writing_order():
    game = Game.of([("a", "max", ["t", "x y"]), ("t", "max", ["t"]), ("u#", "max", ["t"])])
    with pytest.raises(ValueError, match="'u#'"):
        format_game(game, ["t"])
    game = Game.of([("a", "max", ["t", "x y"]), ("t", "max", ["t"])])
    with pytest.raises(ValueError, match="'x y'"):
        format_game(game, ["a b"])


def test_a_comment_sign_in_an_id_is_refused_not_written():
    with pytest.raises(ValueError, match="'a#b'"):
        format_game(Game.of([("a#b", "max", ["t"]), ("t", "max", ["t"])]), ["t"])


@pytest.mark.parametrize("name", WRITABLE)
def test_round_trip_writable_ids(name):
    game = Game.of([(name, "rand", [name, "t"], ["1/3", "2/3"]), ("t", "max", ["t", name])])
    parsed = parse_game(format_game(game, [name]))
    assert parsed.game == game
    assert parsed.targets == {name}
