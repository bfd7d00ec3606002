"""The loader against its reference copy in ``conftest``: the list
tokenizer, the parser over it and the guarded ``validate`` must agree with
the tokenizing generator, the parser over that and the validator that walks
every edge and weight.  On every input both sides give an equal parsed game
in the same order or the same ``GameFormatError`` at the same line, the same
violations in the same order, the same ``cli._load`` error text, and the
same parsed strategy.  Inputs are formatted seeded random and gallery games
and mutations of them, in a seeded corpus and under a derandomized
hypothesis property."""

import random
from fractions import Fraction

import pytest
from conftest import random_game, reference_parse_game, reference_tokens, reference_validate
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_fuzz import _TOKENS, POOL, TRANSDUCER, _mutate

from sgsolve import cli, gallery, strategies
from sgsolve.model import Game, Owner, validate
from sgsolve.strategies import format_strategy, optimal_max_md, optimal_min_md, parse_strategy
from sgsolve.textio import GameFormatError, _tokens, format_game, parse_game

GAMES = 600
# Every line break ``str.splitlines`` honours besides "\n".
BREAKS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
BAD_WEIGHTS = ("1/0", "abc", "0.5", "1e-3", "+1/2", "1/-2", "\u0663", "1//2", "/2")


def _gallery_texts() -> list[str]:
    built = [gallery.build_fig2(4), gallery.build_fig2_with_u(4), gallery.build_ladder(3),
             gallery.build_gamblers_ruin(Fraction(3, 5), 6)]
    return ([format_game(b.game, sorted(b.targets)) for b in built]
            + [format_game(b.game, sorted(b.buchi)) for b in built])


def _random_texts() -> list[str]:
    return [format_game(*random_game(seed, n=2 + seed % 11)) for seed in range(GAMES)]


def _variants(rng: random.Random, text: str) -> list[str]:
    """The text joined by each line break, and one text per kind of
    mutation: comments, blank lines, each loader error and some games that
    parse but break an invariant."""
    lines = text.splitlines()
    states = [line for line in lines if line.startswith("state ")]
    edges = [i for i, line in enumerate(lines) if line.startswith("edge ")]
    weighted = [i for i in edges if len(lines[i].split()) == 4] or edges
    plain = [i for i in edges if len(lines[i].split()) == 3] or edges

    def put(i: int, line: str) -> list[str]:
        return lines[:i] + [line] + lines[i + 1:]

    def insert(*new: str) -> list[str]:
        out = list(lines)
        for line in new:
            out.insert(rng.randrange(len(out) + 1), line)
        return out

    def reweigh(weight: str) -> list[str]:
        i = rng.choice(weighted)
        return put(i, " ".join(lines[i].split()[:3] + [weight]))

    src = rng.choice(states).split()[1]
    # A zero weight on a new edge of a random state keeps its sum at one.
    rand_src = lines[rng.choice(weighted)].split()[1]
    taken = {line.split()[2] for line in lines if line.startswith(f"edge {rand_src} ")}
    fresh = [line.split()[1] for line in states if line.split()[1] not in taken] or ["s0"]
    dead = [line for line in lines if not line.startswith(f"edge {src} ")]
    edit = rng.choice(edges)
    owned, random_edge = rng.choice(plain), rng.choice(weighted)
    comments = [line + rng.choice(("", " # note", "#", "\t#x y", "# edge a b")) for line in lines]
    glued = put(edit, lines[edit].replace(" ", "#", 1) if rng.random() < 0.5
                else lines[edit] + "#x")
    shuffled = list(lines)
    rng.shuffle(shuffled)
    mutated = [
        comments + ["# the end"],
        glued,
        insert("", "   ", "\t", " \u3000 "),
        insert("bogus a b"),
        insert(rng.choice(("state a", "edge a", "target", "target a b", "edge a b c d e",
                           "state a max extra"))),
        insert(f"state {src} {rng.choice(('weird', 'MAX', 'random'))}x"),
        reweigh(rng.choice(BAD_WEIGHTS)),
        reweigh(rng.choice(("0", "0/1", "0/7"))),
        reweigh(rng.choice(("-1/3", "-1"))),
        insert(f"edge {rand_src} {rng.choice(fresh)} {rng.choice(('0', '0/3'))}"),
        reweigh(rng.choice(("1/7", "2/1", "3/2"))),
        put(edit, "edge nosuch " + lines[edit].split(maxsplit=2)[2]),
        put(edit, " ".join(lines[edit].split()[:2] + ["nosuch"] + lines[edit].split()[3:])),
        lines + ["target nosuch"],
        insert(rng.choice(states)),
        put(owned, lines[owned] + " 1/2") if len(lines[owned].split()) == 3 else lines,
        put(random_edge, " ".join(lines[random_edge].split()[:3])),
        insert(lines[edit]),
        dead,
        [line for line in lines if line.startswith("edge ")]
        + [line for line in lines if not line.startswith("edge ")],
        shuffled,
    ]
    texts = [text, text.rstrip("\n"), "\n" + text]
    texts += [brk.join(lines) + brk for brk in BREAKS]
    texts.append("".join(line + rng.choice(BREAKS + ("\n",)) for line in lines))
    texts += ["\n".join(m) + "\n" for m in mutated]
    texts.append(_mutate(rng, text, POOL))
    return texts


def _parsed(parse, text: str):
    """A parse outcome that also compares the order of every dict, and the
    game when the text parses."""
    try:
        p = parse(text)
    except GameFormatError as exc:
        return ("error", exc.line, str(exc)), None
    return ("ok", list(p.game.owner.items()), list(p.game.succ.items()),
            list(p.game.prob.items()), p.targets, list(p.state_lines.items())), p.game


def _load_error(load, path) -> str:
    """The error text of a loader, or ``ok``."""
    try:
        load(str(path))
    except ValueError as exc:
        return str(exc)
    return "ok"


def _reference_load(path: str) -> None:
    """``cli._load`` with the reference parser and validator."""
    with open(path, encoding="utf-8") as handle:
        parsed = reference_parse_game(handle.read())
    violations = [f"line {parsed.state_lines[v.state]}: {v}" if v.state in parsed.state_lines
                  else str(v) for v in reference_validate(parsed.game)]
    if violations:
        raise ValueError("\n".join(violations))


def _check_game_text(text: str, path) -> str:
    """Check one game text on both sides; returns ``cli._load``'s error text."""
    assert _tokens(text) == list(reference_tokens(text)), text
    got, game = _parsed(parse_game, text)
    assert got == _parsed(reference_parse_game, text)[0], text
    if game is not None:
        assert validate(game) == reference_validate(game), text
    path.write_text(text, encoding="utf-8", newline="")
    error = _load_error(cli._load, path)
    assert error == _load_error(_reference_load, path), text
    return error


def _strategy_outcome(text: str) -> str:
    try:
        return repr(parse_strategy(text))
    except ValueError as exc:
        return f"error: {exc}"


def _check_strategy_text(text: str, monkeypatch) -> None:
    got = _strategy_outcome(text)
    with monkeypatch.context() as patch:
        patch.setattr(strategies, "_tokens", lambda text: list(reference_tokens(text)))
        assert got == _strategy_outcome(text), text


def _strategy_texts() -> list[str]:
    texts = [TRANSDUCER[1]]
    for seed in range(40):
        game, targets = random_game(seed)
        texts += [format_strategy(optimal_max_md(game, targets)),
                  format_strategy(optimal_min_md(game, targets))]
    return texts


def test_loader_agrees_with_reference_on_a_seeded_corpus(tmp_path):
    rng = random.Random(20261020)
    path = tmp_path / "g.game"
    errors = set()
    # Every variant of the gallery games and a seeded share of each random
    # game's, so that each kind of variant meets about 200 random games.
    texts = [t for base in _gallery_texts() for t in _variants(rng, base)]
    texts += [t for base in _random_texts() for t in rng.sample(_variants(rng, base), 12)]
    for text in texts:
        error = _check_game_text(text, path)
        errors.add(error.split(": ", 1)[-1].split(" ", 1)[0])
    # The corpus reaches every kind of parse error and violation.
    for kind in ("expected", "unknown", "duplicate", "edge", "malformed", "target",
                 "dead-end", "weight-sum", "nonpositive-weight", "duplicate-edge", "ok"):
        assert any(e.startswith(kind) for e in errors), (kind, sorted(errors))


def test_parse_strategy_agrees_with_reference_tokens(monkeypatch):
    rng = random.Random(20261021)
    for base in _strategy_texts():
        lines = base.splitlines()
        for text in [base, _mutate(rng, base, POOL), _mutate(rng, base, POOL),
                     "\n".join(line + rng.choice(("", " # c", "#"))
                               for line in lines) + "\n# end\n",
                     "".join(line + rng.choice(BREAKS) for line in lines),
                     "\n\n".join(lines)]:
            _check_strategy_text(text, monkeypatch)


# Validation is checked on games no parser makes too: successor lists with
# strays, repeats and gaps, and weight lists of any length and sign.
_IDS = ("a", "b", "c", "d")
_WEIGHTS = st.fractions(min_value=-1, max_value=2, max_denominator=6)


@st.composite
def _raw_games(draw) -> Game:
    states = draw(st.lists(st.sampled_from(_IDS), min_size=1, unique=True))
    owner, succ, prob = {}, {}, {}
    for s in states:
        owner[s] = Owner(draw(st.sampled_from(("max", "min", "rand"))))
        if draw(st.booleans()):
            succ[s] = tuple(draw(st.lists(st.sampled_from(states), max_size=4, unique=True)))
        elif draw(st.integers(0, 9)):
            succ[s] = tuple(draw(st.lists(st.sampled_from(_IDS + ("x",)), max_size=4)))
        if owner[s] is Owner.RANDOM and draw(st.integers(0, 9)):
            n = max(len(succ.get(s, ())) + draw(st.sampled_from((0, 0, 0, -1, 1))), 0)
            how = draw(st.sampled_from(("any", "completed", "positive")))
            if how == "positive":
                # Positive weights that sum to one, as a valid game has them.
                raw = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
                weights = [Fraction(x, sum(raw)) for x in raw]
            else:
                weights = draw(st.lists(_WEIGHTS, min_size=n, max_size=n))
                if weights and how == "completed":
                    # Weights that sum to one, some of them perhaps not positive.
                    weights[-1] = 1 - sum(weights[:-1])
            prob[s] = tuple(weights)
    return Game(owner, succ, prob)


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(_raw_games())
def test_hypothesis_validate_agrees_with_reference(game):
    assert validate(game) == reference_validate(game)


@pytest.fixture(scope="module")
def bases():
    return _gallery_texts() + random.Random(5).sample(_random_texts(), 8)


@pytest.fixture(scope="module")
def game_file(tmp_path_factory):
    return tmp_path_factory.mktemp("referee") / "g.game"


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.randoms(use_true_random=False), st.lists(_TOKENS, min_size=1, max_size=6),
       st.sampled_from(BREAKS + ("\n",)), st.booleans())
def test_hypothesis_loader_agrees_with_reference(bases, game_file, rng, extra, brk, comment):
    text = _mutate(rng, rng.choice(bases), POOL + tuple(extra), edits=(1, 2, 3))
    if comment:
        text = "\n".join(line + "#" + rng.choice(extra) for line in text.splitlines())
    _check_game_text(text.replace("\n", brk), game_file)
