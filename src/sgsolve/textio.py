"""Text format for game files.

One declaration per line, ``#`` starts a comment, ids are whitespace-free
tokens without ``#``::

    state <id> max|min|rand
    edge <src> <dst>            # edges of owned states
    edge <src> <dst> <p/q>      # edges of random states, exact rational weight
    target <id>                 # default target set, may be overridden on the CLI

Parsing is strict: unknown keywords, duplicate state declarations, edges
touching undeclared states, malformed weights and misplaced weights are hard
errors carrying the offending line number.  Duplicate edges and weight sums
are left to :func:`sgsolve.model.validate`, which reports them as violations.

Lines are those of ``str.splitlines``, so ``\\r\\n`` and the other breaks
it honours (``\\x0b``, ``\\x0c``, ``\\x1c``, ``\\x85``, ``\\u2028`` and more) end a
line and count towards line numbers.  A comment runs from the first ``#`` of
a line to its end; text without a ``#`` is split into tokens with no cut.
The writers refuse an id that the reader could not read back: an empty one,
or one holding whitespace or ``#``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import Game, Owner, SgsolveError, _as_fraction

_KINDS = {o.value: o for o in Owner}


class GameFormatError(SgsolveError, ValueError):
    """A hard parse error, with the 1-based line number it occurred on."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class ParsedGame:
    """A parsed game file: the game, its default target set and, for error
    reporting, the line on which each state was declared."""

    game: Game
    targets: frozenset[str]
    state_lines: dict[str, int]


def _tokens(text: str) -> list[tuple[int, list[str]]]:
    """Line number and tokens of each line not blank once its comment is cut."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return [(lineno, toks) for lineno, toks in enumerate(map(str.split, lines), start=1) if toks]


def _check_ids(ids) -> None:
    """Raise ``ValueError`` naming the first of ``ids`` that the reader would
    not read back as the same token: an empty one, or one holding whitespace
    (every line break is whitespace) or ``#``."""
    ids = [f"{i}" for i in ids]
    if "#" in (joined := " ".join(ids)) or joined.split() != ids:
        bad = next(i for i in ids if i.split() != [i] or "#" in i)
        raise ValueError(f"cannot write id {bad!r}: an id is one token, without whitespace or '#'")


def parse_game(text: str) -> ParsedGame:
    owner: dict[str, Owner] = {}
    state_lines: dict[str, int] = {}
    edges: list[tuple[int, str, str, Fraction | None]] = []
    targets: list[tuple[int, str]] = []
    # Each distinct weight text is read once.
    weights: dict[str, Fraction] = {}

    for lineno, toks in _tokens(text):
        kw = toks[0]
        # Most lines are edges, so they are tested first.
        if kw == "edge":
            if len(toks) == 3:
                edges.append((lineno, toks[1], toks[2], None))
            elif len(toks) == 4:
                weight = weights.get(toks[3])
                if weight is None:
                    try:
                        weight = weights[toks[3]] = _as_fraction(toks[3])
                    except ValueError:
                        raise GameFormatError(lineno, f"malformed rational weight {toks[3]!r}") from None
                edges.append((lineno, toks[1], toks[2], weight))
            else:
                raise GameFormatError(lineno, "expected: edge <src> <dst> [<p/q>]")
        elif kw == "state":
            if len(toks) != 3:
                raise GameFormatError(lineno, "expected: state <id> max|min|rand")
            sid, kind = toks[1], toks[2]
            if sid in owner:
                raise GameFormatError(lineno, f"duplicate declaration of state {sid!r}")
            if kind not in _KINDS:
                raise GameFormatError(lineno, f"unknown state kind {kind!r}")
            owner[sid] = _KINDS[kind]
            state_lines[sid] = lineno
        elif kw == "target":
            if len(toks) != 2:
                raise GameFormatError(lineno, "expected: target <id>")
            targets.append((lineno, toks[1]))
        else:
            raise GameFormatError(lineno, f"unknown keyword {kw!r}")

    succ: dict[str, list[str]] = {s: [] for s in owner}
    prob: dict[str, list[Fraction]] = {s: [] for s, o in owner.items() if o is Owner.RANDOM}
    for lineno, src, dst, weight in edges:
        out = succ.get(src)
        if out is None:
            raise GameFormatError(lineno, f"edge from undeclared state {src!r}")
        if dst not in owner:
            raise GameFormatError(lineno, f"edge to undeclared state {dst!r}")
        # Only random states have a weight list.
        ws = prob.get(src)
        if ws is None:
            if weight is not None:
                raise GameFormatError(lineno, f"edge from owned state {src!r} must not carry a weight")
        elif weight is None:
            raise GameFormatError(lineno, f"edge from random state {src!r} needs a weight")
        else:
            ws.append(weight)
        out.append(dst)

    for lineno, sid in targets:
        if sid not in owner:
            raise GameFormatError(lineno, f"target refers to undeclared state {sid!r}")

    game = Game(owner, {s: tuple(ts) for s, ts in succ.items()},
                {s: tuple(ws) for s, ws in prob.items()})
    return ParsedGame(game, frozenset(t for _, t in targets), state_lines)


def format_game(game: Game, targets=()) -> str:
    """Serialize a game (and optional target set) in the text format; an id
    the reader cannot read back raises ``ValueError`` and nothing is written."""
    targets = list(targets)
    _check_ids([*game.states, *(t for s in game.states for t in game.succ[s]), *targets])
    lines = [f"state {s} {game.owner[s].value}" for s in game.states]
    for s in game.states:
        if game.owner[s] is Owner.RANDOM:
            lines += [f"edge {s} {t} {w.numerator}/{w.denominator}"
                      for t, w in game.distribution(s)]
        else:
            lines += [f"edge {s} {t}" for t in game.succ[s]]
    lines += [f"target {t}" for t in targets]
    return "\n".join(lines) + "\n"
