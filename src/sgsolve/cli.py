"""Command-line interface.

Exit codes: 0 on success and 1 on every error: bad input (a parse failure,
an invalid game, a bad flag or rational; rational flags take ``p`` or
``p/q``) or a failed computation (any ``model.SgsolveError``, such as
``ConvergenceError`` or a broken invariant), printed as ``error:`` lines on
stderr and never as a traceback.  All solver output is deterministic;
rationals print as p/q in lowest terms, at any size, and floats with 12
significant digits, rounded to nearest except in iterate ``solve``, where
each value is rounded towards its sound side (down for reach and Buchi, up
for safety and co-Buchi) and the error bound up.  Each command imports only
the layers it runs, so ``--help`` and a flag error load nothing of the
package beyond this module.

Which objectives each command mode serves is one table, ``_TABLE``; a pair
without a cell there exits 1 from :func:`_cell`, as ``error: <command> does
not handle --objective <objective>``.

Every command, ``validate`` included, rejects an invalid game through
:func:`_load`, one ``error: line N: ...`` line per violation.  The checks on
the other inputs live in the library and run once there: state arguments
(``--from``) in ``model.check_state``, target sets in ``model.check_targets``
and strategy files in the strategy's own ``check``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import sys


def _fmt(v) -> str:
    return f"{v:.12g}" if isinstance(v, float) else str(v)


def _fmt_bound(v: float, up: bool) -> str:
    """``v`` to 12 significant digits like :func:`_fmt`, but rounded towards
    +inf (``ROUND_CEILING``, when ``up``) or -inf (``ROUND_FLOOR``) instead
    of to nearest, so that the printed number bounds the float on that side.

    The ``.12g`` text serves as it is when its nearest float lies strictly on
    that side, as rounding is monotone, and so do 0 and 1; ``decimal``
    rounds the float's exact value otherwise.
    """
    text = f"{v:.12g}"
    near = float(text)
    if near != v and (near > v) == up or v in (0.0, 1.0):
        return text
    d = _directed(up).create_decimal_from_float(v)
    x = d.adjusted()
    if -4 <= x < 12:
        # A 12-digit decimal in this range survives the nearest float.
        return f"{float(d):.12g}"
    # Beyond it the float may be subnormal or infinite: print the digits.
    return f"{format(d.normalize(), 'e').split('e')[0]}e{x:+03d}"


@functools.cache
def _directed(up: bool):
    import decimal

    return decimal.Context(prec=12, rounding=decimal.ROUND_CEILING if up else decimal.ROUND_FLOOR)


def _emit(rows: list[tuple], header: tuple[str, ...], fmt: str) -> None:
    out = sys.stdout
    if fmt == "json-lines":
        import json

        for row in rows:
            out.write(json.dumps(dict(zip(header, map(_fmt, row)))) + "\n")
    elif fmt == "table":
        cells = [header] + [tuple(map(_fmt, row)) for row in rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
        for r in cells:
            out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")
    else:
        # One write for all rows, with _fmt's float test inlined: a write per
        # row and a call per value cost more than the join.
        out.write("".join([" ".join([f"{v:.12g}" if isinstance(v, float) else str(v) for v in row])
                           + "\n" for row in rows]))


def _trailer(key: str, value, fmt: str, lead: str = "") -> None:
    """The summary line after the rows; a JSON object in json-lines format."""
    if fmt == "json-lines":
        import json

        print(json.dumps({key: _fmt(value)}))
    else:
        print(f"{lead}{key} {_fmt(value)}")


def _write(text: str, path: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout when it is empty."""
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str):
    """Parse a game file and reject a game that breaks the invariants, each
    violation led by the line that declares its state."""
    from .model import validate
    from .textio import parse_game

    with open(path, encoding="utf-8") as handle:
        parsed = parse_game(handle.read())
    violations = []
    for v in validate(parsed.game):
        line = parsed.state_lines.get(v.state)
        violations.append(f"line {line}: {v}" if line is not None else str(v))
    if violations:
        raise ValueError("\n".join(violations))
    return parsed


def _strategy(path: str, game):
    """Parse a strategy file and check it against the game."""
    from .strategies import parse_strategy

    with open(path, encoding="utf-8") as handle:
        strategy = parse_strategy(handle.read())
    strategy.check(game)
    return strategy


def _rational(flag: str, text: str):
    """The rational value of a flag; a malformed one is an error naming it."""
    from .model import _as_fraction

    try:
        return _as_fraction(text)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _objective(args, parsed):
    from .objectives import parse_objective

    # The file's targets stay a set: an id in it may hold a comma.
    target = args.target or parsed.targets
    if not target:
        raise ValueError("no target set: pass --target or declare targets in the file")
    return parse_objective(args.objective, target)


def _lib(module: str):
    """The package module ``module``, imported when a cell first runs."""
    return importlib.import_module(f"{__package__}.{module}")


def _on_target(module: str, name: str):
    """A cell that runs ``module.name`` on the game, the objective's target
    set and the mode's own arguments."""
    return lambda game, obj, *more: getattr(_lib(module), name)(game, obj.target, *more)


def _values(name: str) -> dict:
    """The exact and iterate cells of a value solver that takes a tolerance."""
    cell = _on_target("values", name)
    return {"exact": cell, "iterate": cell}


def _rvi(game, obj):
    return _lib("transforms").rvi(game, _lib("exact").solve_reach_exact(game, obj.target))


def _reach_plus(game, obj):
    exact = _lib("exact")
    values = exact.reach_plus_values(game, exact.solve_reach_exact(game, obj.target))
    return _lib("values").ValueVector(values)


def _buchi_max(game, obj):
    peel = _lib("winning").buchi_peel(game, obj.target)
    return _lib("strategies")._buchi_max_md(game, peel, set(obj.target))


def _buchi_min(game, obj):
    return _lib("strategies")._buchi_min_md(game, _lib("winning").buchi_peel(game, obj.target))


# Each command mode, as a refusal names it.
_MODES = {"exact": "solve", "iterate": "solve --mode iterate", "winning-set": "winning-set",
          "max": "strategy --player max", "min": "strategy --player min", "decide": "decide",
          "rvi": "transform --rvi"}
_REACH_MD = {"max": _on_target("strategies", "optimal_max_md"),
             "min": _on_target("strategies", "optimal_min_md"), "rvi": _rvi}
# The objective table, keyed by objective kind: a row maps each command mode
# that serves the kind to its cell, a function of the game, the objective
# and the mode's own arguments; a mode without a cell refuses the kind.
# Cells import the layers they run when they run, so the table loads no
# module.  ``up`` is the side that iterate values round to: up for safety
# and co-Buchi, whose iterates approach the value from above.
_TABLE = {
    "reach": {**_values("value_reach"), **_REACH_MD,
              "winning-set": _on_target("winning", "almost_sure_reach"),
              "decide": _on_target("strategies", "threshold_decide")},
    "safety": {**_values("value_safety"), "up": True,
               "winning-set": _on_target("winning", "almost_sure_safety")},
    "buchi": {**_values("value_buchi"), "winning-set": _on_target("winning", "almost_sure_buchi"),
              "max": _buchi_max, "min": _buchi_min},
    "cobuchi": {**_values("value_cobuchi"), "up": True},
    "reachplus": {"exact": _reach_plus, **_REACH_MD},
    "reach-within": {"exact": lambda game, obj: _lib("values").value_reach_within(
        game, obj.target, obj.steps)},
}


def _cell(args, obj, mode: str):
    """The table's cell for ``obj`` in command mode ``mode``: every refused
    pair is refused here, naming the command and the objective as typed."""
    cell = _TABLE[obj.kind.value].get(mode)
    if cell is None:
        raise ValueError(f"{_MODES[mode]} does not handle --objective {args.objective}")
    return cell


def _cmd_validate(args) -> int:
    _load(args.file)
    print("ok")
    return 0


def _cmd_solve(args) -> int:
    if args.tol and args.mode != "iterate":
        raise ValueError("--tol applies to --mode iterate only")
    parsed = _load(args.file)
    obj = _objective(args, parsed)
    game = parsed.game
    cell = _cell(args, obj, args.mode)
    if args.mode == "iterate" and not args.tol:
        raise ValueError("iterate mode needs a positive tolerance")
    # A tolerance is given exactly in iterate mode, and selects it.
    vec = cell(game, obj, _rational("--tol", args.tol)) if args.tol else cell(game, obj)
    if vec.is_exact:
        rows = [(s, vec.values[s]) for s in game.states]
    else:
        # Each float prints on its sound side: reach and Buchi iterates
        # approach the value from below, safety and co-Buchi from above.
        up = _TABLE[obj.kind.value].get("up", False)
        rows = [(s, _fmt_bound(vec.values[s], up)) for s in game.states]
    # Rationals print at any size: the interpreter's limit on int-to-string
    # conversion is lifted while they are written and restored for the files
    # parsed after (Python 3.10 has no such limit).
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if saved:
        sys.set_int_max_str_digits(0)
    try:
        _emit(rows, ("state", "value"), args.format)
        if not vec.is_exact:
            _trailer("error-bound", _fmt_bound(float(vec.error_bound), True), args.format, "# ")
    finally:
        if saved:
            sys.set_int_max_str_digits(saved)
    return 0


def _cmd_winning_set(args) -> int:
    parsed = _load(args.file)
    obj = _objective(args, parsed)
    part = _cell(args, obj, "winning-set")(parsed.game, obj)
    rows = []
    for s in parsed.game.states:
        side = "max" if s in part.max_wins else "min"
        idx = part.index.get(s)
        rows.append(("state", s, side, "index", "bot" if idx is None else idx))
    _emit(rows, ("kw", "state", "side", "kw2", "index"), args.format)
    _trailer("rounds", part.rounds, args.format)
    return 0


def _cmd_strategy(args) -> int:
    from .strategies import format_strategy

    parsed = _load(args.file)
    obj = _objective(args, parsed)
    strat = _cell(args, obj, args.player)(parsed.game, obj)
    _write(format_strategy(strat), args.emit)
    return 0


def _cmd_transform(args) -> int:
    from .textio import format_game

    parsed = _load(args.file)
    if not args.rvi:
        raise ValueError("transform currently only supports --rvi")
    obj = _objective(args, parsed)
    out = _cell(args, obj, "rvi")(parsed.game, obj)
    _write(format_game(out, sorted(obj.target)), args.emit)
    return 0


def _cmd_simulate(args) -> int:
    from .simulate import SimConfig, sample_plays

    parsed = _load(args.file)
    obj = _objective(args, parsed)
    cfg = SimConfig(
        samples=args.samples,
        horizon=args.horizon,
        seed=args.seed,
        buchi_window=args.buchi_window,
    )
    sigma = _strategy(args.sigma, parsed.game) if args.sigma else None
    pi = _strategy(args.pi, parsed.game) if args.pi else None
    if not (args.from_state or parsed.game.owner):
        raise ValueError("the game has no states to start from")
    start = args.from_state or parsed.game.states[0]
    est = sample_plays(parsed.game, start, obj, cfg, sigma=sigma, pi=pi)
    rows = [
        ("mean", est.mean),
        ("half-width-95", est.half_width_95),
        ("decided-fraction", est.decided_fraction),
    ]
    _emit(rows, ("stat", "value"), args.format)
    return 0


def _cmd_gallery(args) -> int:
    from . import gallery
    from .model import SinkMode
    from .textio import format_game

    kind = args.kind
    if kind == "fig2":
        built = gallery.build_fig2(args.depth, SinkMode(args.sink))
    elif kind == "fig2u":
        built = gallery.build_fig2_with_u(args.depth, SinkMode(args.sink))
    elif kind == "ladder":
        built = gallery.build_ladder(args.k)
    else:
        built = gallery.build_gamblers_ruin(_rational("--p", args.p), args.cap)
    members = built.buchi if args.label == "buchi" else built.targets
    text = format_game(built.game, sorted(members))
    _write(text, args.emit)
    return 0


def _cmd_decide(args) -> int:
    from .strategies import format_strategy

    parsed = _load(args.file)
    obj = _objective(args, parsed)
    cell = _cell(args, obj, "decide")
    verdict = cell(parsed.game, obj, _rational("--threshold", args.threshold), args.strict,
                   args.from_state)
    print(f"winner {verdict.winner}")
    print(f"reason {verdict.reason}")
    sys.stdout.write(format_strategy(verdict.strategy))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged and it writes its messages to the ``sys.stderr`` of the call."""
    parser = argparse.ArgumentParser(
        prog="sgsolve",
        description="Solve turn-based 2.5-player stochastic games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=False):
        p.add_argument("file", help="game file")
        p.add_argument("--objective", default="reach",
                       help="reach|safety|buchi|cobuchi|reachplus|reach<=N")
        p.add_argument("--target", default="",
                       help="comma-separated target ids (default: the file's targets, "
                            "which may hold commas)")
        if formats:
            p.add_argument("--format", choices=("lines", "table", "json-lines"),
                           default="lines")

    p = sub.add_parser("validate", help="check the game invariants")
    p.add_argument("file")
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("solve", help="per-state objective values")
    add_common(p, formats=True)
    p.add_argument("--mode", choices=("exact", "iterate"), default="exact")
    p.add_argument("--tol", default="", help="tolerance for --mode iterate, e.g. 1/1000000")
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("winning-set", help="almost-sure winning partition")
    add_common(p, formats=True)
    p.set_defaults(run=_cmd_winning_set)

    p = sub.add_parser("strategy", help="synthesize and export an MD strategy")
    add_common(p)
    p.add_argument("--player", choices=("max", "min"), required=True)
    p.add_argument("--emit", default="", help="output file (default: stdout)")
    p.set_defaults(run=_cmd_strategy)

    p = sub.add_parser("transform", help="value-preserving transformations")
    add_common(p)
    p.add_argument("--rvi", action="store_true",
                   help="remove the minimizer's value-increasing transitions")
    p.add_argument("--emit", default="", help="output file (default: stdout)")
    p.set_defaults(run=_cmd_transform)

    p = sub.add_parser("simulate", help="Monte-Carlo estimate under a strategy pair")
    add_common(p, formats=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--buchi-window", type=int, default=1)
    p.add_argument("--sigma", default="", help="maximizer strategy file")
    p.add_argument("--pi", default="", help="minimizer strategy file")
    p.add_argument("--from", dest="from_state", default="", help="initial state")
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("gallery", help="emit an example game in the text format")
    p.add_argument("kind", choices=("fig2", "ladder", "ruin", "fig2u"))
    p.add_argument("--depth", type=int, default=8, help="truncation depth (fig2, fig2u)")
    p.add_argument("--k", type=int, default=3, help="levels (ladder)")
    p.add_argument("--p", default="3/5", help="win probability (ruin)")
    p.add_argument("--cap", type=int, default=30, help="absorbing cap (ruin)")
    p.add_argument("--sink", choices=("pessimistic", "optimistic"), default="pessimistic")
    p.add_argument("--label", choices=("target", "buchi"), default="target",
                   help="which annotation becomes the file's target lines")
    p.add_argument("--emit", default="", help="output file (default: stdout)")
    p.set_defaults(run=_cmd_gallery)

    p = sub.add_parser("decide", help="threshold reachability decision")
    add_common(p)
    p.add_argument("--threshold", required=True, help="rational threshold p/q")
    p.add_argument("--strict", action="store_true", help="strict inequality")
    p.add_argument("--from", dest="from_state", required=True, help="initial state")
    p.set_defaults(run=_cmd_decide)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    from .model import SgsolveError

    try:
        return args.run(args)
    except (SgsolveError, ValueError, OSError) as exc:
        for line in str(exc).split("\n"):
            print(f"error: {line}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
