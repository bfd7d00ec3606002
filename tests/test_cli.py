"""Command-line interface: outputs, formats, exit codes."""

import decimal
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import random_game
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sgsolve.cli
import sgsolve.exact
import sgsolve.objectives
import sgsolve.strategies
import sgsolve.transforms
import sgsolve.values
from sgsolve import (Game, InvariantError, almost_sure_buchi, almost_sure_safety, buchi_md_pair,
                     format_game, format_strategy, gallery, parse_game)
from sgsolve.cli import main


@pytest.fixture()
def fig2_file(tmp_path):
    path = tmp_path / "fig2.game"
    assert main(["gallery", "fig2", "--depth", "8", "--emit", str(path)]) == 0
    return str(path)


@pytest.fixture()
def ladder_file(tmp_path):
    path = tmp_path / "ladder.game"
    assert main(["gallery", "ladder", "--k", "3", "--emit", str(path)]) == 0
    return str(path)


def test_solve_emits_exact_rationals(fig2_file, capsys):
    assert main(["solve", fig2_file, "--objective", "reach", "--target", "t"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "r3 7/8" in out
    assert "r0 0" in out


def test_solve_iterate_reports_error_bound(fig2_file, capsys):
    code = main([
        "solve", fig2_file, "--objective", "reach", "--target", "t",
        "--mode", "iterate", "--tol", "1/100000",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "# error-bound" in out


def _printed_iterate(path, objective, tol, fmt, capsys):
    """The value strings and the error-bound string that iterate ``solve``
    prints in ``fmt``."""
    argv = ["solve", path, "--objective", objective, "--mode", "iterate", "--tol", tol]
    assert main(argv + ["--format", fmt]) == 0
    lines = capsys.readouterr().out.splitlines()
    if fmt == "json-lines":
        rows = [json.loads(line) for line in lines]
        return {r["state"]: r["value"] for r in rows[:-1]}, rows[-1]["error-bound"]
    rows = [line.split() for line in lines[fmt == "table":]]
    assert rows[-1][:2] == ["#", "error-bound"]
    return dict(rows[:-1]), rows[-1][2]


def _significant(text: str) -> str:
    return text.split("e")[0].replace(".", "").lstrip("0")


@pytest.mark.parametrize("objective", ["reach", "safety", "buchi", "cobuchi"])
def test_iterate_prints_each_float_on_its_sound_side(tmp_path, capsys, objective):
    # Reach and Buchi iterates approach the value from below and print
    # rounded down, safety and co-Buchi ones from above and print rounded
    # up, and the error bound prints rounded up; each printed number is
    # within one unit in its 12th significant digit of the returned float.
    games = [(b.game, b.targets) for b in (gallery.build_gamblers_ruin(Fraction(3, 5), cap)
                                           for cap in (30, 100))]
    games += [(b.game, b.buchi if objective in ("buchi", "cobuchi") else b.targets)
              for b in (gallery.build_fig2(d) for d in (8, 40, 80))]
    games += [random_game(seed, n=6 + seed % 30, max_branch=2 + seed % 3) for seed in range(24)]
    solver = sgsolve.values.SOLVERS[sgsolve.objectives.ObjectiveKind(objective)]
    up = objective in ("safety", "cobuchi")
    formats = ("lines", "table", "json-lines")
    for k, (game, target) in enumerate(games):
        path = tmp_path / f"g{k}.game"
        path.write_text(format_game(game, sorted(target)))
        for tol in ("1/1000000000", "1/1000"):
            vec = solver(game, target, Fraction(tol))
            values, bound = _printed_iterate(str(path), objective, tol, formats[k % 3], capsys)
            assert values.keys() == set(game.states)
            for s, text in [*values.items(), ("# error-bound", bound)]:
                v, up_here = ((vec.error_bound, True) if s == "# error-bound"
                              else (vec.values[s], up))
                printed = Fraction(text)
                assert printed >= Fraction(v) if up_here else printed <= Fraction(v), (s, text, v)
                assert len(_significant(text)) <= 12
                if v:
                    unit = Fraction(10) ** (int(f"{v:.11e}".split("e")[1]) - 11)
                    assert abs(printed - Fraction(v)) < unit, (s, text, v)


@pytest.mark.parametrize("v", [
    2 / 3, 1 / 3, 0.1, 0.5, 0.0, 1.0, 1e-5, 1e-4, 0.999999999999999, 0.9999999999995,
    1.0000000000000002, -2.220446049250313e-16, 9.99141769321e-10, 1e12, 99999999999.95,
    123456789012345.0, 1e-300, 5e-324,
])
def test_directed_printing_is_the_nearest_12_digit_decimal_on_its_side(v):
    # Powers of ten on either side, exact short decimals, a negative safety
    # value (one minus a lower iterate that rounded above 1) and subnormals.
    for up in (True, False):
        text = sgsolve.cli._fmt_bound(v, up)
        rounding = decimal.ROUND_CEILING if up else decimal.ROUND_FLOOR
        want = decimal.Context(prec=12, rounding=rounding, Emin=-999999).plus(decimal.Decimal(v))
        assert Fraction(text) == Fraction(want), (v, up, text)
        if abs(v) > 1e-300:
            assert text == f"{float(want):.12g}"


def _check_directed(v: float, up: bool, text: str) -> None:
    """``text`` is ``v`` rounded up (``up``) or down to 12 significant
    digits, checked in ``Fraction``s alone: it lies on that side of ``v``,
    has at most 12 significant digits, and the next such decimal towards
    ``v`` lies past ``v``.  It is the ``.12g`` text whenever that one is on
    the same side."""
    exact, printed = Fraction(v), Fraction(text)
    assert printed >= exact if up else printed <= exact
    nearest = f"{v:.12g}"
    if Fraction(nearest) >= exact if up else Fraction(nearest) <= exact:
        assert text == nearest
    if printed == exact:
        return
    size = abs(printed)
    assert size
    # ``x`` with 10**x <= size < 10**(x + 1), from the digit counts.
    x = len(str(size.numerator)) - len(str(size.denominator))
    if Fraction(10) ** x > size:
        x -= 1
    power = Fraction(10) ** x
    unit = power / 10**11
    assert (printed / unit).denominator == 1, text
    # Towards zero from a power of ten the next decimal has one more digit.
    if size == power and (printed > 0) == up:
        unit /= 10
    beyond = printed - unit if up else printed + unit
    assert beyond < exact if up else beyond > exact, text


@settings(derandomize=True, deadline=None, max_examples=2000, database=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(2.0**-1030)
@example(-(2.0**-1030))
@example(-5e-324)
@example(-2.225073858507201e-308)
def test_directed_printing_meets_a_fraction_referee(v):
    for up in (True, False):
        _check_directed(v, up, sgsolve.cli._fmt_bound(v, up))


def test_iterate_prints_ruin_w1_below_its_value_in_every_format(tmp_path, capsys):
    # Rounded to nearest, the lower iterate at w1 prints as 0.666666666667,
    # above the exact value ((2/3) - (2/3)^100) / (1 - (2/3)^100).
    path = tmp_path / "ruin100.game"
    assert main(["gallery", "ruin", "--cap", "100", "--emit", str(path)]) == 0
    ratio = Fraction(2, 3)
    exact = (ratio - ratio**100) / (1 - ratio**100)
    vec = sgsolve.values.value_reach(gallery.build_gamblers_ruin(Fraction(3, 5), 100).game,
                                     {"w0"}, Fraction(1, 10**9))
    nearest = f"{vec.values['w1']:.12g}"
    assert nearest == "0.666666666667" and Fraction(nearest) > exact
    for fmt in ("lines", "table", "json-lines"):
        values, bound = _printed_iterate(str(path), "reach", "1/1000000000", fmt, capsys)
        assert values["w1"] == "0.666666666666"
        assert Fraction(values["w1"]) <= exact
        assert Fraction(bound) >= Fraction(vec.error_bound)
        values, _ = _printed_iterate(str(path), "safety", "1/1000000000", fmt, capsys)
        assert values["w1"] == "0.333333333334"
        assert Fraction(values["w1"]) >= 1 - exact


def test_iterate_prints_a_six_target_game_inside_the_unit_interval(tmp_path, capsys):
    # The float weights 4, 41, 48, 2, 36 and 24 over 155 add up past 1.0 in
    # successor order, so without a clamp the lower reach iterate at r is
    # 1.0000000000000002 and the safety value a negative upper bound.
    weights = [4, 41, 48, 2, 36, 24]
    targets = [f"t{i}" for i in range(len(weights))]
    game = Game.of([("r", "rand", targets, [Fraction(w, 155) for w in weights])]
                   + [(t, "max", (t,)) for t in targets])
    path = tmp_path / "six.game"
    path.write_text(format_game(game, targets))
    for objective, value in (("reach", "1"), ("safety", "0")):
        values, _ = _printed_iterate(str(path), objective, "1/1000000000", "lines", capsys)
        assert values["r"] == value


def test_solve_table_and_json_formats(fig2_file, capsys):
    assert main(["solve", fig2_file, "--target", "t", "--format", "table"]) == 0
    table = capsys.readouterr().out
    assert table.splitlines()[0].split() == ["state", "value"]
    assert main(["solve", fig2_file, "--target", "t", "--format", "json-lines"]) == 0
    lines = capsys.readouterr().out.splitlines()
    row = json.loads(lines[0])
    assert set(row) == {"state", "value"}


def test_validate_reports_line_numbered_violation(tmp_path, capsys):
    path = tmp_path / "bad.game"
    path.write_text(
        "state a rand\nstate t max\nedge a t 1/2\nedge a a 1/3\nedge t t\ntarget t\n"
    )
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "5/6" in err


def test_validate_ok(fig2_file, capsys):
    assert main(["validate", fig2_file]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.game"
    path.write_text("state a max\nbogus line here\n")
    assert main(["validate", str(path)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_decide_threshold_one_on_ladder(ladder_file, capsys):
    code = main([
        "decide", ladder_file, "--target", "goal",
        "--threshold", "1/1", "--from", "q1",
    ])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "winner min"


def test_decide_out_of_scope_exit_code(tmp_path, capsys):
    # None of the paper's countable-game cases applies at a; the finite game
    # still goes to the maximizer, whose a->x attains the value 1/2.
    path = tmp_path / "oos.game"
    path.write_text(
        "state a max\nstate m min\nstate x rand\nstate t max\nstate z max\n"
        "edge a x\nedge a z\nedge m z\nedge m x\n"
        "edge x t 1/2\nedge x z 1/2\nedge t t\nedge z z\ntarget t\n"
    )
    code = main(["decide", str(path), "--target", "t", "--threshold", "1/2", "--from", "a"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["winner max", "reason none-applicable", "strategy max md"]
    assert "choose a x" in out
    game = parse_game(path.read_text()).game
    sigma = sgsolve.strategies.parse_strategy("\n".join(out[2:]))
    residual = sgsolve.strategies.apply_md(game, sigma)
    assert sgsolve.exact.solve_reach_exact(residual, {"t"})["a"] == Fraction(1, 2)


def test_winning_set_machine_lines(ladder_file, capsys):
    assert main(["winning-set", ladder_file, "--objective", "reach", "--target", "goal"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "state goal max index bot" in out
    assert "state c min index 1" in out
    assert out[-1] == "rounds 4"


def test_strategy_export_round_trips(fig2_file, tmp_path, capsys):
    out_file = tmp_path / "sigma.strat"
    code = main([
        "strategy", fig2_file, "--objective", "buchi",
        "--target", "t,sp0,sp1,sp2,sp3,sp4,sp5,sp6,sp7",
        "--player", "min", "--emit", str(out_file),
    ])
    assert code == 0
    from sgsolve import parse_strategy

    parsed = parse_strategy(out_file.read_text())
    assert parsed.choice["sp1"] == "rp1"


def test_transform_rvi_emits_parseable_game(tmp_path, capsys):
    path = tmp_path / "min.game"
    path.write_text(
        "state m min\nstate cheap rand\nstate dear rand\nstate t max\nstate z max\n"
        "edge m cheap\nedge m dear\n"
        "edge cheap t 3/10\nedge cheap z 7/10\n"
        "edge dear t 7/10\nedge dear z 3/10\n"
        "edge t t\nedge z z\ntarget t\n"
    )
    assert main(["transform", str(path), "--rvi", "--target", "t"]) == 0
    out = capsys.readouterr().out
    parsed = parse_game(out)
    assert parsed.game.succ["m"] == ("cheap",)


# The objectives as typed, one per kind, and for each command mode of the
# objective table its test id and its arguments after the game file.
_OBJECTIVES = ("reach", "safety", "buchi", "cobuchi", "reachplus", "reach<=3")
_MODE_ARGV = {
    "exact": ("solve", []),
    "iterate": ("solve-iterate", ["--mode", "iterate"]),
    "winning-set": ("winning-set", []),
    "max": ("strategy", ["--player", "max"]),
    "min": ("strategy-min", ["--player", "min"]),
    "decide": ("decide", ["--threshold", "1/2", "--from", "r3"]),
    "rvi": ("transform", ["--rvi"]),
}


def _served(mode: str, objective: str) -> bool:
    kind = sgsolve.objectives.parse_objective(objective, "t").kind
    return mode in sgsolve.cli._TABLE[kind.value]


@pytest.mark.parametrize(("mode", "objective"), [
    (mode, objective) for mode in _MODE_ARGV for objective in _OBJECTIVES
], ids=[f"{_MODE_ARGV[mode][0]}-{objective}" for mode in _MODE_ARGV for objective in _OBJECTIVES])
def test_commands_refuse_objectives_they_do_not_handle(fig2_file, capsys, mode, objective):
    # Every (command mode, objective) pair: a pair with a cell in the table
    # is served; any other exits 1 with the one refusal, which names the
    # command and the objective as typed, and prints nothing on stdout.  The
    # refusal comes before the tolerance check, so iterate mode gets a --tol
    # only where it is served.
    command = sgsolve.cli._MODES[mode].split()[0]
    argv = [command, fig2_file, "--objective", objective, *_MODE_ARGV[mode][1]]
    if not _served(mode, objective):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {sgsolve.cli._MODES[mode]} does not handle --objective {objective}\n")
        assert captured.out == ""
    else:
        assert main(argv + ["--tol", "1/1000"] * (mode == "iterate")) == 0
        assert capsys.readouterr().out


def test_the_objective_table_refuses_20_of_42_pairs():
    assert sorted(_MODE_ARGV) == sorted(sgsolve.cli._MODES)
    refused = [(m, o) for m in _MODE_ARGV for o in _OBJECTIVES if not _served(m, o)]
    assert len(refused) == 20


def test_readme_matrix_is_the_objective_table():
    # The README's command x objective matrix, row by row: "yes" where the
    # table has a cell, "exits 1" where it has none.
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index(next(line for line in lines if line.startswith("| Objective |")))
    end = lines.index("", start)
    header, _, *rows = [[c.strip().strip("`") for c in line.strip("|").split("|")]
                        for line in lines[start:end]]
    modes = {label: mode for mode, label in sgsolve.cli._MODES.items()}
    assert sorted(header[1:]) == sorted(modes)
    assert len(rows) == len(_OBJECTIVES)
    for objective, *cells in rows:
        typed = objective.replace("<=N", "<=3")
        assert typed in _OBJECTIVES
        for label, cell in zip(header[1:], cells):
            assert cell == ("yes" if _served(modes[label], typed) else "exits 1"), (objective, label)


@pytest.mark.parametrize("objective", ["safety", "buchi", "cobuchi", "reach<=3"])
def test_transform_rvi_rejects_objectives_it_does_not_preserve(tmp_path, capsys, objective):
    # On fig2 the minimizer's value-increasing edges are its safe moves: the
    # reach-wise rvi game has safety value 1 at i, not 3/4.
    path = tmp_path / "fig2.game"
    assert main(["gallery", "fig2", "--depth", "4", "--emit", str(path)]) == 0
    game = parse_game(path.read_text()).game
    reduced = sgsolve.transforms.rvi(game, sgsolve.exact.solve_reach_exact(game, {"t"}))
    assert sgsolve.values.value_safety(game, {"t"}).values["i"] == Fraction(3, 4)
    assert sgsolve.values.value_safety(reduced, {"t"}).values["i"] == 1
    assert main(["transform", str(path), "--rvi", "--objective", objective]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: transform --rvi does not handle --objective {objective}\n"
    assert captured.out == ""


def test_a_file_target_id_may_hold_a_comma(tmp_path, capsys):
    # The file's targets are read as ids, not joined into --target's
    # comma-separated form and split again.
    path = tmp_path / "comma.game"
    path.write_text("state s max\nstate a,b max\nstate z max\n"
                    "edge s a,b\nedge s z\nedge a,b a,b\nedge z z\ntarget a,b\n")
    runs = {
        "solve": (["solve"], "s 1\na,b 1\nz 0\n"),
        "winning-set": (["winning-set"], "state s max index bot\nstate a,b max index bot\n"
                                         "state z min index 0\nrounds 1\n"),
        "strategy": (["strategy", "--player", "max"],
                     "strategy max md\nchoose s a,b\nchoose a,b a,b\nchoose z z\n"),
        "decide": (["decide", "--threshold", "1", "--from", "s"],
                   "winner max\nreason case-2\nstrategy max md\n"
                   "choose s a,b\nchoose a,b a,b\nchoose z z\n"),
    }
    for command, (argv, out) in runs.items():
        assert main([argv[0], str(path), *argv[1:]]) == 0, command
        assert capsys.readouterr().out == out, command
    assert main(["transform", str(path), "--rvi"]) == 0
    assert parse_game(capsys.readouterr().out).targets == {"a,b"}
    # --target stays comma-separated.
    assert main(["solve", str(path), "--target", "a,b"]) == 1
    assert capsys.readouterr().err == "error: target states not in game: ['a', 'b']\n"


@pytest.mark.parametrize("objective", ["reach", "reachplus"])
def test_transform_rvi_keeps_reach_and_reachplus_values(tmp_path, capsys, objective):
    path = tmp_path / "fig2.game"
    assert main(["gallery", "fig2", "--depth", "4", "--emit", str(path)]) == 0
    out = tmp_path / "rvi.game"
    assert main(["transform", str(path), "--rvi", "--objective", objective,
                 "--emit", str(out)]) == 0
    capsys.readouterr()
    values = []
    for game in (path, out):
        assert main(["solve", str(game), "--objective", objective]) == 0
        values.append(capsys.readouterr().out)
    assert values[0] == values[1]


def test_transform_rvi_writes_the_objectives_targets(tmp_path, capsys):
    # For target u the minimizer's a->b raises the value at a, so rvi drops
    # it; with the file's target t kept, the output would give a 1/2 for t
    # where the input gives 0.
    path = tmp_path / "two.game"
    path.write_text(
        "state a min\nstate x rand\nstate b max\nstate t max\nstate u max\nstate z max\n"
        "edge a x\nedge a b\nedge x t 1/2\nedge x u 1/2\nedge b u\nedge b z\n"
        "edge t t\nedge u u\nedge z z\ntarget t\n"
    )
    out = tmp_path / "rvi.game"
    assert main(["transform", str(path), "--rvi", "--target", "u", "--emit", str(out)]) == 0
    reduced = parse_game(out.read_text())
    assert reduced.game.succ["a"] == ("x",)
    assert reduced.targets == {"u"}
    capsys.readouterr()
    values = []
    for argv in (["solve", str(out)], ["solve", str(path), "--target", "u"]):
        assert main(argv) == 0
        values.append(capsys.readouterr().out)
    assert values[0] == values[1]
    assert "a 1/2" in values[0].splitlines()


@pytest.mark.parametrize("gallery_args", [
    f"{kind} --label {label}"
    for kind in ("fig2 --depth 30", "fig2u --depth 8", "ladder --k 3")
    for label in ("target", "buchi")
] + ["ruin --cap 10 --label target"])
def test_strategy_max_re_solves_to_the_values_on_the_gallery(tmp_path, capsys, gallery_args):
    path = tmp_path / "gallery.game"
    assert main(["gallery", *gallery_args.split(), "--emit", str(path)]) == 0
    parsed = parse_game(path.read_text())
    game, targets = parsed.game, parsed.targets
    values = sgsolve.exact.solve_reach_exact(game, targets)
    for objective in ("reach", "reachplus"):
        sigma_file = tmp_path / f"{objective}.strat"
        assert main(["strategy", str(path), "--objective", objective, "--player", "max",
                     "--emit", str(sigma_file)]) == 0
        sigma = sgsolve.strategies.parse_strategy(sigma_file.read_text())
        residual = sgsolve.strategies.apply_md(game, sigma)
        resolved = sgsolve.exact.solve_reach_exact(residual, targets)
        if objective == "reach":
            assert resolved == values
        else:
            plus = sgsolve.exact.reach_plus_values
            assert plus(residual, resolved) == plus(game, values)


def test_simulate_smoke_is_deterministic(fig2_file, capsys):
    args = [
        "simulate", fig2_file, "--target", "t", "--from", "r3",
        "--samples", "500", "--horizon", "80", "--seed", "9",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("mean ")


def test_gallery_round_trip_and_labels(tmp_path):
    path = tmp_path / "fig2b.game"
    assert main([
        "gallery", "fig2", "--depth", "6", "--label", "buchi", "--emit", str(path)
    ]) == 0
    parsed = parse_game(path.read_text())
    assert "sp0" in parsed.targets and "t" in parsed.targets


def test_solve_bounded_reach_objective(ladder_file, capsys):
    assert main([
        "solve", ladder_file, "--objective", "reach<=1", "--target", "goal"
    ]) == 0
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert out["home"] == "1"  # one step suffices from home
    assert out["q1"] == "0"


def test_malformed_step_bound_is_an_input_error(ladder_file, capsys):
    assert main(["solve", ladder_file, "--objective", "reach<=x", "--target", "goal"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: objective 'reach<=x': N in reach<=N must be ASCII digits\n"
    assert captured.out == ""


def test_unknown_flag_is_an_input_error(capsys):
    assert main(["solve", "--no-such-flag"]) == 1


def test_missing_target_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "nt.game"
    path.write_text("state a max\nedge a a\n")
    assert main(["solve", str(path)]) == 1
    assert "target" in capsys.readouterr().err


def test_simulate_unknown_start_state_is_an_input_error(fig2_file, capsys):
    code = main([
        "simulate", fig2_file, "--target", "t", "--from", "nosuch",
        "--samples", "10", "--horizon", "5",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "error: unknown state 'nosuch'\n"
    assert captured.out == ""


def test_simulate_on_a_game_with_no_states_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "empty.game"
    path.write_text("# empty\n")
    assert main(["simulate", str(path), "--target", "x", "--samples", "1", "--horizon", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: the game has no states to start from\n"
    assert captured.out == ""


def test_decide_unknown_start_state_is_an_input_error(ladder_file, capsys):
    code = main([
        "decide", ladder_file, "--target", "goal", "--threshold", "1/2", "--from", "nosuch",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "error: unknown state 'nosuch'\n"
    assert captured.out == ""


def test_winning_set_has_no_almost_sure_flag(ladder_file, capsys):
    assert main(["winning-set", ladder_file, "--almost-sure"]) == 1


def test_json_lines_trailers_are_json(ladder_file, capsys):
    argv = ["--target", "goal", "--format", "json-lines"]
    assert main(["winning-set", ladder_file] + argv) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows[-1] == {"rounds": "4"}
    assert main(["solve", ladder_file, "--mode", "iterate", "--tol", "1/1000"] + argv) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert list(rows[-1]) == ["error-bound"]


def test_format_is_an_option_of_the_commands_that_write_rows(ladder_file, capsys):
    parser = sgsolve.cli._build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    formatted = {name for name, sub in commands.choices.items()
                 if any("--format" in a.option_strings for a in sub._actions)}
    assert formatted == {"solve", "winning-set", "simulate"}
    decide = ["decide", ladder_file, "--target", "goal", "--threshold", "1/2", "--from", "q1"]
    assert main(decide) == 0
    capsys.readouterr()
    assert main(decide + ["--format", "json-lines"]) == 1
    assert capsys.readouterr().out == ""
    assert main(["simulate", ladder_file, "--target", "goal", "--samples", "10",
                 "--horizon", "5", "--format", "json-lines"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["stat"] for row in rows] == ["mean", "half-width-95", "decided-fraction"]


def test_objective_help_tells_the_cost_of_bounded_reach():
    # ``reach<=N`` on a game with a random cycle runs all N exact steps.
    parser = sgsolve.cli._build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    for sub in commands.choices.values():
        for action in sub._actions:
            if "--objective" in action.option_strings:
                assert "random cycle all N steps run" in action.help
                assert "numbers widen with each step" in action.help


def test_solve_prints_rationals_past_the_int_string_limit(tmp_path, capsys):
    path = tmp_path / "slow.game"
    path.write_text("state a rand\nstate t max\nedge a t 1/7919\nedge a a 7918/7919\n"
                    "edge t t\ntarget t\n")
    limit = sys.get_int_max_str_digits()
    assert main(["solve", str(path), "--objective", "reach<=1200"]) == 0
    assert sys.get_int_max_str_digits() == limit
    out = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert len(out["a"]) > limit
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(out["a"]) == 1 - Fraction(7918, 7919) ** 1200
    finally:
        sys.set_int_max_str_digits(limit)


def test_tol_in_exact_mode_is_an_input_error(ladder_file, capsys):
    assert main(["solve", ladder_file, "--target", "goal", "--tol", "1/10"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --tol applies to --mode iterate only\n"
    assert captured.out == ""


@pytest.mark.parametrize("tol", [[], ["--tol", "1/10"]])
def test_bounded_reach_in_iterate_mode_is_an_input_error(ladder_file, capsys, tol):
    # The table's refusal comes before the tolerance check, with or without --tol.
    argv = ["solve", ladder_file, "--target", "goal", "--objective", "reach<=3", "--mode", "iterate"]
    assert main(argv + tol) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: solve --mode iterate does not handle --objective reach<=3\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["--mode", "iterate"], "iterate mode needs a positive tolerance"),
    (["--mode", "iterate", "--tol", "0"], "iterate mode needs a positive tolerance"),
], ids=["no-tol", "zero-tol"])
def test_iterate_mode_needs_a_tolerance_and_a_value_objective(ladder_file, capsys, argv,
                                                              message):
    assert main(["solve", ladder_file, "--target", "goal"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("objective", ["reach", "safety"])
def test_unknown_target_in_iterate_mode_is_an_input_error(tmp_path, capsys, objective):
    path = tmp_path / "r5.game"
    assert main(["gallery", "ruin", "--cap", "5", "--emit", str(path)]) == 0
    argv = ["solve", str(path), "--objective", objective, "--target", "nosuch",
            "--mode", "iterate", "--tol", "1/1000"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: target states not in game: ['nosuch']\n"
    assert captured.out == ""


def test_unknown_target_in_bounded_reach_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "r4.game"
    assert main(["gallery", "ruin", "--cap", "4", "--emit", str(path)]) == 0
    assert main(["solve", str(path), "--objective", "reach<=3", "--target", "nosuch"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: target states not in game: ['nosuch']\n"
    assert captured.out == ""


_COMMANDS = {
    "validate": [],
    "solve": [],
    "winning-set": [],
    "strategy": ["--player", "min"],
    "transform": ["--rvi"],
    "simulate": ["--samples", "10", "--horizon", "5"],
    "decide": ["--threshold", "1/2", "--from", "a"],
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@pytest.mark.parametrize("game, message", [
    ("state a rand\nstate t max\nedge a t 1/3\nedge a a 1/3\nedge t t\ntarget t\n",
     "error: line 1: weight-sum at a: weights sum to 2/3, expected 1\n"),
    ("state a max\nstate m min\nstate t max\nedge a m\nedge a t\nedge t t\ntarget t\n",
     "error: line 2: dead-end at m: state has no successor\n"),
], ids=["weight-sum", "min-dead-end"])
def test_every_command_validates_its_game(tmp_path, capsys, command, game, message):
    path = tmp_path / "bad.game"
    path.write_text(game)
    assert main([command, str(path)] + _COMMANDS[command]) == 1
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


@pytest.mark.parametrize("text, message", [
    ("strategy max md\n", "no choice at goal"),
    ("strategy max transducer\ninitial m0\nmode m0\n", "no successor row for mode m0 at"),
    ("strategy max transducer\ninitial m0\nmode m0\nupdate m0 q1 m9 1/1\n",
     "bad update row for mode m0 at q1"),
], ids=["partial-md", "partial-transducer", "update-to-unknown-mode"])
def test_simulate_rejects_partial_or_ill_formed_strategies(ladder_file, tmp_path, capsys,
                                                           text, message):
    sigma = tmp_path / "sigma.strat"
    sigma.write_text(text)
    code = main(["simulate", ladder_file, "--target", "goal", "--samples", "10",
                 "--horizon", "5", "--sigma", str(sigma)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


# A total maximizer transducer for fig2 depth 4.
_FIG2_SIGMA = "strategy max transducer\ninitial m0\nmode m0\n" + "".join(
    f"choose m0 {s} {t} 1\n"
    for s, t in (("s0", "s1"), ("s1", "s2"), ("s2", "s3"), ("s3", "sink"), ("t", "t"),
                 ("sink", "sink")))


@pytest.mark.parametrize("row, message", [
    ("", None),
    ("update m0 nosuch m0 1\n", "update row for mode m0 at nosuch, which is not a state"),
    ("choose m0 i s0 1\n", "successor row for mode m0 at i, which is not a max state"),
], ids=["total", "update-at-unknown-state", "choose-at-foreign-state"])
def test_simulate_rejects_foreign_transducer_rows(tmp_path, capsys, row, message):
    game = tmp_path / "fig2.game"
    assert main(["gallery", "fig2", "--depth", "4", "--emit", str(game)]) == 0
    sigma = tmp_path / "sigma.strat"
    sigma.write_text(_FIG2_SIGMA + row)
    code = main(["simulate", str(game), "--from", "s0", "--samples", "10", "--horizon", "5",
                 "--sigma", str(sigma)])
    captured = capsys.readouterr()
    if message is None:
        assert code == 0 and captured.err == ""
    else:
        assert code == 1
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


@pytest.mark.parametrize("row, message", [
    ("", None),
    ("choose nosuch w1\n", "choice at nosuch, which is not a min state"),
    ("choose s0 s1\n", "choice at s0, which is not a min state"),
], ids=["total", "choice-at-unknown-state", "choice-at-foreign-state"])
def test_simulate_rejects_stray_md_rows(tmp_path, capsys, row, message):
    game = tmp_path / "fig2.game"
    assert main(["gallery", "fig2", "--depth", "6", "--emit", str(game)]) == 0
    pi = tmp_path / "pi.strat"
    assert main(["strategy", str(game), "--player", "min", "--emit", str(pi)]) == 0
    pi.write_text(pi.read_text() + row)
    code = main(["simulate", str(game), "--from", "sp0", "--samples", "10", "--horizon", "5",
                 "--pi", str(pi)])
    captured = capsys.readouterr()
    if message is None:
        assert code == 0 and captured.err == ""
    else:
        assert code == 1
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


@pytest.mark.parametrize("seed, ok", [
    ("-1", False), (str(2**63), False), (str(2**64), False), (str(2**63 - 1), True),
])
def test_simulate_takes_seeds_below_two_to_the_63(tmp_path, capsys, seed, ok):
    path = tmp_path / "ruin.game"
    assert main(["gallery", "ruin", "--cap", "5", "--emit", str(path)]) == 0
    code = main(["simulate", str(path), "--samples", "20", "--horizon", "30",
                 "--seed", seed])
    captured = capsys.readouterr()
    if ok:
        assert code == 0 and captured.out.startswith("mean ") and captured.err == ""
    else:
        assert code == 1
        assert captured.err == "error: seed must satisfy 0 <= seed < 2**63\n"
        assert captured.out == ""


def test_a_broken_invariant_exits_1(fig2_file, capsys, monkeypatch):
    def broken(game, targets):
        raise InvariantError("no value-preserving successor remains at s0")

    monkeypatch.setattr(sgsolve.transforms, "rvi", broken)
    assert main(["transform", fig2_file, "--rvi"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: no value-preserving successor remains at s0\n"
    assert captured.out == ""


# Six states whose edges decide every verdict reason of the threshold decision:
# values a = x = 1/2, b = t = 1, m = z = 0; the maximizer decreases at a and b
# (to z), the minimizer increases at m (to x).
_DECIDE_GAME = [
    "state a max", "state b max", "state m min", "state x rand", "state t max", "state z max",
    "edge a x", "edge a z", "edge b t", "edge b z", "edge m z", "edge m x",
    "edge x t 1/2", "edge x z 1/2", "edge t t", "edge z z", "target t",
]


# Per verdict reason: the edges left out, the start state, the threshold and
# whether it is strict.
_DECIDE_CASES = {
    "value<c": ((), "a", "2/3", False),
    "value>c-finite-horizon": ((), "a", "1/3", False),
    "case-4": ((), "a", "1/2", True),
    "threshold-vacuous": ((), "m", "0", False),
    "case-1": (("edge a z", "edge b z"), "a", "1/2", False),
    "case-2": (("edge m x",), "a", "1/2", False),
    "case-3": ((), "b", "1", False),
    "none-applicable": ((), "a", "1/2", False),
}


@pytest.mark.parametrize("reason", list(_DECIDE_CASES))
def test_decide_solves_the_game_once(tmp_path, capsys, monkeypatch, reason):
    drop, start, threshold, strict = _DECIDE_CASES[reason]
    calls = []
    solve = sgsolve.strategies.solve_reach_exact
    monkeypatch.setattr(sgsolve.strategies, "solve_reach_exact",
                        lambda *args: calls.append(args) or solve(*args))
    path = tmp_path / "decide.game"
    path.write_text("\n".join(line for line in _DECIDE_GAME if line not in drop) + "\n")
    argv = ["decide", str(path), "--threshold", threshold, "--from", start]
    main(argv + ["--strict"] * strict)
    assert capsys.readouterr().out.splitlines()[1] == f"reason {reason}"
    assert len(calls) == 1


_LADDER2_SIGMA = ("strategy max md\nchoose dead dead\nchoose q1 x1\nchoose q2 x2\n"
                  "choose goal goal\nchoose home goal\n")
_MALFORMED = "malformed rational '{}': expected p or p/q with q >= 1"


@pytest.mark.parametrize("argv, files, message", [
    (["validate", "{game}"], {"game": "state a rand\nstate t max\nedge a t 1/0\nedge t t\n"},
     "line 3: malformed rational weight '1/0'"),
    (["simulate", "{ladder}", "--samples", "10", "--horizon", "5", "--sigma", "{sigma}"],
     {"sigma": "strategy max transducer\ninitial m0\nmode m0\nchoose m0 home goal 1/0\n"},
     "line 4: " + _MALFORMED.format("1/0")),
    (["simulate", "{ladder}", "--samples", "10", "--horizon", "5", "--sigma", "{sigma}"],
     {"sigma": "strategy max transducer\ninitial m0\nmode m0\nupdate m0 home m0 abc\n"},
     "line 4: " + _MALFORMED.format("abc")),
    (["simulate", "{ladder}", "--samples", "10", "--horizon", "5", "--sigma", "{sigma}"],
     {"sigma": _LADDER2_SIGMA + "choose home q2\n"}, "line 7: repeated choose row at home"),
    (["simulate", "{ladder}", "--samples", "10", "--horizon", "5", "--sigma", "{sigma}"],
     {"sigma": "strategy max transducer\ninitial m0\nmode m0\n"
               "choose m0 home goal 1/2\nchoose m0 home goal 1/2\n"},
     "line 5: repeated choose row for mode m0 at home to goal"),
    (["simulate", "{ladder}", "--samples", "10", "--horizon", "5", "--sigma", "{sigma}"],
     {"sigma": "strategy max transducer\ninitial m0\nmode m0\nmode m0\n"},
     "line 4: repeated mode row for m0"),
    (["decide", "{ladder}", "--threshold", "1/0", "--from", "home"], {},
     "--threshold: " + _MALFORMED.format("1/0")),
    (["solve", "{ladder}", "--mode", "iterate", "--tol", "1/0"], {},
     "--tol: " + _MALFORMED.format("1/0")),
    (["solve", "{ladder}", "--mode", "iterate", "--tol", "1e-9"], {},
     "--tol: " + _MALFORMED.format("1e-9")),
    (["gallery", "ruin", "--p", "1/0"], {}, "--p: " + _MALFORMED.format("1/0")),
    (["gallery", "ruin", "--p", "0.5"], {}, "--p: " + _MALFORMED.format("0.5")),
], ids=["game-weight", "transducer-choose", "transducer-update", "repeated-md-choose",
        "repeated-transducer-choose", "repeated-transducer-mode", "threshold", "tol",
        "decimal-tol", "p", "decimal-p"])
def test_malformed_rationals_and_repeated_rows_exit_1(tmp_path, capsys, argv, files, message):
    paths = {"ladder": tmp_path / "ladder.game"}
    assert main(["gallery", "ladder", "--k", "2", "--emit", str(paths["ladder"])]) == 0
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    assert main([arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_an_iteration_that_hits_the_sweep_cap_exits_1(fig2_file, capsys, monkeypatch):
    monkeypatch.setattr(sgsolve.values, "_MAX_SWEEPS", 1)
    argv = ["solve", fig2_file, "--target", "t", "--mode", "iterate", "--tol", "1/100000"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: interval iteration did not converge\n"
    assert captured.out == ""


def test_an_unreachable_tolerance_exits_1_once_the_bounds_stop_moving(tmp_path, capsys,
                                                                      monkeypatch):
    # Below double resolution the gap stays at 2.2e-16 on ruin cap 5 and the
    # vector repeats from sweep 176 on; the sweep cap is 2,000,000.
    path = tmp_path / "ruin.game"
    assert main(["gallery", "ruin", "--cap", "5", "--emit", str(path)]) == 0
    sweeps = []
    sweep = sgsolve.values._FloatCore.sweep
    monkeypatch.setattr(sgsolve.values._FloatCore, "sweep",
                        lambda core, v, out: sweeps.append(1) or sweep(core, v, out))
    argv = ["solve", str(path), "--mode", "iterate", "--tol", "1/100000000000000000000"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: interval iteration cannot reach tolerance 1e-20: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert len(sweeps) <= 200


@pytest.mark.parametrize("objective, partition", [
    ("buchi", almost_sure_buchi), ("safety", almost_sure_safety),
])
def test_winning_set_buchi_and_safety_match_the_library(tmp_path, capsys, objective, partition):
    games = [random_game(seed, n=10) for seed in range(20)]
    games += [(built.game, built.buchi) for built in (gallery.build_fig2(8), gallery.build_ladder(3))]
    for k, (game, target) in enumerate(games):
        path = tmp_path / f"g{k}.game"
        path.write_text(format_game(game, sorted(target)))
        assert main(["winning-set", str(path), "--objective", objective]) == 0
        part = partition(game, target)
        expected = [f"state {s} {'max' if s in part.max_wins else 'min'} index "
                    f"{'bot' if part.index[s] is None else part.index[s]}" for s in game.states]
        assert capsys.readouterr().out.splitlines() == expected + [f"rounds {part.rounds}"]


def test_one_parser_serves_every_call_of_a_process(ladder_file, capsys, monkeypatch):
    # The parser is built once per process; a call that errors, in argparse
    # or in the solver, must leave nothing behind for the calls after it.
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["solve", ladder_file, "--nosuch-flag"],
        ["solve", ladder_file, "--target", "nosuch"],
        ["solve", ladder_file, "--target", "goal"],
        ["winning-set", ladder_file, "--target", "goal"],
        ["decide", ladder_file, "--target", "goal", "--threshold", "1/2", "--from", "q1"],
    ]
    src = str(Path(sgsolve.cli.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    alone = [subprocess.run([sys.executable, "-m", "sgsolve", *argv], capture_output=True,
                            text=True, env=env) for argv in calls]
    assert [p.returncode for p in alone] == [1, 1, 0, 0, 0]
    for argv, proc in zip(calls, alone):
        code = main(argv)
        got = capsys.readouterr()
        assert (code, got.out, got.err) == (proc.returncode, proc.stdout, proc.stderr)
    assert sgsolve.cli._build_parser() is sgsolve.cli._build_parser()


def _buchi_file(tmp_path, argv):
    path = tmp_path / f"{'-'.join(argv)}.game"
    assert main(["gallery", *argv, "--label", "buchi", "--emit", str(path)]) == 0
    return str(path)


_BUCHI_GAMES = [["fig2", "--depth", "8"], ["fig2", "--depth", "30"], ["fig2u", "--depth", "8"],
                ["ladder", "--k", "3"]]


@pytest.mark.parametrize("player", ["max", "min"])
def test_buchi_strategy_prints_its_half_of_the_library_pair(tmp_path, capsys, player):
    for argv in _BUCHI_GAMES:
        path = _buchi_file(tmp_path, argv)
        assert main(["strategy", path, "--objective", "buchi", "--player", player]) == 0
        with open(path, encoding="utf-8") as handle:
            parsed = parse_game(handle.read())
        half = buchi_md_pair(parsed.game, parsed.targets)[player == "min"]
        assert capsys.readouterr().out == format_strategy(half)


def test_buchi_strategy_runs_no_exact_solve(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("exact solve")

    monkeypatch.setattr(sgsolve.exact, "solve_reach_exact", refuse)
    monkeypatch.setattr(sgsolve.strategies, "solve_reach_exact", refuse)
    for argv in _BUCHI_GAMES:
        path = _buchi_file(tmp_path, argv)
        for player in ("max", "min"):
            assert main(["strategy", path, "--objective", "buchi", "--player", player]) == 0


def test_a_huge_step_bound_on_an_acyclic_game_prints_the_reach_values(tmp_path, capsys):
    path = tmp_path / "fig2.game"
    assert main(["gallery", "fig2", "--depth", "6", "--emit", str(path)]) == 0
    outs = []
    for objective in ("reach", f"reach<={2**63 - 1}", "reach<=1000000"):
        assert main(["solve", str(path), "--objective", objective]) == 0
        outs.append(capsys.readouterr())
    assert outs[0].err == "" and outs[0].out
    assert outs[1] == outs[0] and outs[2] == outs[0]
