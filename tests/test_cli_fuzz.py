"""CLI fuzz: mutated game and strategy files and flag values end in exit
code 0 or 1, never in an exception.  A seeded run draws from a fixed pool;
a derandomized hypothesis run widens the pool and steers the edits."""

import contextlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgsolve.cli import main

RUNS = 800

# Flag values: well-formed ones next to malformed, zero, negative and
# out-of-range ones.  No tolerance here is small enough to reach the sweep cap.
POOL = ("0", "1", "2", "-1", "abc", "1/0", "0/1", "1/2", "2/1", "1e-3", "0.5", "")
COUNTS = ("1", "2", "3", "5")
RATIONALS = ("1/2", "3/5", "1/1000")
OBJECTIVES = ("reach", "safety", "buchi", "cobuchi", "reachplus", "reach<=3", "reach<=x",
              "reach<=-1", "bogus")
KEYWORDS = ("state", "edge", "target", "strategy", "choose", "update", "mode", "initial")

GALLERY = {
    "fig2": ["fig2", "--depth", "4"],
    "fig2b": ["fig2", "--depth", "4", "--label", "buchi"],
    "fig2u": ["fig2u", "--depth", "4"],
    "ladder": ["ladder", "--k", "2"],
    "ruin": ["ruin", "--cap", "5"],
}
# Strategy files: the games each was made for (it is computed on the first;
# the others have the same states) and the ``strategy`` flags.
STRATEGIES = {
    "fig2-max": (("fig2b", "fig2"), ["--objective", "buchi", "--player", "max"]),
    "fig2-min": (("fig2", "fig2b"), ["--player", "min"]),
    "ladder-max": (("ladder",), ["--objective", "buchi", "--player", "max"]),
}
TRANSDUCER = (("fig2", "fig2b"),
              "strategy max transducer\ninitial m0\nmode m0\nmode m1\n"
              "update m0 s0 m1 1/2\nupdate m0 s0 m0 1/2\n"
              "choose m0 s0 s1 1/3\nchoose m0 s0 r0 2/3\nchoose m1 s0 r0 1\n"
              "choose m0 s1 s2 1\nchoose m1 s1 s2 1\nchoose m0 s2 s3 1\nchoose m1 s2 r2 1\n"
              "choose m0 s3 sink 1\nchoose m1 s3 sink 1\nchoose m0 t t 1\nchoose m1 t t 1\n"
              "choose m0 sink sink 1\nchoose m1 sink sink 1\n")
MADE_FOR = {name: games for name, (games, _) in STRATEGIES.items()}
MADE_FOR["fig2-transducer"] = TRANSDUCER[0]
# Games a simulation can run on with the strategies made for them.
PAIRED = ("fig2", "fig2b", "ladder", "ruin")


def _base_files(tmp_path) -> dict[str, str]:
    texts = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for name, argv in GALLERY.items():
            path = tmp_path / f"{name}.game"
            assert main(["gallery"] + argv + ["--emit", str(path)]) == 0
            texts[name] = path.read_text()
        for name, ((game, *_), argv) in STRATEGIES.items():
            path = tmp_path / f"{name}.strat"
            assert main(["strategy", str(tmp_path / f"{game}.game")] + argv
                        + ["--emit", str(path)]) == 0
            texts[name] = path.read_text()
    texts["fig2-transducer"] = TRANSDUCER[1]
    return texts


def _mutate(rng: random.Random, text: str, pool=POOL, edits=(0, 1, 1, 2)) -> str:
    """A number of edits drawn from ``edits``, each a token replaced, or a
    line dropped, repeated, swapped or made up."""
    lines = text.splitlines()
    words = text.split()
    for _ in range(rng.choice(edits)):
        at = rng.randrange(len(lines))
        how = rng.randrange(5)
        if how == 0:
            toks = lines[at].split() or [""]
            toks[rng.randrange(len(toks))] = rng.choice(rng.choice((words, pool)))
            lines[at] = " ".join(toks)
        elif how == 1 and len(lines) > 1:
            del lines[at]
        elif how == 2:
            lines.insert(at, lines[at])
        elif how == 3:
            other = rng.randrange(len(lines))
            lines[at], lines[other] = lines[other], lines[at]
        else:
            made = [rng.choice(words + list(pool)) for _ in range(rng.randint(1, 4))]
            lines.insert(at, " ".join([rng.choice(KEYWORDS)] + made))
    return "\n".join(lines) + "\n"


def _argv(rng: random.Random, tmp_path, texts: dict[str, str], pool=POOL) -> list[str]:
    command = rng.choice(("validate", "solve", "winning-set", "strategy", "transform",
                          "simulate", "decide", "gallery"))
    # A simulation mostly gets a game together with the strategies made for
    # it, and fewer edits and odd flag values, so that most such runs reach
    # the sampler.
    paired = command == "simulate" and rng.random() < 0.8
    edits, odd = ((0, 0, 0, 1), 0.1) if paired else ((0, 1, 1, 2), 0.3)

    def write(name: str) -> str:
        path = tmp_path / f"fuzz-{name}"
        path.write_text(_mutate(rng, texts[name], pool, edits))
        return path, str(path)

    def pick(valid) -> str:
        """Mostly a well-formed value, sometimes one from the pool."""
        return rng.choice(pool if rng.random() < odd else valid)

    def maybe(flag: str, valid) -> list[str]:
        return [flag, pick(valid)] if rng.random() < 0.5 else []

    name = rng.choice(PAIRED if paired else list(GALLERY))
    path, game = write(name)
    states = [line.split()[1] for line in path.read_text().splitlines()
              if line.startswith("state ") and len(line.split()) > 1] or ["x"]
    common = maybe("--objective", OBJECTIVES) + maybe("--target", states)
    emit = ["--emit", str(tmp_path / "out")]
    if command == "validate":
        return ["validate", game]
    if command == "solve":
        iterate = rng.random() < 0.5
        return (["solve", game] + common + ["--mode", "iterate"] * iterate
                + (["--tol", pick(RATIONALS)] if iterate or rng.random() < 0.1 else []))
    if command == "winning-set":
        return ["winning-set", game] + common
    if command == "strategy":
        return ["strategy", game, "--player", rng.choice(("max", "min"))] + common + emit
    if command == "transform":
        return ["transform", game, "--rvi"] + common + emit
    if command == "simulate":
        argv = (["simulate", game, "--samples", pick(COUNTS), "--horizon", pick(COUNTS)]
                + common + maybe("--seed", COUNTS) + maybe("--buchi-window", COUNTS)
                + maybe("--from", states))
        for flag, player, share in (("--sigma", "max", 0.7), ("--pi", "min", 0.3)):
            if paired:
                made = [s for s in MADE_FOR if name in MADE_FOR[s]
                        and texts[s].split()[1] == player]
                if made:
                    argv += [flag, write(rng.choice(made))[1]]
            elif rng.random() < share:
                argv += [flag, write(rng.choice(list(MADE_FOR)))[1]]
        return argv
    if command == "decide":
        return (["decide", game, "--threshold", pick(RATIONALS), "--from", pick(states)]
                + common + ["--strict"] * rng.randint(0, 1))
    return (["gallery", rng.choice(("fig2", "fig2u", "ladder", "ruin"))]
            + maybe("--depth", COUNTS) + maybe("--k", COUNTS) + maybe("--p", RATIONALS)
            + maybe("--cap", COUNTS) + emit)


def _exit_code(run, argv, tmp_path) -> int:
    try:
        return main(argv)
    except BaseException as exc:  # noqa: BLE001 - the failure names the input
        inputs = {p.name: p.read_text() for p in tmp_path.glob("fuzz-*")}
        raise AssertionError(f"run {run}: {argv} raised {exc!r}; files {inputs}") from exc


def test_cli_fuzz_exits_0_or_1(tmp_path, capsys):
    texts = _base_files(tmp_path)
    rng = random.Random(20261018)
    simulated = []
    for run in range(RUNS):
        argv = _argv(rng, tmp_path, texts)
        code = _exit_code(run, argv, tmp_path)
        assert code in (0, 1), (run, argv, code)
        capsys.readouterr()
        if argv[0] == "simulate":
            simulated.append(code == 0)
    # The fuzz reaches the sampler, not only the input checks before it.
    assert sum(simulated) >= len(simulated) / 4, (sum(simulated), len(simulated))


# Tokens outside the fixed pool: any text without digits (so no count gets
# large enough to make a run slow), small integers and fractions with signs,
# and the spellings ``int()`` takes beyond ASCII digits.
_TOKENS = st.one_of(
    st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=6),
    st.integers(-3, 30).map(str),
    st.tuples(st.integers(-3, 30), st.integers(-3, 30)).map("{0[0]}/{0[1]}".format),
    st.sampled_from(("+3", "3_0", " 2", "\u0663", "reach<=+3", "reach<=3_0", "reach<=\u0663")),
)


@pytest.fixture(scope="module")
def base_files(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    return tmp_path, _base_files(tmp_path)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.randoms(use_true_random=False), st.lists(_TOKENS, min_size=1, max_size=6))
def test_hypothesis_cli_fuzz_exits_0_or_1(base_files, rng, extra):
    tmp_path, texts = base_files
    argv = _argv(rng, tmp_path, texts, POOL + tuple(extra))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = _exit_code("hypothesis", argv, tmp_path)
    assert code in (0, 1), (argv, code)
