"""The four workloads: fixed query lists over generated inputs.

Each workload writes its game and strategy files into a work directory and
returns the queries of one pass.  A query is a CLI argument list run through
``sgsolve.cli.main`` (file read, parse, solve and output formatting), or for
the interval bound a library call.  Sizes are fitted so that one pass takes
a few seconds on today's code; the README gives the reasons per workload.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field
from fractions import Fraction

from games import GameSpec, from_game, relabel, skeleton

TOL = Fraction(1, 10**9)
SAMPLES = 20_000
HORIZON = 200


@dataclass
class Query:
    qid: str
    argv: list[str] | None
    check: str
    game: str
    objective: str = "reach"
    targets: tuple[str, ...] = ()
    extra: dict = field(default_factory=dict)
    call: object = None  # library query: a callable returning output text
    rc: int | None = None  # exit code of the first pass, for the checks


@dataclass
class Inputs:
    queries: list[Query]
    specs: dict[str, GameSpec]
    meta: dict[str, dict]


class _Builder:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.specs: dict[str, GameSpec] = {}
        self.files: dict[str, str] = {}
        self.meta: dict[str, dict] = {}
        self.queries: list[Query] = []

    def game(self, key: str, spec: GameSpec, **meta) -> str:
        path = os.path.join(self.workdir, f"{key}.game")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(spec.text())
        self.specs[key] = spec
        self.files[key] = path
        self.meta[key] = meta
        return path

    def add(self, qid, argv, check, game, objective="reach", call=None, **extra) -> Query:
        spec = self.specs[game]
        targets = spec.targets if spec is not None else ()
        q = Query(qid, argv, check, game, objective, targets, extra, call)
        self.queries.append(q)
        return q

    def inputs(self) -> Inputs:
        return Inputs(self.queries, self.specs, self.meta)


def _gallery(b: _Builder, key: str, built, label: str = "target", **meta) -> str:
    members = built.buchi if label == "buchi" else built.targets
    return b.game(key, from_game(built.game, members), **meta)


def _random(b: _Builder, seed: int, k: int, n: int = 60) -> tuple[str, str]:
    """Relabelled skeleton ``k`` of size ``n``; returns its key and the new
    name of skeleton state s0 (a seed-independent start state).

    The workloads use n=60 skeletons 7, 11, 12 and 15, among the first n=60
    skeletons whose exact reach values lie strictly between 0 and 1 on at
    least half of the states (2, 4, 5, 7, 11, 12, 13, 15; the others are
    mostly won outright by the maximizer), picked for solve times that fit
    a pass.  They are listed rather than searched for, since the search
    needs exact solves of the rejected skeletons.
    """
    spec, name = relabel(skeleton(n, k), seed, f"g{n}k{k}x")
    key = f"rand{n}k{k}"
    b.game(key, spec, skeleton=k)
    return key, name["s0"]


def exact_solve(seed: int, workdir: str, gallery) -> Inputs:
    b = _Builder(workdir)
    p = Fraction(3, 5)
    path = _gallery(b, "ruin50", gallery.build_gamblers_ruin(p, 50))
    for obj in ("reach", "safety", "reachplus", "reach<=40"):
        forms = () if obj.startswith("reach<=") else ("ruin",)
        b.add(f"ruin50/{obj}", ["solve", path, "--objective", obj], "solve", "ruin50", obj,
              closed_forms=forms, ruin=(p, 50), oracle=not obj.startswith("reach<="))
    path = _gallery(b, "fig2d30", gallery.build_fig2(30))
    for obj in ("reach", "safety", "reachplus", "reach<=30"):
        forms = ("fig2",) if obj in ("reach", "reachplus") else ()
        b.add(f"fig2d30/{obj}", ["solve", path, "--objective", obj], "solve", "fig2d30", obj,
              closed_forms=forms, acyclic=not obj.startswith("reach<="))
    b.add("fig2d30/strategy-min", ["strategy", path, "--player", "min"], "strategy-min",
          "fig2d30", values_from="fig2d30/reach")
    for start, c in (("i", Fraction(1, 2)), ("r3", Fraction(7, 8))):
        b.add(f"fig2d30/decide-{start}", ["decide", path, "--threshold", str(c), "--from", start],
              "decide", "fig2d30", values_from="fig2d30/reach", start=start, threshold=c)
    for k in (7, 11, 12, 15):
        key, s0 = _random(b, seed, k)
        path = b.files[key]
        b.add(f"{key}/reach", ["solve", path], "solve", key)
        if k == 15:
            b.add(f"{key}/strategy-min", ["strategy", path, "--player", "min"], "strategy-min",
                  key, values_from=f"{key}/reach")
        if k == 7:
            b.add(f"{key}/decide", ["decide", path, "--threshold", "1/2", "--from", s0],
                  "decide", key, values_from=f"{key}/reach", start=s0, threshold=Fraction(1, 2))
    # A game with choices small enough for the enumeration oracle: 5 binary
    # states per player, 1024 MD pairs, 6 values strictly inside (0, 1).
    key, _ = _random(b, seed, 6, n=15)
    for obj in ("reach", "safety"):
        b.add(f"{key}/{obj}", ["solve", b.files[key], "--objective", obj], "solve", key, obj,
              oracle=True)
    return b.inputs()


def _interval(gallery, depth: int):
    """The library query: certified Büchi bounds on the lazy fig2 game."""
    from sgsolve import ObjectiveKind
    from sgsolve.values import interval_values

    def call() -> str:
        iv = interval_values(gallery.fig2_lazy(), ObjectiveKind.BUCHI, depth, label="buchi")
        lo, hi = iv.at_initial()
        return f"lower {lo}\nupper {hi}\n"

    return call


def qualitative(seed: int, workdir: str, gallery) -> Inputs:
    b = _Builder(workdir)
    path = _gallery(b, "ladder64", gallery.build_ladder(64))
    region = {"goal", "home"}
    b.add("ladder64/reach", ["winning-set", path], "partition", "ladder64", rounds=65,
          region=region)
    b.add("ladder64/buchi", ["winning-set", path, "--objective", "buchi"], "partition",
          "ladder64", "buchi", region=region)
    b.add("ladder64/safety", ["winning-set", path, "--objective", "safety"], "partition",
          "ladder64", "safety")
    path = _gallery(b, "fig2d30", gallery.build_fig2(30))
    b.add("fig2d30/reach", ["winning-set", path], "partition", "fig2d30")
    b.add("fig2d30/safety", ["winning-set", path, "--objective", "safety"], "partition",
          "fig2d30", "safety")
    path = _gallery(b, "fig2d30b", gallery.build_fig2(30), label="buchi")
    b.add("fig2d30b/buchi", ["winning-set", path, "--objective", "buchi"], "partition",
          "fig2d30b", "buchi")
    for player in ("max", "min"):
        b.add(f"fig2d30b/strategy-{player}",
              ["strategy", path, "--objective", "buchi", "--player", player], "buchi-strategy",
              "fig2d30b", "buchi", player=player, partition_from="fig2d30b/buchi")
    for k in (7, 12):
        key, _ = _random(b, seed, k)
        path = b.files[key]
        b.add(f"{key}/reach", ["winning-set", path], "partition", key)
        b.add(f"{key}/buchi", ["winning-set", path, "--objective", "buchi"], "partition", key,
              "buchi")
        b.add(f"{key}/safety", ["winning-set", path, "--objective", "safety"], "partition", key,
              "safety")
        if k == 12:
            for player in ("max", "min"):
                b.add(f"{key}/strategy-{player}",
                      ["strategy", path, "--objective", "buchi", "--player", player],
                      "buchi-strategy", key, "buchi", player=player, partition_from=f"{key}/buchi")
    b.specs["fig2lazy"] = None
    for depth in (20, 25):
        b.add(f"fig2lazy/interval-d{depth}", None, "interval", "fig2lazy", "buchi",
              call=_interval(gallery, depth), depth=depth)
    return b.inputs()


def iterate(seed: int, workdir: str, gallery) -> Inputs:
    b = _Builder(workdir)
    mode = ["--mode", "iterate", "--tol", f"{TOL.numerator}/{TOL.denominator}"]
    p = Fraction(3, 5)
    _gallery(b, "ruin100", gallery.build_gamblers_ruin(p, 100), ruin=(p, 100))
    keys = ["ruin100"]
    for d in (40, 60, 80):
        _gallery(b, f"fig2d{d}", gallery.build_fig2(d), acyclic=True)
        keys.append(f"fig2d{d}")
    for k in (11, 12, 15):
        keys.append(_random(b, seed, k)[0])
    for key in keys:
        for obj in ("reach", "safety"):
            b.add(f"{key}/{obj}", ["solve", b.files[key], "--objective", obj] + mode, "iterate",
                  key, obj, tol=TOL)
    return b.inputs()


def simulate(seed: int, workdir: str, gallery) -> Inputs:
    """Strategy files come from the ``strategy`` command, outside the timing."""
    from sgsolve import cli

    b = _Builder(workdir)
    fig2 = gallery.build_fig2(10)
    f10 = _gallery(b, "fig2d10", fig2)
    f10b = _gallery(b, "fig2d10b", fig2, label="buchi")
    ruin = _gallery(b, "ruin30", gallery.build_gamblers_ruin(Fraction(3, 5), 30))
    ladder = _gallery(b, "ladder3", gallery.build_ladder(3))
    fig2u = gallery.build_fig2_with_u(8)
    u8 = _gallery(b, "fig2ud8", fig2u)
    u8b = _gallery(b, "fig2ud8b", fig2u, label="buchi")

    def export(name, argv):
        path = os.path.join(workdir, name)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv + ["--emit", path])
        if rc != 0:
            raise RuntimeError(f"strategy export {argv} exited {rc}")
        return path

    sig10 = export("fig2d10.sigma", ["strategy", f10b, "--objective", "buchi", "--player", "max"])
    pi10 = export("fig2d10.pi", ["strategy", f10b, "--objective", "buchi", "--player", "min"])
    sig3 = export("ladder3.sigma", ["strategy", ladder, "--objective", "buchi", "--player", "max"])
    sigu = export("fig2ud8.sigma", ["strategy", u8b, "--objective", "buchi", "--player", "max"])
    piu = export("fig2ud8.pi", ["strategy", u8, "--player", "min"])

    cases = [
        ("fig2d10/r3", "fig2d10", "reach", "r3", None, None, 1),
        ("fig2d10/i-pair", "fig2d10", "reach", "i", sig10, pi10, 1),
        ("ruin30/w1", "ruin30", "reach", "w1", None, None, 1),
        ("ladder3/home", "ladder3", "reach", "home", sig3, None, 1),
        ("fig2ud8/u", "fig2ud8", "reach", "u", sigu, piu, 1),
        ("fig2d10b/i-buchi-w20", "fig2d10b", "buchi", "i", sig10, pi10, 20),
    ]
    for n, (qid, key, obj, start, sig, pi, window) in enumerate(cases):
        argv = ["simulate", b.files[key], "--objective", obj, "--from", start,
                "--samples", str(SAMPLES), "--horizon", str(HORIZON),
                "--seed", str(seed * 16 + n), "--buchi-window", str(window)]
        if sig:
            argv += ["--sigma", sig]
        if pi:
            argv += ["--pi", pi]
        b.add(qid, argv, "simulate", key, obj, start=start, sigma=sig, pi=pi)
    return b.inputs()


WORKLOADS = {
    "exact-solve": exact_solve,
    "qualitative": qualitative,
    "iterate": iterate,
    "simulate": simulate,
}
