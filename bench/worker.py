"""One workload in its own process: inputs, timed passes, checks.

Started by ``run.py``; prints one JSON object on its last stdout line.  The
load is a closed loop with a single client: the queries of a pass run one
after another in this process, and passes repeat until the run length has
passed, at least one pass always completing.  Inputs are made before the
clock starts; outputs are checked after it stops.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction

from calibrate import REF_S, reference

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def _import_program():
    sys.path.insert(0, SRC)
    import sgsolve

    where = os.path.dirname(os.path.abspath(sgsolve.__file__))
    if where != os.path.join(SRC, "sgsolve"):
        raise ImportError(f"sgsolve was imported from {where}, not from {SRC}")
    return sgsolve


class Runner:
    """Runs the query list and keeps the first pass's outputs."""

    def __init__(self, queries, cli):
        self.queries = queries
        self.cli = cli
        self.first: list[tuple[int, str, str]] | None = None
        self.mismatches: list[str] = []

    def one(self, q) -> tuple[int, str, str, float]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if q.call is not None:
                out.write(q.call())
                rc = 0
            else:
                rc = self.cli.main(q.argv)
        return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start

    def passes(self, seconds: float) -> list[list[tuple[float, float]]]:
        """Whole passes until ``seconds`` have passed; returns for each pass
        and query its latency and the mean reference time just before and
        just after it (``calibrate``)."""
        passes = []
        deadline = time.perf_counter() + seconds
        ref = reference()
        while True:
            results, samples = [], []
            for q in self.queries:
                rc, out, err, dt = self.one(q)
                after = reference()
                results.append((rc, out, err))
                samples.append((dt, (ref + after) / 2))
                ref = after
            passes.append(samples)
            if self.first is None:
                self.first = results
            else:
                self.mismatches += [q.qid for q, a, b in zip(self.queries, self.first, results)
                                    if a[:2] != b[:2]]
            if time.perf_counter() >= deadline:
                return passes


def scaled(passes: list[list[tuple[float, float]]]) -> list[float]:
    """Each query's latency scaled to the reference speed
    (``calibrate.REF_S``), the median over the passes.

    The machine's speed drifts by tens of percent within seconds and between
    minutes, and a plain latency measures the drift with the program. The
    reference load around each query slows down with it, so the ratio of
    the two keeps only the program's cost.
    """
    return [REF_S * statistics.median(dt / ref for dt, ref in column)
            for column in zip(*passes)]


class Context:
    """What the checks may ask for: other outputs and reference values."""

    def __init__(self, inputs, first, sgsolve):
        self.inputs = inputs
        self.specs = inputs.specs
        self._out = {q.qid: out for q, (_, out, _) in zip(inputs.queries, first)}
        self.sg = sgsolve
        self._cache: dict = {}

    def output(self, qid: str) -> str:
        return self._out[qid]

    def game(self, key: str):
        if ("game", key) not in self._cache:
            spec = self.specs[key]
            self._cache[("game", key)] = self.sg.Game.of(
                (s, o, spec.succ[s], spec.prob.get(s)) for s, o in spec.owner.items())
        return self._cache[("game", key)]

    def _exact(self, key: str, objective: str):
        """Exact-mode values from the library, for references only; they
        must pass the same fixpoint and progress checks as printed ones."""
        from checks import (progress_problems, reach_fixpoint_problems,
                            safety_fixpoint_problems)

        if (key, objective) not in self._cache:
            spec = self.specs[key]
            if objective == "reach":
                v = self.sg.value_reach(self.game(key), spec.targets).values
                probs = (reach_fixpoint_problems(spec, spec.targets, v)
                         or progress_problems(spec, spec.targets, v))
            else:
                v = self.sg.value_safety(self.game(key), spec.targets).values
                probs = (safety_fixpoint_problems(spec, spec.targets, v)
                         or progress_problems(spec, spec.targets,
                                              {s: 1 - x for s, x in v.items()}, "min"))
            if probs:
                raise ValueError(f"exact-mode reference for {key} {objective}: {probs[0]}")
            self._cache[(key, objective)] = v
        return self._cache[(key, objective)]

    def exact_values(self, q):
        """Reference values for iterate mode: the ruin closed form, backward
        induction on acyclic games, exact mode otherwise."""
        from checks import acyclic_values, ruin_probability

        meta = self.inputs.meta[q.game]
        if meta.get("acyclic"):
            return acyclic_values(self.specs[q.game], q.targets, q.objective)
        if "ruin" not in meta:
            return self._exact(q.game, q.objective)
        p, cap = meta["ruin"]
        reach = {f"w{w}": ruin_probability(p, cap, w) for w in range(cap + 1)}
        return reach if q.objective == "reach" else {s: 1 - v for s, v in reach.items()}

    def value_one_region(self, q) -> set[str]:
        return {s for s, v in self._exact(q.game, "reach").items() if v == 1}

    def oracle(self, q):
        """Values by enumeration of all MD pairs; the library refuses games
        beyond ``oracle.PAIR_BOUND``, and the check then fails loudly."""
        game = self.game(q.game)
        kind = {"reach": self.sg.ObjectiveKind.REACH, "safety": self.sg.ObjectiveKind.SAFETY,
                "reachplus": self.sg.ObjectiveKind.REACH_PLUS}[q.objective]
        obj = self.sg.Objective(kind, frozenset(q.targets))
        return self.sg.md_enumeration_oracle(game, obj).values

    def mdp_buchi(self, key, owner, choice, targets):
        fixed = self.sg.apply_md(self.game(key), self.sg.MDStrategy(self.sg.Owner(owner), choice))
        return self.sg.mdp_buchi_exact(fixed, set(targets)).values

    def buchi_certificate(self, q, max_wins: set[str]) -> list[str]:
        """Certify a Büchi partition with an MD pair: under the maximizer's
        strategy the one-player re-solve gives 1 on its region, under the
        minimizer's it stays below 1 on the rest."""
        game = self.game(q.game)
        sigma, pi = self.sg.buchi_md_pair(game, set(q.targets))
        under_sigma = self.sg.mdp_buchi_exact(self.sg.apply_md(game, sigma), set(q.targets))
        under_pi = self.sg.mdp_buchi_exact(self.sg.apply_md(game, pi), set(q.targets))
        return ([f"{s} is not won almost surely under sigma" for s in max_wins
                 if under_sigma[s] != 1]
                + [f"{s} is won almost surely against pi" for s in game.states
                   if s not in max_wins and under_pi[s] == 1])

    def simulate_reference(self, q) -> Fraction:
        from checks import bottom_sccs, chain, chain_reach, parse_md

        spec = self.specs[q.game]
        choice = {}
        for name in ("sigma", "pi"):
            if q.extra[name]:
                with open(q.extra[name], encoding="utf-8") as handle:
                    choice.update(parse_md(handle.read())[1])
        rows = chain(spec, choice)
        goal = set(q.targets)
        if q.objective == "buchi":
            goal = set().union(*(b for b in bottom_sccs(rows, q.extra["start"]) if b & goal))
        return chain_reach(rows, q.extra["start"], goal)


def _corrupt(q, out, ctx) -> str:
    """One deliberately wrong output of the same kind as ``out``."""
    from checks import parse_values

    lines = out.splitlines()
    if q.check == "iterate":
        # Far past the bracket, on the side the value is approached from.
        state, value = lines[0].split()
        shift = Fraction(1, 1000) if q.objective == "reach" else -Fraction(1, 1000)
        lines[0] = f"{state} {float(Fraction(value) + shift)!r}"
    elif q.check == "solve":
        state, value = lines[0].split()
        v = Fraction(value)
        lines[0] = f"{state} {v - Fraction(1, 3) if v >= Fraction(1, 3) else v + Fraction(1, 3)}"
    elif q.check == "strategy-min":
        v, _ = parse_values(ctx.output(q.extra["values_from"]))
        spec = ctx.specs[q.game]
        for i, line in enumerate(lines[1:], start=1):
            _, s, t = line.split()
            worse = [u for u in spec.succ[s] if v[u] > v[t]]
            if worse:
                lines[i] = f"choose {s} {worse[0]}"
                break
        else:
            lines[1] = lines[1] + "_not_a_state"
    elif q.check == "decide":
        swap = {"max": "min", "min": "max", "out-of-scope": "min"}
        lines[0] = "winner " + swap[lines[0].split()[1]]
    elif q.check == "partition":
        kw, s, side, kw2, _ = lines[0].split()
        lines[0] = f"state {s} min index 1" if side == "max" else f"state {s} max index bot"
    elif q.check == "buchi-strategy":
        lines[1] = lines[1] + "_not_a_state"
    elif q.check == "interval":
        lines[0] = f"lower {Fraction(lines[0].split()[1]) - Fraction(1, 1024)}"
    elif q.check == "simulate":
        mean = float(lines[0].split()[1])
        lines[0] = f"mean {mean - 0.1 if mean > 0.5 else mean + 0.1}"
    return "\n".join(lines) + "\n"


def _check(q, rc, out, ctx) -> list[tuple[str, str]]:
    from checks import CHECKS, WRONG

    if rc not in ((0, 2) if q.check == "decide" else (0,)):
        return [("failed", f"exit code {rc}")]
    try:
        return CHECKS[q.check](q, out, ctx)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return [(WRONG, f"checker could not read the output: {exc!r}")]


def check_all(inputs, runner, sgsolve) -> tuple[list[str], list[str], list[str]]:
    """Returns (failed query ids, wrong-output messages, self-test misses)."""
    from checks import UNSOUND, WRONG

    ctx = Context(inputs, runner.first, sgsolve)
    failed, wrong, misses = [], [], []
    passed = {}
    for q, (rc, out, err) in zip(inputs.queries, runner.first):
        q.rc = rc
        problems = _check(q, rc, out, ctx)
        kinds = {k for k, _ in problems}
        if WRONG in kinds:
            wrong += [f"{q.qid}: {m}" for k, m in problems if k == WRONG]
        elif kinds & {UNSOUND, "failed"}:
            failed.append(q.qid)
            first = problems[0][1] + (f" ({err.strip()})" if err.strip() else "")
            print(f"failed {q.qid}: {first}", file=sys.stderr)
        else:
            passed.setdefault(q.check, (q, out))
    wrong += [f"{qid}: output differs between passes" for qid in runner.mismatches]
    # Self-test: every checker must call a corrupted copy of an output it
    # passed wrong.
    for kind, (q, out) in passed.items():
        if WRONG not in {k for k, _ in _check(q, q.rc, _corrupt(q, out, ctx), ctx)}:
            misses.append(f"{kind} checker accepted a corrupted {q.qid} output")
    print(f"# self-test corrupted one output for each of: {', '.join(sorted(passed))}",
          file=sys.stderr)
    return failed, wrong, misses


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sgsolve = _import_program()
    from sgsolve import cli, gallery

    from spans import Tracer
    from workloads import WORKLOADS

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        inputs = WORKLOADS[args.workload](args.seed, workdir, gallery)
        runner = Runner(inputs.queries, cli)
        if args.trace:
            plain = runner.passes(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = runner.passes(args.seconds / 2)
            finally:
                tracer.uninstall()
            all_passes = plain + traced
            metrics = tracer.metrics(len(traced))
            metrics["trace.overhead_s"] = sum(scaled(traced)) - sum(scaled(plain))
            tracer.write(os.path.join(ROOT, ".bench_work", f"trace-{args.workload}.jsonl"))
        else:
            all_passes = runner.passes(args.seconds)
            cost = scaled(all_passes)
            metrics = {
                "pass_s": sum(cost),
                "query_p50_s": statistics.median(cost),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        n_passes = len(all_passes)
        failed, wrong, misses = check_all(inputs, runner, sgsolve)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in wrong + misses:
        print(f"check: {line}", file=sys.stderr)
    print("# pass seconds: " + json.dumps([round(sum(dt for dt, _ in p), 4) for p in all_passes]),
          file=sys.stderr)
    print("# scaled query seconds: " + json.dumps(
        {q.qid: round(t, 4) for q, t in zip(inputs.queries, scaled(all_passes))}), file=sys.stderr)
    print(json.dumps({
        "correct": not wrong and not misses,
        "attempted": n_passes * len(inputs.queries),
        "failed": n_passes * len(failed),
        "passes": n_passes,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
