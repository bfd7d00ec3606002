"""Traced runs: spans around the functions of each ``sgsolve`` module.

:func:`install` replaces each function listed in :data:`TRACED` by a wrapper
that records a span (name, parent span, start, end) and, for a few
functions, a count taken from the arguments or the result.  The wrapper is
installed under every module attribute that holds the original function, so
``from .exact import solve_reach_exact`` in ``values``, ``winning``,
``strategies``, ``transforms`` and ``oracle``, and ``from .transforms import
rvi`` in ``winning`` and ``cli``, reach it too.  Spans stay in memory; the
worker turns them into the per-layer metrics and writes them out at the end.

Wrapped are the public functions of each module that the workloads reach,
plus the private ones a metric names (``cli._load``, ``values._deflate``
and so on).  ``exact.bellman_combine`` is left out: it is called once per
state per sweep, so a span around it would cost more than the work it
measures, and its time is counted in its caller's self time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

TRACED = {
    "cli": ("_load", "_emit"),
    "textio": ("parse_game", "format_game"),
    "model": ("validate", "truncate", "swap_roles"),
    "objectives": ("parse_objective",),
    "exact": ("solve_reach_exact", "min_best_response", "chain_reach_values", "gauss_solve",
              "can_reach", "positive_attractor", "reach_plus_values"),
    "values": ("value_reach", "value_safety", "value_reach_within", "value_buchi",
               "value_cobuchi", "epsilon_horizon", "interval_values", "bellman_step",
               "_iterate_reach", "_deflate"),
    "graphs": ("strongly_connected_components", "bottom_components", "maximal_end_components"),
    "winning": ("positive_reach_set", "almost_sure_reach", "almost_sure_safety",
                "almost_sure_buchi", "buchi_peel", "_attractor", "_confined_attractor",
                "_patched_subgame"),
    "transforms": ("rvi", "classify_transitions"),
    "strategies": ("optimal_min_md", "optimal_max_md", "optimal_max_md_no_decrease",
                   "reachplus_min_md", "reachplus_max_md", "buchi_md_pair", "threshold_decide",
                   "_progress_ranks", "_uniform_max_choice", "format_strategy", "parse_strategy",
                   "apply_md"),
    "simulate": ("sample_plays",),
}

MODULES = ("__init__", "cli", "textio", "model", "objectives", "exact", "values", "graphs",
           "winning", "transforms", "strategies", "simulate", "oracle", "gallery")


def _gauss_facts(args, kwargs, result):
    matrix = args[0]
    nonzeros = sum(1 for row in matrix for x in row if x != 0)
    bits = max((x.denominator.bit_length() for x in result), default=0)
    return {"unknowns": len(matrix), "nonzeros": nonzeros, "bits": bits}


def _rounds(args, kwargs, result):
    part = getattr(result, "partition", result)
    return {"rounds": part.rounds}


def _plays(args, kwargs, result):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    return {"plays": cfg.samples}


FACTS = {
    "exact.gauss_solve": _gauss_facts,
    "winning.almost_sure_reach": _rounds,
    "winning.almost_sure_safety": _rounds,
    "winning.buchi_peel": _rounds,
    "simulate.sample_plays": _plays,
}


class Tracer:
    """Records spans; one instance per traced run."""

    def __init__(self):
        # Each span: [name, parent index, start, end, facts or None, seconds
        # spent taking the facts, which no span's self time should count].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        facts = FACTS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if facts is not None:
                rec[4] = facts(args, kwargs, result)
                rec[5] = clock() - rec[3]
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module("sgsolve" if m == "__init__" else f"sgsolve.{m}")
                for m in MODULES}
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(mods[layer], fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def write(self, path: str) -> None:
        """One JSON line per span, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, parent, start, end, facts, _) in enumerate(self.spans):
                row = {"id": i, "name": name, "parent": parent, "start": start, "end": end}
                if facts:
                    row.update(facts)
                handle.write(json.dumps(row) + "\n")

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, each per pass over the query list."""
        n = len(self.spans)
        child = [0.0] * n
        under_winning = [False] * n
        for i, (name, parent, start, end, _, fact_s) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start + fact_s
                under_winning[i] = (under_winning[parent]
                                    or self.spans[parent][0].startswith("winning."))
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        fact_sum: dict[str, float] = defaultdict(float)
        fact_max: dict[str, float] = defaultdict(float)
        winning_exact_calls = 0
        winning_exact_s = 0.0
        for i, (name, parent, start, end, facts, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            incl_s[name] += end - start
            calls[name] += 1
            for k, v in (facts or {}).items():
                fact_sum[k] += v
                fact_max[k] = max(fact_max[k], v)
            if name == "exact.solve_reach_exact" and under_winning[i]:
                winning_exact_calls += 1
                winning_exact_s += end - start

        def layer_self(prefix: str) -> float:
            return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

        plays = fact_sum["plays"]
        sample_s = incl_s["simulate.sample_plays"]
        m = {
            "cli.load_s": self_s["cli._load"],
            "cli.emit_s": self_s["cli._emit"],
            "textio.parse_calls": calls["textio.parse_game"],
            "textio.parse_s": self_s["textio.parse_game"],
            "model.validate_s": self_s["model.validate"],
            "model.truncate_s": self_s["model.truncate"],
            "exact.solve_calls": calls["exact.solve_reach_exact"],
            "exact.solve_s": layer_self("exact"),
            "exact.si_rounds": calls["exact.min_best_response"],
            "exact.chain_solves": calls["exact.chain_reach_values"],
            "exact.gauss_s": self_s["exact.gauss_solve"],
            "exact.gauss_nonzeros": fact_sum["nonzeros"],
            "exact.closure_s": self_s["exact.can_reach"] + self_s["exact.positive_attractor"],
            "values.iterate_s": self_s["values._iterate_reach"],
            "values.deflations": calls["values._deflate"],
            "values.deflate_s": self_s["values._deflate"],
            "values.bellman_s": self_s["values.bellman_step"],
            "graphs.mec_calls": calls["graphs.maximal_end_components"],
            "graphs.mec_s": self_s["graphs.maximal_end_components"],
            "graphs.scc_s": self_s["graphs.strongly_connected_components"],
            "winning.peel_s": sum(self_s[f"winning.{f}"] for f in (
                "positive_reach_set", "almost_sure_reach", "almost_sure_safety",
                "almost_sure_buchi", "buchi_peel", "_patched_subgame")),
            "winning.peel_rounds": fact_sum["rounds"],
            "winning.attractor_s": (self_s["winning._attractor"]
                                    + self_s["winning._confined_attractor"]),
            "winning.exact_calls": winning_exact_calls,
            "winning.exact_s": winning_exact_s,
            "transforms.rvi_calls": calls["transforms.rvi"],
            "transforms.rvi_s": self_s["transforms.rvi"],
            "strategies.synth_s": sum(self_s[f"strategies.{f}"] for f in (
                "optimal_min_md", "optimal_max_md", "optimal_max_md_no_decrease",
                "reachplus_min_md", "reachplus_max_md", "buchi_md_pair", "_uniform_max_choice")),
            "strategies.progress_ranks_s": self_s["strategies._progress_ranks"],
            "strategies.threshold_s": self_s["strategies.threshold_decide"],
            "simulate.plays": plays,
            "simulate.sample_s": self_s["simulate.sample_plays"],
        }
        out = {k: v / passes for k, v in m.items()}
        # Maxima and rates are per call, not sums over passes.
        out["exact.gauss_unknowns_max"] = fact_max["unknowns"]
        out["exact.denominator_bits_max"] = fact_max["bits"]
        out["simulate.plays_per_s"] = plays / sample_s if sample_s > 0 else 0.0
        return out


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"
