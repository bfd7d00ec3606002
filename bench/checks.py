"""Output checks, computed apart from the solver.

Every check reads the text a query printed and compares it with a closed
form, with the benchmark's own exact arithmetic over ``Fraction`` (Bellman
fixpoints, progress strategies, attractors, bounded-reach recursions,
fixed-pair Markov chains), or with a property the method must have.  A few
checks call the program's library, outside the timed region, for
references that other checks vouch for or that referee a different code
path: exact-mode values (certified by the same fixpoint and progress
checks) as the reference for iterate mode and for the almost-sure reach
region, the enumeration oracle, and the one-player Büchi re-solve of an MD
pair.

A check returns a list of problems, each ``(kind, message)``; an output it
cannot parse raises, and the caller reports that as a wrong output.  ``kind`` is
``"wrong"`` for an output that contradicts the reference, and
``"unsound"`` for the one known fault counted as a failed operation: an
iterate-mode bound that misses the exact value by no more than rounding.
"""

from __future__ import annotations

from fractions import Fraction

from games import GameSpec

ONE = Fraction(1)
ZERO = Fraction(0)
WRONG = "wrong"
UNSOUND = "unsound"
# Largest bracket miss put down to the rounding fault: a few ulps of
# round-to-nearest arithmetic plus the CLI's 12-significant-digit printing
# (at most 5e-13 on values within [0, 1]).
ROUNDING_MISS = Fraction(1, 10**11)


# --- parsing -------------------------------------------------------------

def parse_values(out: str) -> tuple[dict[str, Fraction], Fraction | None]:
    """``solve`` output: one ``state value`` line per state, then an optional
    ``# error-bound x`` line.  Floats are converted exactly."""
    values: dict[str, Fraction] = {}
    bound = None
    for line in out.splitlines():
        parts = line.split()
        if line.startswith("# error-bound"):
            bound = Fraction(parts[-1])
        elif len(parts) == 2:
            values[parts[0]] = Fraction(parts[1])
        else:
            raise ValueError(f"unexpected solve line {line!r}")
    return values, bound


def parse_partition(out: str) -> tuple[dict[str, tuple[str, str]], int]:
    rows: dict[str, tuple[str, str]] = {}
    rounds = None
    for line in out.splitlines():
        parts = line.split()
        if parts[0] == "rounds":
            rounds = int(parts[1])
        elif len(parts) == 5 and parts[0] == "state" and parts[3] == "index":
            if parts[1] in rows:
                raise ValueError(f"state {parts[1]} listed twice")
            rows[parts[1]] = (parts[2], parts[4])
        else:
            raise ValueError(f"unexpected winning-set line {line!r}")
    if rounds is None:
        raise ValueError("no rounds line")
    return rows, rounds


def parse_md(out: str) -> tuple[str, dict[str, str]]:
    lines = out.splitlines()
    head = lines[0].split()
    if head[:1] != ["strategy"] or head[2:] != ["md"]:
        raise ValueError(f"not an MD strategy header: {lines[0]!r}")
    choice = {}
    for line in lines[1:]:
        kw, s, t = line.split()
        if kw != "choose":
            raise ValueError(f"unexpected strategy line {line!r}")
        choice[s] = t
    return head[1], choice


def parse_stats(out: str) -> dict[str, float]:
    return {k: float(v) for k, v in (line.split() for line in out.splitlines())}


# --- independent exact computations --------------------------------------

def combine(spec: GameSpec, values, s: str) -> Fraction:
    """One Bellman step at ``s``: max, min or the weighted average."""
    succ = spec.succ[s]
    o = spec.owner[s]
    if o == "max":
        return max(values[t] for t in succ)
    if o == "min":
        return min(values[t] for t in succ)
    return sum((w * values[t] for t, w in zip(succ, spec.prob[s])), ZERO)


def attractor(spec: GameSpec, base, exists: tuple[str, ...]) -> set[str]:
    """Backward closure from ``base``: owners in ``exists`` need one
    successor inside, the others need all of them."""
    inside = set(base)
    changed = True
    while changed:
        changed = False
        for s, o in spec.owner.items():
            if s in inside:
                continue
            hits = [t in inside for t in spec.succ[s]]
            if any(hits) if o in exists else all(hits):
                inside.add(s)
                changed = True
    return inside


def reach_fixpoint_problems(spec: GameSpec, targets, v) -> list[str]:
    """``v`` must be a Bellman fixpoint of reach ``targets`` that is 0
    outside the positive-reach set and within [0, 1]."""
    targets = set(targets)
    out = []
    if set(v) != set(spec.owner):
        return ["value vector does not cover exactly the game's states"]
    positive = attractor(spec, targets, ("max", "rand"))
    for s in spec.owner:
        if not ZERO <= v[s] <= ONE:
            out.append(f"{s}: {v[s]} outside [0, 1]")
        elif s in targets:
            if v[s] != ONE:
                out.append(f"target {s} has value {v[s]}")
        elif s not in positive and v[s] != ZERO:
            out.append(f"{s} cannot reach the target but has value {v[s]}")
        elif combine(spec, v, s) != v[s]:
            out.append(f"{s}: value {v[s]} is not its Bellman step {combine(spec, v, s)}")
    return out


def safety_fixpoint_problems(spec: GameSpec, targets, v) -> list[str]:
    """Safety values: 0 on the targets, a Bellman fixpoint elsewhere, and 1
    outside the opponent's positive attractor."""
    targets = set(targets)
    if set(v) != set(spec.owner):
        return ["value vector does not cover exactly the game's states"]
    danger = attractor(spec, targets, ("min", "rand"))
    out = []
    for s in spec.owner:
        if not ZERO <= v[s] <= ONE:
            out.append(f"{s}: {v[s]} outside [0, 1]")
        elif s in targets:
            if v[s] != ZERO:
                out.append(f"target {s} has safety value {v[s]}")
        elif s not in danger and v[s] != ONE:
            out.append(f"{s} is surely safe but has value {v[s]}")
        elif combine(spec, v, s) != v[s]:
            out.append(f"{s}: value {v[s]} is not its Bellman step {combine(spec, v, s)}")
    return out


def progress_problems(spec: GameSpec, targets, v, reacher: str = "max") -> list[str]:
    """``v`` must not exceed the value of reaching ``targets`` for ``reacher``.

    A Bellman fixpoint bounds the value from above (the value is the least
    fixpoint); this bounds it from below, so the two together pin it down.
    The reacher's strategy is built layer by layer from the targets: a
    reacher state joins through a successor of equal value already inside,
    a random state through any successor inside, an opponent state once all
    its successors are inside.  If every state of positive value joins,
    then against any opponent ``v`` does not drop in expectation along the
    play, and the play leaves the positive states almost surely, so the
    targets are reached with probability at least ``v``.  A fixpoint that
    is too high (a reacher cycle with no way out) cannot join.
    """
    inside = set(targets)
    changed = True
    while changed:
        changed = False
        for s, o in spec.owner.items():
            if s in inside or v[s] == ZERO:
                continue
            succ = spec.succ[s]
            if o == reacher:
                joins = any(t in inside and v[t] == v[s] for t in succ)
            elif o == "rand":
                joins = any(t in inside for t in succ)
            else:
                joins = all(t in inside for t in succ)
            if joins:
                inside.add(s)
                changed = True
    return [f"{s}: no {reacher} strategy attains the value {v[s]}" for s in spec.owner
            if v[s] != ZERO and s not in inside]


def bounded_reach(spec: GameSpec, targets, steps: int) -> dict[str, Fraction]:
    targets = set(targets)
    v = {s: ONE if s in targets else ZERO for s in spec.owner}
    for _ in range(steps):
        v = {s: ONE if s in targets else combine(spec, v, s) for s in spec.owner}
    return v


def ruin_probability(p: Fraction, cap: int, wealth: int) -> Fraction:
    """Gambler's ruin: probability of hitting 0 before ``cap``."""
    r = (1 - p) / p
    if r == 1:
        return Fraction(cap - wealth, cap)
    return (r**wealth - r**cap) / (1 - r**cap)


def fig2_exit_problems(spec: GameSpec, v) -> list[str]:
    """Exit chains of the fig2 ladder: r_i is worth 1 - 2^-i and rp_i is
    worth 2^-i wherever the truncation kept their successors."""
    out = []
    for s, succ in spec.succ.items():
        if s.startswith("rp") and s[2:].isdigit():
            i = int(s[2:])
            want = ZERO if i == 0 else Fraction(1, 2**i)
            if (i == 0 or succ == ("t", "rp0")) and v[s] != want:
                out.append(f"{s} = {v[s]}, closed form {want}")
        elif s.startswith("r") and s[1:].isdigit():
            i = int(s[1:])
            if (i == 0 or succ == ("t", f"r{i - 1}")) and v[s] != 1 - Fraction(1, 2**i):
                out.append(f"{s} = {v[s]}, closed form {1 - Fraction(1, 2**i)}")
    return out


def acyclic_values(spec: GameSpec, targets, objective: str) -> dict[str, Fraction]:
    """Exact reach or safety values by backward induction, for games whose
    only cycles are the self-loops of absorbing states (fig2 truncations)."""
    targets = set(targets)
    hit, miss = (ONE, ZERO) if objective == "reach" else (ZERO, ONE)
    v: dict[str, Fraction] = {}
    for root in spec.owner:
        stack = [(root, False)]
        while stack:
            s, expanded = stack.pop()
            if s in v:
                continue
            if s in targets:
                v[s] = hit
            elif spec.succ[s] == (s,):
                v[s] = miss
            elif expanded:
                v[s] = combine(spec, v, s)
            else:
                if any(t == s for t in spec.succ[s]):
                    raise ValueError(f"{s} is on a cycle")
                stack.append((s, True))
                stack.extend((t, False) for t in spec.succ[s] if t not in v)
                if len(stack) > 4 * len(spec.owner) + 8:
                    raise ValueError("the game has a cycle")
    return v


def _solve_linear(rows: dict[str, dict[str, Fraction]],
                  rhs: dict[str, Fraction]) -> dict[str, Fraction]:
    """Solve ``x[s] - sum(rows[s][t] * x[t]) = rhs[s]`` by elimination over
    sparse rows (``rows`` keys are the unknowns)."""
    eq = {}
    for s in rows:
        coef = {t: -w for t, w in rows[s].items()}
        coef[s] = coef.get(s, ZERO) + ONE
        eq[s] = (coef, rhs[s])
    # Pivots stay positive without pivoting: every unknown reaches the goal,
    # so the matrix I - P is a nonsingular M-matrix.
    order = list(rows)
    for i, s in enumerate(order):
        coef, b = eq[s]
        piv = coef.pop(s)
        coef = {t: w / piv for t, w in coef.items()}
        b = b / piv
        eq[s] = (coef, b)
        for u in order[i + 1:]:
            cu, bu = eq[u]
            f = cu.pop(s, None)
            if f:
                for t, w in coef.items():
                    cu[t] = cu.get(t, ZERO) - f * w
                eq[u] = (cu, bu - f * b)
    x: dict[str, Fraction] = {}
    for s in reversed(order):
        coef, b = eq[s]
        x[s] = b - sum((w * x[t] for t, w in coef.items()), ZERO)
    return x


def chain(spec: GameSpec, choice: dict[str, str]) -> dict[str, dict[str, Fraction]]:
    """Transition rows of the Markov chain that an MD pair induces; owned
    states without a choice have no row, so reaching one is an error."""
    rows = {}
    for s, o in spec.owner.items():
        if o == "rand":
            rows[s] = dict(zip(spec.succ[s], spec.prob[s]))
        elif s in choice:
            rows[s] = {choice[s]: ONE}
    return rows


def chain_reach(rows, start: str, goal) -> Fraction:
    """Probability of reaching ``goal`` from ``start`` in a chain."""
    goal = set(goal)
    seen, stack = {start}, [start]
    while stack:
        s = stack.pop()
        if s in goal:
            continue  # the question is settled on entry; no row needed
        for t in rows[s]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    preds: dict[str, set[str]] = {s: set() for s in seen}
    for s in seen - goal:
        for t in rows[s]:
            preds[t].add(s)
    alive = {g for g in goal if g in seen}
    stack = list(alive)
    while stack:
        for p in preds[stack.pop()]:
            if p not in alive:
                alive.add(p)
                stack.append(p)
    if start in goal:
        return ONE
    if start not in alive:
        return ZERO
    unknown = [s for s in seen if s in alive and s not in goal]
    sys_rows = {s: {t: w for t, w in rows[s].items() if t in alive and t not in goal}
                for s in unknown}
    rhs = {s: sum((w for t, w in rows[s].items() if t in goal), ZERO) for s in unknown}
    return _solve_linear(sys_rows, rhs)[start]


def bottom_sccs(rows, start: str) -> list[set[str]]:
    """Bottom strongly connected components reachable from ``start``."""
    def closure(s):
        seen, stack = {s}, [s]
        while stack:
            for t in rows[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    reach = {s: closure(s) for s in closure(start)}
    bottoms = []
    for s, r in reach.items():
        if all(s in reach[t] for t in r) and not any(s in b for b in bottoms):
            bottoms.append(r)
    return bottoms


# --- checks by output kind -------------------------------------------------

def check_solve(q, out, ctx):
    """Exact ``solve`` output: fixpoint, zero set, progress strategy, closed
    forms, oracle."""
    v, bound = parse_values(out)
    spec = ctx.specs[q.game]
    targets = q.targets
    if bound is not None:
        return [(WRONG, "exact mode printed an error bound")]
    objective = q.objective
    probs: list[str] = []
    if objective == "reach":
        probs = reach_fixpoint_problems(spec, targets, v)
        probs = probs or progress_problems(spec, targets, v)
    elif objective == "safety":
        probs = safety_fixpoint_problems(spec, targets, v)
        probs = probs or progress_problems(spec, targets, {s: 1 - x for s, x in v.items()},
                                           "min")
    elif objective == "reachplus":
        plain = {s: (ONE if s in targets else v.get(s)) for s in spec.owner}
        if None in plain.values():
            return [(WRONG, "missing states")]
        probs = reach_fixpoint_problems(spec, targets, plain)
        probs = probs or progress_problems(spec, targets, plain)
        probs += [f"target {s}: revisit value {v[s]} is not its Bellman step"
                  for s in targets if v[s] != combine(spec, plain, s)]
    elif objective.startswith("reach<="):
        want = bounded_reach(spec, targets, int(objective[len("reach<="):]))
        probs = [f"{s}: {v.get(s)} != {want[s]}" for s in spec.owner if v.get(s) != want[s]]
    else:
        probs = [f"no check for objective {objective}"]
    for form in q.extra.get("closed_forms", ()):
        probs += CLOSED_FORMS[form](q, spec, v)
    if q.extra.get("acyclic"):
        want = acyclic_values(spec, targets, "safety" if objective == "safety" else "reach")
        if objective == "reachplus":
            want = {s: combine(spec, want, s) if s in targets else want[s] for s in spec.owner}
        probs += [f"{s}: {v[s]} != backward induction {want[s]}" for s in spec.owner
                  if v[s] != want[s]]
    if q.extra.get("oracle"):
        want = ctx.oracle(q)
        probs += [f"{s}: {v[s]} != oracle {want[s]}" for s in spec.owner if v[s] != want[s]]
    return [(WRONG, p) for p in probs[:5]]


def _ruin_closed_form(q, spec, v):
    p, cap = q.extra["ruin"]
    out = []
    for w in range(cap + 1):
        s = f"w{w}"
        reach = ruin_probability(p, cap, w)
        revisit = ONE if w == 0 else reach
        want = {"reach": reach, "safety": 1 - reach, "reachplus": revisit}[q.objective]
        if v[s] != want:
            out.append(f"{s} = {v[s]}, gambler's ruin closed form {want}")
    return out


CLOSED_FORMS = {
    "ruin": _ruin_closed_form,
    "fig2": lambda q, spec, v: fig2_exit_problems(spec, v),
}


def check_strategy_min(q, out, ctx):
    """Every exported minimizer choice is an edge and attains the value."""
    owner, choice = parse_md(out)
    spec = ctx.specs[q.game]
    v, _ = parse_values(ctx.output(q.extra["values_from"]))
    probs = []
    if owner != "min":
        probs.append(f"owner {owner}, expected min")
    mins = [s for s, o in spec.owner.items() if o == "min"]
    if set(choice) != set(mins):
        probs.append("choices do not cover exactly the minimizer states")
    for s in mins:
        t = choice.get(s)
        if t not in spec.succ[s]:
            probs.append(f"{s} -> {t} is not an edge")
        elif v[t] != min(v[u] for u in spec.succ[s]):
            probs.append(f"{s} -> {t} does not attain the value at {s}")
    return [(WRONG, p) for p in probs[:5]]


def check_decide(q, out, ctx):
    """The verdict names the side that the solved value at --from implies,
    and the exported strategy belongs to the winner and uses edges only."""
    lines = out.splitlines()
    if len(lines) < 2 or not lines[0].startswith("winner ") or not lines[1].startswith("reason "):
        return [(WRONG, "unparseable decide output")]
    winner = lines[0].split()[1]
    v, _ = parse_values(ctx.output(q.extra["values_from"]))
    value, c = v[q.extra["start"]], q.extra["threshold"]
    if value > c:
        allowed = {"max"}
    elif value < c:
        allowed = {"min"}
    else:
        allowed = {"max", "out-of-scope"}
    probs = []
    if winner not in allowed:
        probs.append(f"winner {winner} but value {value} vs threshold {c}")
    expected_rc = 2 if winner == "out-of-scope" else 0
    if q.rc != expected_rc:
        probs.append(f"exit code {q.rc} for winner {winner}")
    if winner != "out-of-scope":
        owner, choice = parse_md("\n".join(lines[2:]))
        spec = ctx.specs[q.game]
        if owner != winner:
            probs.append(f"strategy of {owner} for winner {winner}")
        probs += [f"{s} -> {t} is not an edge" for s, t in choice.items()
                  if t not in spec.succ.get(s, ())]
    return [(WRONG, p) for p in probs[:5]]


def check_iterate(q, out, ctx):
    """Iterate mode: every printed value must bracket the exact value.

    Reach values approach from below (lower <= value <= lower + bound),
    safety values from above (upper - bound <= value <= upper).  A bracket
    that misses by at most ``ROUNDING_MISS`` is the known rounding fault
    and counts as a failed operation; a larger miss, a bound above the
    tolerance, a value outside [0, 1] or a missing state is a wrong output.
    """
    v, bound = parse_values(out)
    spec = ctx.specs[q.game]
    if set(v) != set(spec.owner):
        return [(WRONG, "values do not cover exactly the game's states")]
    if bound is None or not ZERO <= bound <= q.extra["tol"]:
        return [(WRONG, f"error bound {bound} outside [0, tol]")]
    exact = ctx.exact_values(q)
    probs = []
    for s in spec.owner:
        if not ZERO <= v[s] <= ONE:
            return [(WRONG, f"{s}: {v[s]} outside [0, 1]")]
        if q.objective == "reach":
            lo, hi = v[s], v[s] + bound
        else:
            lo, hi = v[s] - bound, v[s]
        miss = max(lo - exact[s], exact[s] - hi)
        if miss > 0:
            kind = UNSOUND if miss <= ROUNDING_MISS else WRONG
            probs.append((kind, f"{s}: exact {exact[s]} outside [{float(lo)!r}, {float(hi)!r}]"))
    return sorted(probs, key=lambda p: p[0] != WRONG)[:5]


def check_partition(q, out, ctx):
    """Winning-set output: a partition with consistent indices, checked
    against an independent characterisation of the winning region."""
    rows, rounds = parse_partition(out)
    spec = ctx.specs[q.game]
    probs = []
    if set(rows) != set(spec.owner):
        return [(WRONG, "partition does not cover exactly the game's states")]
    for s, (side, idx) in rows.items():
        if side not in ("max", "min"):
            probs.append(f"{s}: side {side}")
        elif (idx == "bot") != (side == "max"):
            probs.append(f"{s}: side {side} with index {idx}")
        elif idx != "bot" and not idx.isdigit():
            probs.append(f"{s}: index {idx}")
        elif idx != "bot" and q.objective != "safety" and int(idx) > rounds:
            # Safety indices are attractor layers, not peeling rounds.
            probs.append(f"{s}: index {idx} beyond {rounds} rounds")
    max_wins = {s for s, (side, _) in rows.items() if side == "max"}
    if q.objective == "safety":
        want = set(spec.owner) - attractor(spec, q.targets, ("min", "rand"))
    elif "region" in q.extra:
        want = set(q.extra["region"])
    elif q.objective == "reach":
        want = ctx.value_one_region(q)
    else:
        want = None
        probs += ctx.buchi_certificate(q, max_wins)
    if want is not None and max_wins != want:
        probs.append(f"max region differs from the reference on {sorted(max_wins ^ want)[:5]}")
    if "rounds" in q.extra and rounds != q.extra["rounds"]:
        probs.append(f"{rounds} rounds, expected {q.extra['rounds']}")
    return [(WRONG, p) for p in probs[:5]]


def check_buchi_strategy(q, out, ctx):
    """One side of the Büchi MD pair: fixed in the game, the one-player
    re-solve must give value 1 on the maximizer's region (maximizer side)
    or below 1 on the minimizer's region (minimizer side)."""
    owner, choice = parse_md(out)
    spec = ctx.specs[q.game]
    rows, _ = parse_partition(ctx.output(q.extra["partition_from"]))
    probs = []
    if owner != q.extra["player"]:
        probs.append(f"owner {owner}, expected {q.extra['player']}")
    mine = [s for s, o in spec.owner.items() if o == owner]
    if set(choice) != set(mine) or any(choice[s] not in spec.succ[s] for s in mine):
        return [(WRONG, "strategy is not a total choice of edges")]
    values = ctx.mdp_buchi(q.game, owner, choice, q.targets)
    for s, (side, _) in rows.items():
        if owner == "max" and side == "max" and values[s] != ONE:
            probs.append(f"under sigma the maximizer wins {s} with {values[s]} < 1")
        if owner == "min" and side == "min" and values[s] >= ONE:
            probs.append(f"under pi the maximizer still wins {s} almost surely")
    return [(WRONG, p) for p in probs[:5]]


def check_interval(q, out, ctx):
    """fig2 Büchi interval at depth d: exactly 1/2 -+ 2^-(d-1)."""
    parts = dict(line.split() for line in out.splitlines())
    d = q.extra["depth"]
    want = {"lower": Fraction(1, 2) - Fraction(1, 2 ** (d - 1)),
            "upper": Fraction(1, 2) + Fraction(1, 2 ** (d - 1))}
    return [(WRONG, f"{k} {parts.get(k)} != {w}") for k, w in want.items()
            if Fraction(parts.get(k, "-1")) != w]


def check_simulate(q, out, ctx):
    """The estimate lies within 3 half-widths + 1e-3 of the exact value of
    the objective under the same pair, computed on the induced chain."""
    stats = parse_stats(out)
    mean, hw, decided = stats["mean"], stats["half-width-95"], stats["decided-fraction"]
    exact = ctx.simulate_reference(q)
    probs = []
    if not 0.0 <= decided <= 1.0 or not 0.0 <= mean <= 1.0 or hw < 0:
        probs.append(f"statistics out of range: {stats}")
    if abs(mean - float(exact)) > 3 * hw + 1e-3:
        probs.append(f"estimate {mean} +- {hw} vs exact {exact}")
    return [(WRONG, p) for p in probs]


CHECKS = {
    "solve": check_solve,
    "strategy-min": check_strategy_min,
    "decide": check_decide,
    "iterate": check_iterate,
    "partition": check_partition,
    "buchi-strategy": check_buchi_strategy,
    "interval": check_interval,
    "simulate": check_simulate,
}
