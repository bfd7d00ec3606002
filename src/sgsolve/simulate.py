"""Monte-Carlo play sampling under a fixed strategy pair.

Randomness comes from Philox4x64-10, a counter-based generator (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).  The stream
contract:

* Play ``i`` of a run with seed ``seed`` uses the key ``(seed, i)``; seeds
  lie in ``0 <= seed < 2**63``, where numpy takes keys exactly.
* Its draw ``k`` is word ``k % 4`` of the Philox block at counter
  ``(k // 4 + 1, 0, 0, 0)``, mapped to a double as ``(w >> 11) * 2**-53``.
  This is exactly the stream of
  ``numpy.random.Generator(numpy.random.Philox(key=[seed, i])).random()``,
  whose counter is incremented before each block, so blocks start at 1.
* Per step a play consumes its draws in this order: the move, then the
  maximizer's mode update, then the minimizer's.  It consumes one draw for
  each of these whose row has more than one entry, and none otherwise.
* A draw ``u`` picks the first entry whose cumulative weight, summed in row
  order, is above ``u``, and the last entry if none is.

Plays are advanced in numpy arrays, with two widths.  All plays of a run
step together in one lockstep set, up to a cap that memory bounds (about
100 bytes a live play); a run with more plays uses several sets, one after
another.  Philox refills are computed in slices of at most a few thousand
plays, a width that the cache bounds: the kernel slows down once its
temporaries outgrow it, and a narrower slice pays the kernel's fixed cost
per call (a few hundred numpy operations) more often.  Since each play
owns its stream, the result depends on neither width, nor the order of the
plays, nor the process that plays them: it is bit-identical across runs.

A lockstep set splits across processes once it proves long-lived: after
the first step at which it holds two shares of ``_SPLIT`` (4,096) live
plays and one of them has read all four draws of its first block.  It
forks ``k - 1`` children, ``k`` the smaller of the CPUs the process may
run on and the live plays over ``_SPLIT``, and process ``r`` plays on the
live plays at positions ``r`` modulo ``k``.  A child sends its share's
wins, undecided plays and first failing play through a pipe and leaves by
``os._exit``, inside ``try``/``finally``: it never returns into the
caller's code or flushes a buffer it inherited.  The parent adds the counts
and keeps the lowest-numbered failing play, whose message a run in one
process raises too.  The merge is exact: the counts are integers, and a
play's draws depend on its key alone.  The parent reaps every child,
killing them first if its own share raised; a child that ends without its
counts raises :class:`WorkerError`.  No set splits where ``os.fork`` or
``os.sched_getaffinity`` is missing (Windows, macOS), on one CPU, or when
``os.fork`` raises ``OSError`` (the set goes on in the process); nor does
a set whose plays are mostly decided within four draws, as on the Figure 2
game.  A child calls no BLAS routine, whose threads a fork does not copy.
Python 3.12 and later warn (``DeprecationWarning``) on every fork of a
process with threads, numpy's BLAS threads included; the tested versions,
3.10 and 3.11, do not.

A play keeps the last two Philox blocks it computed, in a window of eight
draws where draw ``k`` sits in column ``k % 8``.  When a step needs a draw
past the last block, the play computes the next block only, over the older
of the two.  A step takes at most three draws, so they fit in the block
before and that one: a play computes exactly the blocks its draws fall in.

A play is decided at the first step whose verdict code, in the verdict
table built once per run from the objective and the game, is decided: the
rule is stated once, in the ``objectives`` module docstring, and
``objectives.decided`` reads the same table.  A play still undecided at the
horizon counts as lost for reach and won for safety; a Buchi or co-Buchi
play is scored by whether the target was visited within the trailing
window.  The share of plays decided within the horizon is reported, so
callers can tell how much of the estimate rests on the cutoff.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

import numpy as np

from .model import Game, Owner, SgsolveError, _as_int, check_state
from .objectives import Objective, ObjectiveKind
from .strategies import MDStrategy, TransducerStrategy, md_to_transducer

# Plays advanced together, at most.  A live play holds about 100 bytes (its
# draw window of 8 doubles and 4 index entries), so this bounds the set at
# about 3.3 MB.  A set that holds every play of a run steps through the
# horizon once, however few plays stay undecided until it.
_PLAYS = 1 << 15
# Stale plays whose Philox blocks are computed in one kernel call, at most:
# the kernel's temporaries then stay near 1 MB, in cache.
_SLICE = 8192
# Live plays per process, at least, when a lockstep set is split across
# processes: a set splits once it holds two such shares.
_SPLIT = 4096

# Philox4x64-10 round multipliers and Weyl key increments.
_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_BUMPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK64 = 2**64 - 1
# The same as numpy scalars, made once: per multiplier its low and high
# 32-bit halves and itself; the half mask and width; the second key's bump;
# and the shift that keeps a word's top 53 bits.
_FACTORS = tuple((np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32), np.uint64(m))
                 for m in _MULTIPLIERS)
_LOW, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)
_BUMP1 = np.uint64(_BUMPS[1])
_TOP53 = np.uint64(11)


@dataclass(frozen=True)
class SimConfig:
    """The run settings of :func:`sample_plays`, each kept as an ``int``."""

    samples: int
    horizon: int
    seed: int
    buchi_window: int = 1

    def __post_init__(self):
        for name in ("samples", "horizon", "seed", "buchi_window"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if self.samples <= 0:
            raise ValueError("samples must be positive")
        if not self.horizon >= self.buchi_window >= 1:
            raise ValueError("need horizon >= buchi_window >= 1")
        # numpy rounds a larger key through a float and wraps a negative one.
        if not 0 <= self.seed < 2**63:
            raise ValueError("seed must satisfy 0 <= seed < 2**63")


@dataclass(frozen=True)
class Estimate:
    """Sample mean with a 95% normal-approximation half width and the share
    of plays whose verdict was decided within the horizon."""

    mean: float
    half_width_95: float
    decided_fraction: float


def _as_transducer(strategy, owner: Owner) -> TransducerStrategy | None:
    if strategy is None:
        return None
    if isinstance(strategy, MDStrategy):
        strategy = md_to_transducer(strategy)
    if strategy.owner is not owner:
        raise ValueError(f"owner mismatch: expected a {owner.value} strategy")
    return strategy


def _mulhilo(m, x):
    """High and low words of the 128-bit product ``m * x``, on 32-bit halves;
    ``m`` is a multiplier's entry in ``_FACTORS``.

    Every partial sum stays below 2**64.  The updates are in place because
    fewer temporaries make the kernel about a fifth faster.
    """
    m_lo, m_hi, m_all = m
    x_lo, x_hi = x & _LOW, x >> _HALF
    mid = x_lo * m_lo
    mid >>= _HALF
    mid += x_lo * m_hi
    cross = x_hi * m_lo
    cross += mid & _LOW
    cross >>= _HALF
    mid >>= _HALF
    hi = x_hi * m_hi
    hi += mid
    hi += cross
    return hi, x * m_all


def _philox(counter, seed: int, play):
    """Philox4x64-10 at counters ``(counter, 0, 0, 0)`` under keys
    ``(seed, play)``, elementwise over uint64 arrays: the four output words of
    each, mapped to doubles in [0, 1) along a new last axis.

    Rounds 0 and 1 run on the words known before the call: round 0's second
    product is of the zero word and leaves the seed key alone in word 0, so
    round 1's first product is one Python int product.
    """
    c2, c3 = _mulhilo(_FACTORS[0], counter)
    c2 ^= play
    k0, k1 = (seed + _BUMPS[0]) & _MASK64, play + _BUMP1
    product = _MULTIPLIERS[0] * seed
    c3 ^= np.uint64(product >> 64)
    c3 ^= k1
    c0, c1 = _mulhilo(_FACTORS[1], c2)
    c0 ^= np.uint64(k0)
    c2, c3 = c3, np.uint64(product & _MASK64)
    for _ in range(2, 10):
        k0 = (k0 + _BUMPS[0]) & _MASK64
        k1 += _BUMP1
        hi0, lo0 = _mulhilo(_FACTORS[0], c0)
        hi1, lo1 = _mulhilo(_FACTORS[1], c2)
        hi1 ^= c1
        hi1 ^= np.uint64(k0)
        hi0 ^= c3
        hi0 ^= k1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    out = np.empty(counter.shape + (4,))
    for j, c in enumerate((c0, c1, c2, c3)):
        c >>= _TOP53
        np.multiply(c, 2.0**-53, out=out[..., j])
    return out


class WorkerError(SgsolveError, RuntimeError):
    """A forked share of a play set ended without its counts."""


def _cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _in_shares(k: int, work) -> list:
    """``[work(0, k), ..., work(k - 1, k)]``, each ``work(r, k)`` but the
    first in a forked child process; ``[work(0, 1)]`` if a fork fails.

    A child sends its result through a pipe and leaves by ``os._exit``: it
    never returns into the caller's code or flushes a buffer it inherited.
    The parent reaps every child.  If its own share raises, or a child ends
    without its result, it first kills the children it has not reaped.
    """
    children = {}  # pid -> the read end of its pipe
    try:
        for r in range(1, k):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                _stop(children)
                k = 1
                break
            if not pid:
                status = 1
                try:
                    os.close(read)
                    for other in children.values():
                        os.close(other)
                    with open(write, "wb") as out:
                        pickle.dump(work(r, k), out)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children[pid] = read
        results = [work(0, k)]
        for pid in list(children):
            with open(children[pid], "rb", closefd=False) as pipe:
                message = pipe.read()
            status = os.waitpid(pid, 0)[1]
            os.close(children.pop(pid))
            if status or not message:
                raise WorkerError("a forked share of the plays ended without its counts "
                                  f"(exit code {os.waitstatus_to_exitcode(status)})")
            results.append(pickle.loads(message))
        return results
    finally:
        _stop(children)


def _stop(children) -> None:
    """Kill and reap the children in ``children`` and close their pipes."""
    import signal

    while children:
        pid, read = children.popitem()
        os.close(read)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


class _Rows:
    """Distribution rows as padded cumulative float weights.

    ``rows`` holds one ``[(id, weight), ...]`` list per row, or ``None`` for
    a row that is never picked from.  Weights are summed in row order.  The
    last entry of a row, and the padding after it, get no bound, so a draw
    above every sum picks the last entry and a one-entry row ignores its draw.
    """

    def __init__(self, rows):
        self.width = max((len(row) for row in rows if row), default=1)
        cum = np.full((len(rows), self.width - 1), np.inf)
        out = np.zeros((len(rows), self.width), dtype=np.int64)
        for r, row in enumerate(rows):
            acc = 0.0
            for c, (x, w) in enumerate(row or ()):
                acc += float(w)
                out[r, c] = x
                if c + 1 < len(row):
                    cum[r, c] = acc
        # One contiguous array per column: gathers from them are cheapest.
        self.bounds = [np.ascontiguousarray(col) for col in cum.T]
        self.out = out.ravel()
        self.draws = np.array([len(row or ()) > 1 for row in rows])

    def pick(self, r, u):
        """The entry of row ``r[j]`` that draw ``u[j]`` picks, for every ``j``:
        the first whose cumulative weight is above ``u[j]``."""
        at = r * self.width
        for bound in self.bounds:
            at += bound[r] <= u
        return self.out[at]


def sample_plays(
    game: Game,
    start: str,
    objective: Objective,
    cfg: SimConfig,
    sigma: MDStrategy | TransducerStrategy | None = None,
    pi: MDStrategy | TransducerStrategy | None = None,
) -> Estimate:
    """Estimate the objective probability from ``start`` under the pair.

    A strategy may be omitted, or lack rows, wherever no play needs it: a
    play that reaches a state where it needs a missing row raises
    ``ValueError``.  A row that fails :meth:`TransducerStrategy.check_rows`,
    a stray one included, raises ``ValueError`` up front.  MD strategies are
    accepted and lifted to one-mode transducers.  A long run may split its
    plays across forked processes (module docstring), all reaped before it
    returns or raises; one that ends without its counts raises
    :class:`WorkerError`.
    """
    pair = (_as_transducer(sigma, Owner.MAX), _as_transducer(pi, Owner.MIN))
    for t in filter(None, pair):
        t.check_rows(game)
    table = objective.verdicts(game)
    check_state(game, start)
    kind = objective.kind
    states = game.states
    n = len(states)
    sid = {s: i for i, s in enumerate(states)}

    target = np.array([s in objective.target for s in states])
    first_code, codes = (np.array([t[s] for s in states]) for t in (table.first, table.later))
    lost_from = None
    if table.lost_from is not None:
        # Capped at a step no play reaches, which keeps any N in int64.
        lost_from = np.array([min(table.lost_from[s], cfg.horizon + 1) for s in states])

    # Mode ids per player; a missing strategy has the one mode None.
    mode_ids = [{m: j for j, m in enumerate(dict.fromkeys(t.modes))}
                if t else {None: 0} for t in pair]
    initial = [ids[t.initial] if t else 0 for t, ids in zip(pair, mode_ids)]

    def rows(dist, index):
        """``dist`` as ``(id, weight)`` pairs, ``None`` for a missing row."""
        return dist and [(index[x], w) for x, w in dist.items()]

    # Move rows: one per random state and one per mode at an owned state, at
    # ``first[state] + mode``.  A play that needs a missing one fails.
    first = np.zeros(n, dtype=np.int64)
    stride = np.zeros((2, n), dtype=np.int64)
    moves = []
    lacking = {}
    for i, s in enumerate(states):
        first[i] = len(moves)
        who = game.owner[s]
        if who is Owner.RANDOM:
            moves.append([(sid[t], w) for t, w in game.distribution(s)])
            continue
        p = 0 if who is Owner.MAX else 1
        stride[p, i] = 1
        t = pair[p]
        for m in mode_ids[p]:
            row = t and rows(t.choose.get((m, s)), sid)
            if not row:
                lacking[len(moves)] = (
                    f"no successor row for mode {m} at {s}" if t else
                    f"owner mismatch: no {('maximizer', 'minimizer')[p]} strategy, needed at {s}")
            moves.append(row)
    fails = np.zeros(len(moves), dtype=bool)
    fails[list(lacking)] = True
    moves = _Rows(moves)
    # Players whose mode can change, with their mode-update rows at
    # ``mode * n + state``; a missing row keeps the mode.
    dynamic = []
    for p, (t, ids) in enumerate(zip(pair, mode_ids)):
        if t and t.update:
            dynamic.append((p, _Rows([
                rows(t.update.get((m, s)), ids) or [(j, 1)] for m, j in ids.items() for s in states])))
        else:
            first += stride[p] * initial[p]

    window_start = cfg.horizon - cfg.buchi_window + 1
    cpus = _cpus()

    def advance(lo, window, step, plays, split):
        """Plays ``lo + slot`` from ``step`` on: the wins and the plays left
        undecided that they add, and the lowest-numbered play that needed a
        missing row with its message, or ``None``.  ``plays`` holds the
        arrays ``slot``, ``st``, ``drawn`` and ``seen`` and the modes;
        ``window`` holds the draws of every slot of the set.  With ``split``
        the plays are split across processes if the set proves long-lived.
        """
        slot, st, drawn, seen, *modes = plays
        flat, quads = window.ravel(), window.reshape(-1, 4)
        wins = undecided = 0
        failed = None
        ripe = False
        for step in range(step, cfg.horizon + 1):
            if ripe:
                plays = [slot, st, drawn, seen, *modes]

                def share(r, k):
                    return advance(lo, window, step, [a[r::k] for a in plays], False)

                won, open_, errors = zip(*_in_shares(min(cpus, len(st) // _SPLIT), share))
                wins += sum(won)
                undecided += sum(open_)
                failed = min(filter(None, (failed, *errors)), default=None)
                break
            code = (codes if step else first_code)[st]
            if lost_from is not None:
                code[step >= lost_from[st]] = 1
            wins += int(np.count_nonzero(code == 2))
            done = code > 0
            if step >= window_start:
                seen |= target[st]
            if step == cfg.horizon:
                live = ~done
                undecided += int(np.count_nonzero(live))
                if kind is ObjectiveKind.BUCHI:
                    wins += int(np.count_nonzero(seen & live))
                elif kind is ObjectiveKind.COBUCHI:
                    wins += int(np.count_nonzero(~seen & live))
                elif kind is ObjectiveKind.SAFETY:
                    wins += int(np.count_nonzero(live))
                break

            row = first[st]
            for (p, _), mode in zip(dynamic, modes):
                row = row + stride[p, st] * mode
            if lacking:
                lost = np.flatnonzero(fails[row] & ~done)
                if len(lost):
                    # Such a play stops.  Plays stay in index order, so the
                    # first is the lowest-numbered, which names the error as
                    # if the plays ran one after another.
                    j = lost[0]
                    if failed is None or slot[j] < failed[0]:
                        failed = (int(slot[j]), lacking[row[j]])
                    done[lost] = True
            if done.any():
                keep = np.flatnonzero(~done)
                slot, st, drawn, seen, row = (
                    a.take(keep) for a in (slot, st, drawn, seen, row))
                modes = [mode.take(keep) for mode in modes]
                if not len(st):
                    break
            # The set splits after this step's draws once it holds two
            # shares of live plays and one of them has read all four draws
            # of its first block.
            split = split and len(st) >= 2 * _SPLIT
            ripe = split and (drawn > 3).any()

            # This step's draws, in stream order: the move, then each mode update.
            urows = [mode * n + st for mode in modes]
            takes = [moves.draws[row]] + [upd.draws[r] for (_, upd), r in zip(dynamic, urows)]
            # A play whose last block holds fewer unread draws than the step
            # takes computes the next block, ``k``, at counter ``k + 1``.
            stale = np.flatnonzero(sum(takes) > (-drawn & 3))
            for part in range(0, len(stale), _SLICE):
                some = stale[part:part + _SLICE]
                k = (drawn[some] + 3) >> 2
                words = _philox((k + 1).astype(np.uint64), cfg.seed,
                                (lo + slot[some]).astype(np.uint64))
                quads[2 * slot[some] + (k & 1)] = words
            draws = []
            base = 8 * slot
            for take in takes:
                draws.append(flat[base + (drawn & 7)])
                drawn = drawn + take
            st = moves.pick(row, draws[0])
            modes = [upd.pick(r, u) for (_, upd), r, u in zip(dynamic, urows, draws[1:])]
        return wins, undecided, failed

    wins = undecided = 0
    for lo in range(0, cfg.samples, _PLAYS):
        count = min(_PLAYS, cfg.samples - lo)
        # ``drawn`` counts the draws a play has read, and the blocks they fall
        # in are the ones it has computed.
        plays = [np.arange(count), np.full(count, sid[start], dtype=np.int64),
                 np.zeros(count, dtype=np.int64), np.zeros(count, dtype=bool)]
        plays += [np.full(count, initial[p], dtype=np.int64) for p, _ in dynamic]
        won, open_, failed = advance(lo, np.zeros((count, 8)), 0, plays, cpus > 1)
        if failed is not None:
            raise ValueError(failed[1])
        wins += won
        undecided += open_

    mean = wins / cfg.samples
    half_width = 1.96 * (mean * (1.0 - mean) / cfg.samples) ** 0.5
    return Estimate(mean, half_width, (cfg.samples - undecided) / cfg.samples)
