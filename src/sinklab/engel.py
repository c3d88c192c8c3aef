"""Engel calculus on group tables: minimal right Engel sinks, Engel element
tests, commutator tails, and gamma-k value sets.

For fixed x the map c -> [c, x] is a function on a finite set, so iterating
from any start walks a preperiod and then loops on a cycle. The minimal right
Engel sink of g is exactly the union over x of those eventual cycles: every
cycle value recurs at arbitrarily long iteration depths (so any sink must
contain it), and past the preperiods nothing else ever appears.

Every set-valued Engel question reads from one kernel, ``_landing``. For a
block of directions it gathers the step maps steps[i, c] = [c, xs[i]] from
the table and squares them L times with 2^L >= n (pointer jumping), giving
the landing points land = steps^(2^L). A preperiod is shorter than n, so
every landing point lies on the cycle its tail ends in. Then x is left Engel
iff row x of land is all identity, g is right Engel iff column g of land is
all identity (over every direction), and the sink of g is the union of the
cycles through column g of land, found by one walk per direction once round
each cycle.

``commutator_tail`` is the one scalar walk. Recurrence witnesses come only
from ``right_engel_sink`` (the ``sinklab sink`` command), which builds them
from one tail per direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .group import ElementSet, GroupTable

BLOCK_ENTRIES = 1 << 22  # table entries gathered per block by every kernel here


@dataclass(frozen=True)
class TailTrace:
    """One commutator tail: iterate c -> [c, x] from g until the first repeat."""

    start: int
    direction: int
    preperiod: tuple[int, ...]
    cycle: tuple[int, ...]  # in iteration order, beginning at the first repeated value


@dataclass(frozen=True)
class SinkReport:
    """Minimal right Engel sink of one element, with recurrence witnesses.

    witnesses[z] = (x, n) with z = [g, n x] = [g, (n+m) x] for some m >= 1;
    size_nontrivial discounts the identity, which every sink contains.
    """

    g: int
    sink: ElementSet
    size_full: int
    size_nontrivial: int
    witnesses: dict[int, tuple[int, int]]


def commutator_tail(G: GroupTable, g: int, x: int) -> TailTrace:
    """Walk c0 = g, c_{i+1} = [c_i, x] and split at the first revisit."""
    G._check(g)
    G._check(x)
    pos: dict[int, int] = {}
    seq: list[int] = []
    c = g
    while c not in pos:
        pos[c] = len(seq)
        seq.append(c)
        c = G.comm(c, x)
    first = pos[c]
    return TailTrace(g, x, tuple(seq[:first]), tuple(seq[first:]))


def _blocks(n: int, width: int) -> Iterable[np.ndarray]:
    """Consecutive index ranges covering 0..n-1, with rows * width <= BLOCK_ENTRIES."""
    rows = max(1, BLOCK_ENTRIES // max(width, 1))
    for lo in range(0, n, rows):
        yield np.arange(lo, min(n, lo + rows))


def _comm_grid(G: GroupTable, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """grid[i, j] = [cs[j], xs[i]] = cs[j]^-1 xs[i]^-1 cs[j] xs[i]."""
    t, inv = G.table, G.inverse
    u = t[inv[cs][None, :], inv[xs][:, None]]
    u = t[u, cs[None, :]]
    return t[u, xs[:, None]]


def _landing(G: GroupTable, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(steps, land) for the directions xs: steps[i, c] = [c, xs[i]], and
    land[i, c] is c after 2^L >= n steps, so it lies on its tail's cycle."""
    steps = _comm_grid(G, xs, np.arange(G.n))
    row_starts = np.arange(len(xs))[:, None] * G.n  # a flat gather beats take_along_axis
    land = steps
    for _ in range((G.n - 1).bit_length()):
        land = land.ravel()[land + row_starts]
    return steps, land


def _landing_blocks(G: GroupTable) -> Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(xs, steps, land) for blocks of directions covering all of G."""
    for xs in _blocks(G.n, G.n):
        yield (xs, *_landing(G, xs))


def sinks(G: GroupTable, elements: Optional[Iterable[int]] = None) -> dict[int, ElementSet]:
    """Minimal right Engel sinks for the given elements (default: all of G).

    In each direction the walk from an element's landing point goes once
    round its cycle; the walks of a block of directions advance together, and
    a walk drops out when it is back at its landing point.
    """
    targets = sorted(set(G.elements() if elements is None else (int(e) for e in elements)))
    for g in targets:
        G._check(g)
    n = G.n
    found = np.zeros(len(targets) * n, dtype=bool)
    cols = np.array(targets, dtype=np.intp)
    for xs, steps, land in _landing_blocks(G):
        # walk (i, t) reads steps.flat[i * n + c] and sets found.flat[t * n + c]
        rows, who = np.divmod(np.arange(len(xs) * len(cols)), len(cols))
        rows, who = rows * n, who * n
        flat_steps = steps.ravel()
        start = land[:, cols].ravel()
        cur = start
        while len(cur):
            found[who + cur] = True
            cur = flat_steps[rows + cur]
            moving = cur != start
            rows, who, cur, start = rows[moving], who[moving], cur[moving], start[moving]
    rows_found = found.reshape(-1, n)
    return {g: ElementSet.of(n, np.flatnonzero(row).tolist()) for g, row in zip(targets, rows_found)}


def right_engel_sink(G: GroupTable, g: int) -> SinkReport:
    """Sink of g with witnesses, from commutator_tail in every direction.

    witnesses[z] = (x, n) names the first direction x, in index order, whose
    cycle holds z, with n the preperiod length plus z's offset in the cycle,
    or the cycle length when that is 0, so that n >= 1.
    """
    G._check(g)
    witnesses: dict[int, tuple[int, int]] = {}
    for x in G.elements():
        tail = commutator_tail(G, g, x)
        for offset, z in enumerate(tail.cycle):
            if z not in witnesses:
                n = len(tail.preperiod) + offset
                witnesses[z] = (x, n if n >= 1 else len(tail.cycle))
    sink = ElementSet.of(G.n, witnesses)
    return SinkReport(g, sink, len(sink), len(sink) - 1, witnesses)


def is_right_engel(G: GroupTable, g: int) -> bool:
    """Whether every commutator tail from g ends in the identity."""
    G._check(g)
    return not any(land[:, g].any() for _, _, land in _landing_blocks(G))


def is_left_engel(G: GroupTable, x: int) -> bool:
    """Whether every tail in direction x ends in the identity.

    Equivalent to: the functional graph of c -> [c, x] has no cycle other
    than the fixed point at the identity.
    """
    G._check(x)
    _, land = _landing(G, np.array([x]))
    return not land.any()


def left_engel_set(G: GroupTable) -> ElementSet:
    """The left Engel elements, from one landing pass over all directions."""
    found: list[int] = []
    for xs, _, land in _landing_blocks(G):
        found.extend(xs[~land.any(axis=1)].tolist())
    return ElementSet.of(G.n, found)


def gamma_values(G: GroupTable, k: int) -> ElementSet:
    """Left-normed commutator values of weight k: X1 = G, X_{i+1} = {[x, g]}.

    These are word values, not subgroup closures. Stops early once the value
    set stabilizes, since the recurrence is then constant.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = G.n
    if k == 1:
        return ElementSet.full(n)
    X = np.arange(n)
    for _ in range(k - 1):
        found = np.zeros(n, dtype=bool)
        for gs in _blocks(n, len(X)):
            found[_comm_grid(G, gs, X)] = True
        nxt = np.flatnonzero(found)
        if np.array_equal(nxt, X):
            break
        X = nxt
    return ElementSet.of(n, (int(v) for v in X))


def sink_profile(G: GroupTable, k: int) -> tuple[int, int, int]:
    """(max sink size, max identity-free sink size, witnessing element) over
    the weight-k commutator values, with the smallest witnessing index."""
    values = gamma_values(G, k)
    sink_of = sinks(G, values)
    m_full = 0
    m_nontrivial = 0
    argmax = 0
    for g in sorted(values.members):
        full = len(sink_of[g])  # the identity is in every sink
        if full > m_full:
            m_full = full
            argmax = g
        m_nontrivial = max(m_nontrivial, full - 1)
    return m_full, m_nontrivial, argmax
