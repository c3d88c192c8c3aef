"""Engel calculus on group tables: minimal right Engel sinks, Engel element
tests, recurrence witnesses, and gamma-k value sets.

For fixed x the map c -> [c, x] is a function on a finite set, so a walk
from any start runs a preperiod and then loops on a cycle. The minimal right
Engel sink of g is the union over x of the cycles reached from g (their
values recur at every depth; past the preperiods nothing else appears), and
x is left Engel iff all of its cycles are {1}. One kernel, ``_brent``, walks
this map for every job, many walkers a gather. A walker's saved point is
reset at each power-of-two step (Brent, BIT 20 (1980)); once a reset falls
past the preperiod and the cycle fits before the next, the walker meets its
cycle, whose length is the steps since the reset.
- ``sinks`` starts walkers at its targets, steps them on the step grid of a
  block of directions, and goes once round each met cycle. When the identity
  is its only target, or it has none, its rows are {1}, as [1, x] = 1, and no
  step grid or coset minima are made.
- The left Engel test starts them at the commutators, where every walk is
  after one step, and asks that all of them meet their cycles at 1.
- ``right_engel_sink`` starts one per direction at g, stepped by table
  gathers, takes the preperiod from two pointers a cycle length apart, and
  goes once round each cycle for its values' depths.
If z commutes with c, [c, z x] = [c, x], and a walk's values lie in S, the
commutators and the targets' classes: ``sinks`` walks one direction per coset
of C = C_G(S), its least element. C is normal and read off the class minima.
The left Engel walks stay in the commutators K: ``left_engel_set`` walks the
cosets of C_G(K) that meet the class minima (G.commutator_cosets, kept).
The witness walk takes all n directions, one walker each: that costs less
than the class labels and commutators that C needs. As sink(g^h) = sink(g)^h,
left Engel, sink sizes and value sets are computed on class minima only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .group import (
    ElementSet, GroupTable, _blocks, _comm, _comm_grid, _coset_minima, class_representatives, classes_meeting, comm_values,
)


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


def _brent(advance: Callable, keys: tuple[np.ndarray, ...], cur: np.ndarray) -> Iterator[tuple]:
    """Walk c -> advance(keys, c) from cur, one walker per entry of cur and of
    each key array, until every walker meets its cycle. Yields, for each step
    at which some meet, (cycle length, their keys, their points on the cycle)."""
    saved, step, reset = cur, 0, 0
    while len(cur):
        cur, step = advance(keys, cur), step + 1
        met = cur == saved
        if met.any():  # these walkers are on their cycles, all of length step - reset
            yield step - reset, tuple(k[met] for k in keys), cur[met]
            keep = ~met
            keys, cur, saved = tuple(k[keep] for k in keys), cur[keep], saved[keep]
        if step & (step - 1) == 0:  # Brent's reset
            saved, reset = cur, step


def _grid_walks(G: GroupTable, xs: np.ndarray, starts: np.ndarray):
    """Yield (block, advance, met) for blocks of xs: _brent's walks from every
    start in every direction of the block, keyed (row offset in the block's
    step grid, start index * n), advance(keys, c) one gather on the grid."""
    n = G.n
    # a block's grid rows with _comm's transients, and 48 bytes a walker: about BLOCK_ENTRIES bytes
    for block in _blocks(len(xs), n * (8 + 2 * G.table.itemsize) + 48 * len(starts)):
        flat_steps = _comm_grid(G, xs[block], np.arange(n)).ravel()

        def advance(keys, c, flat_steps=flat_steps):  # walker (i, t) reads flat_steps[i * n + c]
            return flat_steps[keys[0] + c]

        i, t = np.divmod(np.arange(len(block) * len(starts)), len(starts))  # walker i * len(starts) + t
        yield block, advance, _brent(advance, (i * n, t * n), starts.astype(flat_steps.dtype)[t])


def sinks(G: GroupTable, elements: Optional[Iterable[int]] = None) -> np.ndarray:
    """Read-only bool matrix of the sinks of the given elements (default: all of G), one row each, ascending."""
    n = G.n
    targets = ElementSet.full(n) if elements is None else ElementSet.of(n, elements)
    cols = targets.mask.nonzero()[0]
    if not targets.mask[1:].any():  # no target but the identity, whose sink is {1} as [1, x] = 1: no walk
        found = np.zeros((len(cols), n), dtype=bool)
        found[:, 0] = True
        found.setflags(write=False)
        return found
    K = G.commutators.mask
    # every walk's values lie in the commutators and the targets' classes
    least = G.commutator_cosets if K[cols].all() else _coset_minima(G, K | classes_meeting(G, targets).mask)
    directions = (least == np.arange(n)).nonzero()[0]  # before found, so their transients never meet
    found = np.zeros(len(cols) * n, dtype=bool)
    for _, advance, met in _grid_walks(G, directions, cols):
        for length, keys, cur in met:  # once round each cycle from the meeting points
            for _ in range(length):
                found[keys[1] + cur] = True
                cur = advance(keys, cur)
    found.setflags(write=False)
    return found.reshape(-1, n)  # a view, so read-only too


def right_engel_sink(G: GroupTable, g: int) -> SinkReport:
    """Sink of g with witnesses, from one walk in each direction.

    witnesses[z] = (x, n) names the first direction x, in index order, whose
    cycle holds z, with n the preperiod length plus z's offset in the cycle,
    or the cycle length when that is 0, so that n >= 1.
    """
    G._check(g)

    def advance(keys, c):  # [c, x], walker by walker
        return _comm(G, c, keys[0])

    first = np.full(G.n, G.n)  # first[z]: the least direction whose cycle holds z, so far
    depth = np.zeros(G.n, dtype=np.int64)
    for block in _blocks(G.n, 48):  # 48 bytes a walker
        for length, keys, _ in _brent(advance, (block,), np.full(len(block), g, dtype=G.table.dtype)):
            behind = ahead = np.full(len(keys[0]), g, dtype=G.table.dtype)
            for _ in range(length):
                ahead = advance(keys, ahead)
            mu = np.zeros(len(ahead), dtype=np.int64)
            while (apart := ahead != behind).any():  # length apart, they meet at the cycle's first point
                mu += apart
                ahead, behind = np.where(apart, advance(keys, ahead), ahead), np.where(apart, advance(keys, behind), behind)
            for offset in range(length):
                np.minimum.at(first, behind, keys[0])
                won = first[behind] == keys[0]
                depth[behind[won]] = np.where(mu + offset > 0, mu + offset, length)[won]
                behind = advance(keys, behind)
    sink = ElementSet(first < G.n)
    zs = np.flatnonzero(sink.mask)
    witnesses = dict(zip(zs.tolist(), zip(first[zs].tolist(), depth[zs].tolist())))
    return SinkReport(g, sink, len(zs), len(zs) - 1, witnesses)


def _left_engel(G: GroupTable, xs: np.ndarray) -> np.ndarray:
    """Mask over xs of the left Engel elements: the walks from the commutators meet their cycles only at 1."""
    engel = np.ones(len(xs), dtype=bool)
    for block, _, met in _grid_walks(G, xs, G.commutators.mask.nonzero()[0]):
        for _, keys, cur in met:
            engel[block[keys[0][cur != 0] // G.n]] = False
    return engel


def is_left_engel(G: GroupTable, x: int) -> bool:
    """Whether the functional graph of c -> [c, x] has no cycle other than the fixed point at 1."""
    return bool(_left_engel(G, np.array([G._check(x)]))[0])


def left_engel_set(G: GroupTable) -> ElementSet:
    """The left Engel elements: x has the verdict of the least element of C label[x], for C the centralizer
    of the commutators, so the walks take one direction per coset of C that meets the class minima."""
    least, engel = G.commutator_cosets, np.zeros(G.n, dtype=bool)
    engel[least[class_representatives(G)]] = True
    directions = engel.nonzero()[0]
    engel[directions] = _left_engel(G, directions)
    return ElementSet(engel[least[G.class_labels]])


def gamma_values(G: GroupTable, k: int) -> ElementSet:
    """Left-normed commutator values of weight k: X1 = G, X_{i+1} = {[x, g]}.

    These are word values, not subgroup closures, and unions of classes, so
    comm_values takes them from class minima. Stops early once the value set
    stabilizes, since the recurrence is then constant.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    full = X = ElementSet.full(G.n)
    for _ in range(k - 1):
        X, prev = comm_values(G, X, full), X
        if X == prev:
            break
    return X


def sink_profile(G: GroupTable, k: int) -> tuple[int, int, int]:
    """(max sink size, max identity-free sink size, witnessing element) over
    the weight-k commutator values, with the smallest witnessing index."""
    minima = gamma_values(G, k).mask & (G.class_labels == np.arange(G.n))  # the least witness is one
    sizes = sinks(G, ElementSet(minima)).sum(axis=1)  # the identity is in every sink
    return int(sizes.max()), int(sizes.max()) - 1, int(minima.nonzero()[0][sizes.argmax()])  # the first maximum
