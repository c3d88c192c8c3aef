"""Engel calculus on group tables: minimal right Engel sinks, Engel element
tests, commutator tails, and gamma-k value sets.

For fixed x the map c -> [c, x] is a function on a finite set, so iterating
from any start walks a preperiod and then loops on a cycle. The minimal right
Engel sink of g is exactly the union over x of those eventual cycles: every
cycle value recurs at arbitrarily long iteration depths (so any sink must
contain it), and past the preperiods nothing else ever appears.

``sinks`` walks from its targets only. For a block of directions it gathers
the step grid steps[i, c] = [c, xs[i]] and starts one walker per (direction,
target) at the target; all advance by one flat gather per step. A walker's
saved point is reset at each power-of-two step count (Brent, BIT 20 (1980);
Knuth, TAOCP vol. 2, sec. 3.1 ex. 7); once a reset falls past the preperiod
and the cycle fits in the gap to the next, the walker meets it on the cycle,
whose length is the steps since the reset. The walkers that meet at one step
then go once round their cycles together and mark their targets' rows of the
result, a bool matrix (row i: the sink of the i-th target, ascending).
If z commutes with c, [c, z x] = c^-1 x^-1 z^-1 c z x = [c, x]. A walk's
values (its target, then commutators) lie in S, the commutators and the
targets' classes, so one direction per coset of C = C_G(S) is walked, its
least element: |G : C| grid rows, not n. S is a class union, so C is normal
and is read off the class minima.
Left Engel needs every start: ``_landing`` squares the step grid L times,
2^L >= n (pointer jumping), and x is left Engel iff its row of landing points
is all identity. Conjugation is an automorphism, so sink(g^h) = sink(g)^h:
left Engel, sink sizes and the value sets are class invariants, which
left_engel_set, gamma_values and sink_profile compute on class minima only.

``commutator_tail`` is the one scalar walk. Recurrence witnesses come only
from ``right_engel_sink`` (``sinklab sink``), one tail per direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Optional

import numpy as np

from .group import (
    ElementSet, GroupTable, _blocks, _comm_grid, _commuting, class_representatives, classes_meeting, comm_values,
)


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
    return TailTrace(g, x, tuple(seq[:pos[c]]), tuple(seq[pos[c]:]))


def _landing(G: GroupTable, xs: np.ndarray) -> np.ndarray:
    """land[i, c] is c after 2^L >= n steps c -> [c, xs[i]], so it lies on its tail's cycle."""
    land = _comm_grid(G, xs, np.arange(G.n))
    row_starts = np.arange(len(xs))[:, None] * G.n  # a flat gather beats take_along_axis
    for _ in range((G.n - 1).bit_length()):
        land = land.ravel()[land + row_starts]
    return land


def sinks(G: GroupTable, elements: Optional[Iterable[int]] = None) -> np.ndarray:
    """Read-only bool matrix of the sinks of the given elements (default: all of G), one row each, ascending."""
    n, lab = G.n, G.class_labels
    targets = ElementSet.full(n) if elements is None else ElementSet.of(n, elements)
    cols, S = np.flatnonzero(targets.mask), G.commutators.mask
    if not S[cols].all():  # S holds every walk's values: the targets' classes and the commutators
        S = S | classes_meeting(G, targets).mask
    reps = class_representatives(G)
    central = np.zeros(n, dtype=bool)
    central[reps] = _commuting(G, reps, np.flatnonzero(S))
    C = np.flatnonzero(central[lab])  # C_G(S), a class union
    # least[x] = min over z in C of z x, the least element of the coset C x
    least = reduce(np.minimum, (G.table[C[zs]].min(axis=0) for zs in _blocks(len(C), n * G.table.itemsize)))
    directions = np.flatnonzero(least == np.arange(n))
    found = np.zeros(len(cols) * n, dtype=bool)
    # a block's grid rows with _comm_grid's transients, and 48 bytes a walker: about BLOCK_ENTRIES bytes
    for block in _blocks(len(directions), n * (8 + 2 * G.table.itemsize) + 48 * len(cols)):
        xs = directions[block]
        flat_steps = _comm_grid(G, xs, np.arange(n)).ravel()
        # walker (i, t) reads flat_steps[i * n + c] and sets found[t * n + c]
        rows, who = np.repeat(np.arange(len(xs)) * n, len(cols)), np.tile(np.arange(len(cols)) * n, len(xs))
        cur = saved = np.tile(cols.astype(flat_steps.dtype), len(xs))
        on_cycle, step, reset = [], 0, 0
        while len(cur):
            cur, step = flat_steps[rows + cur], step + 1
            met = cur == saved
            if met.any():  # these walkers are on their cycles, all of length step - reset
                on_cycle.append((step - reset, rows[met], who[met], cur[met]))
                keep = ~met
                rows, who, cur, saved = rows[keep], who[keep], cur[keep], saved[keep]
            if step & (step - 1) == 0:  # Brent's reset
                saved, reset = cur, step
        for length, rows, who, cur in on_cycle:  # once round each cycle from the saved points
            for _ in range(length):
                found[who + cur] = True
                cur = flat_steps[rows + cur]
    found.setflags(write=False)
    return found.reshape(-1, n)  # a view, so read-only too


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


def is_left_engel(G: GroupTable, x: int) -> bool:
    """Whether every tail in direction x ends in the identity: the functional
    graph of c -> [c, x] has no cycle other than the fixed point at 1."""
    return not _landing(G, np.array([G._check(x)])).any()


def left_engel_set(G: GroupTable) -> ElementSet:
    """The left Engel elements, from one landing pass over the class minima."""
    reps = class_representatives(G)
    found = np.zeros(G.n, dtype=bool)
    for rows in _blocks(len(reps), G.n * (8 + 2 * G.table.itemsize)):  # _landing's cost an entry
        found[reps[rows]] = ~_landing(G, reps[rows]).any(axis=1)
    return ElementSet(found[G.class_labels])


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
    return int(sizes.max()), int(sizes.max()) - 1, int(np.flatnonzero(minima)[sizes.argmax()])  # the first maximum
