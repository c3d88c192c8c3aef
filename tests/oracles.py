"""Slow oracles and scalar helpers that only the tests use: the full
associativity audit, the full automorphism and homomorphism laws of a
semidirect product's action, the lattice of normal subgroups, normal
closures, the derived series, two Fitting checks that do not go through
Baer's criterion, and the component-sink bound on direct powers.

The sinks have two oracles here besides ``sinklab.verify.window_sinks``, the
plain window over the steps of ``GroupTable.comm_step``: the landing route
over all n directions (``landing_sinks``), which squares the step grid until
every start has landed on its cycle, and the scalar tail (``commutator_tail``,
a dict walk of c -> [c, x] with ``GroupTable.comm``), whose first direction
in index order to reach each value gives the witnesses (``tail_witnesses``).
``coset_directions`` gives the directions ``engel.sinks`` walks, one per coset
of the centralizer of their values, by scalar loops. ``relabel`` renames a
table's elements, for the checks that results do not depend on the
labelling; ``exponent_by_powers`` is the exponent of G/N by one gather a power,
up to the exponent, the oracle of ``GroupTable.exponent``'s prime-power descent;
``counted_class_labels`` is the class labels by the orbits of a table's own
generators, certified by Burnside's count of commuting pairs, the reference
that ``GroupTable.class_labels``, by the generating set, is held to;
``series_nilpotent`` is nilpotency by a subgroup's own lower central series
in its own table, and ``upper_central_nilpotent`` the nilpotency of G/N by the
upper central series modulo N, the references that ``is_nilpotent``'s count of
p-elements is held to on subgroups and on quotients; ``all_products_subgroup``
is the subgroup test by all |S|^2 products, with no class labels, the
reference that ``is_subgroup``, on a class union's minima, is held to;
``element_order``, ``commute`` and ``conj`` are scalar table reads,
``compose`` and ``inverse`` the permutation products of the scalar closure
oracle, and ``union`` the join of two element sets.
"""

import math
from dataclasses import dataclass

import numpy as np

from sinklab.engel import gamma_values, sinks
from sinklab.errors import InvalidPermutation
from sinklab.families import FamilySpec, build
from sinklab.group import (
    ElementSet, GroupTable, _blocks, _comm_grid, class_representatives, classes_meeting, comm_values, subgroup_closure,
    subgroup_table,
)
from sinklab.perm import Permutation
from sinklab.structure import fitting_subgroup, is_nilpotent


def compose(a: Permutation, b: Permutation) -> Permutation:
    """a then b (left-to-right)."""
    if a.degree != b.degree:
        raise InvalidPermutation("cannot compose permutations of different degree")
    return Permutation(a.degree, tuple(b.image[i - 1] for i in a.image))


def inverse(p: Permutation) -> Permutation:
    img = [0] * p.degree
    for i, j in enumerate(p.image, start=1):
        img[j - 1] = i
    return Permutation(p.degree, tuple(img))


def union(a: ElementSet, b: ElementSet) -> ElementSet:
    return ElementSet(a.mask | b.mask)


def element_order(G: GroupTable, a: int) -> int:
    k, c = 1, G._check(a)
    while c != 0:
        c = G.mul(c, a)
        k += 1
    return k


def exponent_by_powers(G: GroupTable, N: ElementSet | None = None) -> int:
    """The exponent of G/N for a normal subgroup N (default the trivial one): the lcm over a of
    the least k with a^k in N, with c = a^k for all a at once until c is in N."""
    stop = ElementSet.trivial(G.n) if N is None else ElementSet.of(G.n, N)
    a = c = np.arange(G.n)
    k = e = 1
    while len(a):
        live = ~stop.mask[c]
        e = e if live.all() else math.lcm(e, k)
        a, c, k = a[live], G.table[c[live], a[live]], k + 1
    return e


def series_nilpotent(G: GroupTable, S: ElementSet) -> bool:
    """Whether the subgroup S is nilpotent: whether the kept lower central series of S's own
    subgroup table ends at 1."""
    return len(subgroup_table(G, S)[0].lower_central[-1]) == 1


def upper_central_nilpotent(G: GroupTable, N: ElementSet) -> bool:
    """Whether G/N is nilpotent, for a normal subgroup N: whether the upper central series modulo N
    reaches G (Robinson, A Course in the Theory of Groups, 5.1). Z_0 = N, and Z_i+1 is the union of
    the classes whose least element m has [m, g] = v[y] = m^-1 y in Z_i for every y = m^g in m's class:
    all classes but those meeting the y with v[y] outside Z_i; Z_i is normal, so in Z_i+1."""
    v, Z = G.table[G.inverse[G.class_labels], np.arange(G.n)], ElementSet.of(G.n, N).mask
    while not Z.all():
        grown = Z | ~classes_meeting(G, ElementSet(~Z[v])).mask
        if (grown == Z).all():
            return False
        Z = grown
    return True


def all_products_subgroup(G: GroupTable, S: ElementSet) -> bool:
    """Whether S holds 1 and every product of two of its members, in blocks of rows of the
    |S| x |S| grid: no class labels are read."""
    mask = ElementSet.of(G.n, S).mask
    mem = mask.nonzero()[0]
    rows = _blocks(len(mem), len(mem) * (G.table.itemsize + 1))  # a grid and a mask an entry
    return bool(mask[0]) and all(mask[G.table[np.ix_(mem[r], mem)]].all() for r in rows)


def commute(G: GroupTable, a: int, b: int) -> bool:
    return G.mul(a, b) == G.mul(b, a)


def conj(G: GroupTable, a: int, b: int) -> int:
    """a^b = b^-1 a b."""
    return G.mul(G.mul(G.inv(b), a), b)


def counted_class_labels(G: GroupTable) -> np.ndarray:
    """label[c], the least element of c's orbit under conjugation by G.generators, by min-label
    propagation with pointer jumping. Such orbits refine the classes, and by Burnside's lemma there
    are (commuting pairs) / n classes, so equal counts certify the labels; the pairs are counted as
    sum |orbit| * |C(orbit minimum)|. When the counts differ, and only then, the generators are
    closed, so that the error names generators that generate a proper subgroup and its order."""
    n, t, idx = G.n, G.table, np.arange(G.n)
    gens = np.asarray(G.generators, dtype=np.int64)[:, None]
    conj = t[t[G.inverse[gens], idx], gens]  # conj[i, c] = c^generators[i]
    lab, prev = idx, -1
    while (lab != prev).any():
        prev, lab = lab, np.minimum(lab, lab[conj].min(axis=0, initial=n))
        lab = lab[lab]
    reps, orbit = (lab == idx).nonzero()[0], np.bincount(lab)  # |C(c)| is constant on orbits
    blocks = (reps[b] for b in _blocks(len(reps), n * (2 * t.itemsize + 1)))  # two grids and a mask
    commuting = sum(np.count_nonzero(t[r] == t[:, r].T, axis=1) @ orbit[r] for r in blocks)
    if len(reps) * n != commuting:  # on this path only, close the generators to name the cause
        order = len(subgroup_closure(G, G.generators)) if G.generators else 1
        cause = f": generators {G.generators} generate a subgroup of order {order}, not {n}" if order < n else ""
        raise InvalidPermutation("conjugation by the generators does not give the conjugacy classes" + cause)
    return lab


def normal_closure(G: GroupTable, seed) -> ElementSet:
    """Smallest normal subgroup of G containing the seed elements: the closure of their classes."""
    return subgroup_closure(G, classes_meeting(G, ElementSet.of(G.n, seed)))


@dataclass(frozen=True)
class TailTrace:
    """One commutator tail: iterate c -> [c, x] from g until the first repeat."""

    start: int
    direction: int
    preperiod: tuple[int, ...]
    cycle: tuple[int, ...]  # in iteration order, beginning at the first repeated value


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


def tail_witnesses(G: GroupTable, g: int) -> dict[int, tuple[int, int]]:
    """witnesses[z] = (x, n): the first direction x, in index order, whose tail
    from g cycles through z, and n the preperiod length plus z's offset in the
    cycle, or the cycle length when that is 0."""
    witnesses: dict[int, tuple[int, int]] = {}
    for x in G.elements():
        tail = commutator_tail(G, g, x)
        for offset, z in enumerate(tail.cycle):
            if z not in witnesses:
                n = len(tail.preperiod) + offset
                witnesses[z] = (x, n if n >= 1 else len(tail.cycle))
    return witnesses


def associativity_audit(G: GroupTable) -> None:
    """Full O(n^3) associativity check. Intended for n <= a few hundred."""
    t = G.table
    left = t[t, :]  # left[a, b, c] = (a*b)*c
    right = t[:, t]  # right[a, b, c] = a*(b*c)
    if not np.array_equal(left, right):
        raise InvalidPermutation("associativity audit failed")


def non_automorphisms(N: GroupTable, action) -> set[int]:
    """The h whose action[h] breaks N's multiplication somewhere on all of
    N x N: the full check, |H| |N|^2 entries."""
    act = np.asarray(action, dtype=np.intp)
    return {h for h, a in enumerate(act) if (a[N.table] != N.table[np.ix_(a, a)]).any()}


def non_homomorphism_pairs(H: GroupTable, action) -> set[tuple[int, int]]:
    """The pairs (h1, h2) of all of H x H with action[h1*h2] other than
    action[h1]-then-action[h2]: the full check, |H|^2 |N| entries."""
    act = np.asarray(action, dtype=np.intp)
    return {(h1, h2) for h1 in range(H.n) for h2 in range(H.n) if (act[H.table[h1, h2]] != act[h2][act[h1]]).any()}


def normal_subgroups(G: GroupTable) -> list[ElementSet]:
    """All normal subgroups, as joins of single-element normal closures.

    Every normal subgroup is the join of the normal closures of its elements,
    so closing the atoms under pairwise join enumerates the whole lattice.
    Intended for small groups; cost grows with the lattice size.
    """
    atoms = {normal_closure(G, [x]) for x in class_representatives(G)}  # x = 0 gives the trivial one
    found, frontier = set(atoms), set(atoms)
    while frontier:
        frontier = {subgroup_closure(G, union(a, b)) for a in frontier for b in atoms} - found
        found |= frontier
    return sorted(found, key=lambda N: (len(N), list(N)))


def derived_series(G: GroupTable) -> tuple[ElementSet, ...]:
    """G, then [T, T] after each term T, down to the first repeat."""
    terms = [ElementSet.full(G.n)]
    while len(terms) < 2 or terms[-1] != terms[-2]:
        terms.append(subgroup_closure(G, comm_values(G, terms[-1], terms[-1])))
    return tuple(terms)


def fitting_maximality_check(G: GroupTable) -> bool:
    """Certify maximality: adjoining the normal closure of any outside element
    to the Fitting subgroup must break nilpotency."""
    F = fitting_subgroup(G)
    for x in class_representatives(G):  # F is normal, so a class lies in F or outside it
        if x in F:
            continue
        if is_nilpotent(G, subgroup_closure(G, union(F, normal_closure(G, [x])))):
            return False
    return True


def fitting_via_normal_closures(G: GroupTable) -> ElementSet:
    """Independent Fitting construction: product of all nilpotent normal
    closures of single elements, one per conjugacy class since the closure
    depends only on the class."""
    pieces = ElementSet.trivial(G.n)
    for x in class_representatives(G):
        ncl = normal_closure(G, [x])
        if is_nilpotent(G, ncl):
            pieces = union(pieces, ncl)
    return subgroup_closure(G, pieces)


def component_sink_size(p: int, s: int) -> int:
    """|sink(w)| - 1 in (C_p : C2)^s, asserting the component lemma's steps.

    In the fold-left power, x in component i (1-based) is x * f^(s - i), f
    the factor's order. In the factor, 2 is the first nontrivial element of
    C_p and 1 inverts it. So v_i and alpha_i are 2 and 1 put in component i,
    and w is the product of the v_i. w is a weight-2 value, and since
    c -> [c, alpha_i] is a function, the tails of w and v_i in direction
    alpha_i agree once their first steps do, and the tail of [v_i, alpha_i]
    never reaches 1. So sink(w) keeps a value in each component.
    """
    factor = FamilySpec("inversion_extension", (p, 1))
    f, G = build(factor).n, build(FamilySpec("direct_power", (s,), base=factor))
    strides = [f ** (s - i) for i in range(1, s + 1)]
    w = 0
    for stride in strides:
        w = G.mul(w, 2 * stride)
    assert w in gamma_values(G, 2)
    for stride in strides:
        v, alpha = 2 * stride, stride
        tail = commutator_tail(G, G.comm(v, alpha), alpha)
        assert G.comm(w, alpha) == G.comm(v, alpha)
        assert 0 not in tail.preperiod + tail.cycle
    return int(sinks(G, [w]).sum()) - 1  # the identity is in every sink


def landing(G: GroupTable, xs: np.ndarray) -> np.ndarray:
    """land[i, c] is c after 2^L >= n steps c -> [c, xs[i]], so it lies on its tail's cycle."""
    land = _comm_grid(G, xs, np.arange(G.n))
    row_starts = np.arange(len(xs))[:, None] * G.n  # a flat gather beats take_along_axis
    for _ in range((G.n - 1).bit_length()):
        land = land.ravel()[land + row_starts]
    return land


def landing_sinks(G: GroupTable, elements=None) -> np.ndarray:
    """Sinks by the landing route, as engel.sinks gives them (row i: the i-th
    target, ascending): per direction, the walk from each target's landing
    point goes once round its cycle (every landing point is on one)."""
    n = G.n
    cols = np.arange(n) if elements is None else np.flatnonzero(ElementSet.of(n, elements).mask)
    found = np.zeros(len(cols) * n, dtype=bool)
    for xs in _blocks(n, n):
        flat_steps, land = _comm_grid(G, xs, np.arange(n)).ravel(), landing(G, xs)
        # walk (i, t) reads flat_steps[i * n + c] and sets found[t * n + c]
        rows, who = np.divmod(np.arange(len(xs) * len(cols)), len(cols))
        rows, who = rows * n, who * n
        start = land[:, cols].ravel()
        cur = start
        while len(cur):
            found[who + cur] = True
            cur = flat_steps[rows + cur]
            moving = cur != start
            rows, who, cur, start = rows[moving], who[moving], cur[moving], start[moving]
    return found.reshape(-1, n)


def walk_values_centralizer(G: GroupTable, targets) -> tuple[list[int], list[int]]:
    """(S, C): S the commutators [x, g] and the targets' conjugates, which
    hold every value of a walk from a target, and C = {z : z s = s z for all
    s in S}, by scalar loops over G.comm, conj and commute."""
    S = {G.comm(x, g) for x in G.elements() for g in G.elements()}
    S |= {conj(G, t, h) for t in targets for h in G.elements()}
    return sorted(S), [z for z in G.elements() if all(commute(G, z, s) for s in S)]


def coset_directions(G: GroupTable, targets) -> list[int]:
    """The least element of each coset C x of C = C_G(S) (walk_values_centralizer), ascending."""
    C = walk_values_centralizer(G, targets)[1]
    return sorted({min(G.mul(z, x) for z in C) for x in G.elements()})


def relabel(G: GroupTable, pi: np.ndarray) -> GroupTable:
    """The same group with element a renamed pi[a]: T'[pi a, pi b] = pi T[a, b]."""
    table = np.empty_like(G.table)
    table[np.ix_(pi, pi)] = pi[G.table]
    inverse = np.empty_like(G.inverse)
    inverse[pi] = pi[G.inverse]
    labels = [""] * G.n
    for a, label in enumerate(G.labels):
        labels[pi[a]] = label
    return GroupTable(G.n, table, inverse, labels, [int(pi[g]) for g in G.generators], name=G.name)
