"""Finite groups as dense multiplication tables, plus exact subgroup primitives.

Element 0 is always the identity. Commutators are left-normed, [a, b] =
a^-1 b^-1 a b (over index arrays by _comm), and a^b = b^-1 a b. Every field
of a table but name, which nothing certifies, is fixed by its constructor,
and every operation here is a pure function of its inputs. There is one
constructor, GroupTable(...), and it certifies each table once, where it is
made, by validate_table's O(n) laws (sorts=False): every builder's table is a
Latin square by construction (see below), so the O(n^2 log n) sorts are left
to validate_table(G), the full oracle.

A subset of a group is an ElementSet, a read-only boolean mask over the
element indices. Subgroup primitives are table gathers over index arrays,
and pass their sets through ElementSet.of, which rejects wrong-order sets.
Every pass over a table runs in blocks of rows of about BLOCK_ENTRIES bytes
(see _blocks): a pass's block width is the bytes that one of its rows
allocates, its grids, masks and int64 indices together, and the row gather
of a product grid that gathers rows first (_product_grid), so a build peaks
at its table, a closure's tree and O(BLOCK_ENTRIES) bytes of transients.

GroupTable.generating_set (a tuple, kept) generates G: every builder but the
quotient keeps the generators it hands GroupTable(...) (_generated), which
generate its table by construction (a closure's own, 1 for cyclic n, the sets
a product's action is checked on, a subgroup's greedy set); any other table's
generators are closed and extended until they generate (_generate) on first
use. Conjugation by a generating set has the classes as its orbits (Holt, Eick
& O'Brien 4.1), so one certificate serves every reader: GroupTable.class_labels
maps each element to the least element of its class by min-label propagation
over it, with pointer jumping (lab = lab[lab]), C_G(G) is its centralizer
(_coset_minima), and a product checks its action on its factors' kept sets.
Normality is then H.mask == H.mask[label], and comm_values of a class union
against all of G is one gather over it from its class minima m ([m, g] =
m^-1 m^g, m^g runs over m's class); any other pair of sets takes a grid.

Permutation groups are closed by close_generators, which grows a Schreier
tree (Holt, Eick & O'Brien, Handbook of Computational Group Theory, 2005,
sec. 4.1) breadth first, in rounds of numpy gathers over the last round's image
rows in blocks of about BLOCK_ENTRIES bytes, with one dict from row bytes to
element index, and keeps its right Cayley maps and rounds, not the rows.
_from_tree, the one tail from a tree to a table (families hands it dihedral
and elementary abelian trees in closed form), reads the tree parents off the
maps, and one walk down the tree makes the left maps, which fill the table by
rows, each from its parent's row; the same walk rebuilds the rows when a perm
is read or sought. _perm_table, the one tail of _from_tree and cyclic n, lays
out a permutation table's perms and cycle-notation labels: no build makes
them, as a LazyList makes item i only when read.
GroupTable.lower_central (G's lower central series; a trivial term repeats
uncomputed), commutators (the values [x, g] over G; comm_values(G, G, G)) and
commutator_cosets (the least elements of the cosets of their centralizer) are
also made on first use and kept, for gamma_values, both series and the walks.

Why each builder's table is a Latin square (Holt, Eick & O'Brien 4.1;
Robinson, A Course in the Theory of Groups, 1.5): a searched closure's
elements are distinct permutations, keyed by their full rows and closed under
right multiplication by the generators, and its table is filled from exact
Cayley maps; a closed-form tree's elements are distinct normal forms, and its
right Cayley maps come from exact integer arithmetic; cyclic n is addition
mod n; a product's factors are tables of this module and every action entry
is checked to be a bijection of N; _induced restricts G's table to a subgroup
that _generate certified, or to the cosets of a normal subgroup that is_normal
checked. A wrong table can then come only from a bug in a fill, which is what
validate_table(G) is run to find.
Product tables come from one builder, semidirect_product, which checks the
order cap before anything else; direct_product is its trivial-action case.
Subgroups and quotients come from _induced. Every n x n table comes from
_new_table: _check_memory raises CapExceeded first when the table, what its
build holds (a closure's image rows, which a perm read rebuilds; its search
also counts their byte keys) and 16 * BLOCK_ENTRIES bytes exceed physical memory,
which _memory_budget reads once per process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    CapExceeded,
    IndexOutOfRange,
    InvalidPermutation,
    NotAHomomorphism,
    NotAnAutomorphism,
    NotASubgroup,
    NotNormal,
)
from .perm import Permutation, format_cycles

DEFAULT_ORDER_CAP = 10_000
BLOCK_ENTRIES = 1 << 22  # bytes of transients per block of every blocked pass


def _index_dtype(n: int):
    return np.uint16 if n <= np.iinfo(np.uint16).max else np.uint32


class LazyList(Sequence):
    """A read-only list of n items: item i is make(i), made on its first read and then kept."""

    def __init__(self, n: int, make: Callable[[int], object]):  # make holds the data it reads, never a GroupTable
        self.n, self.make, self.made = n, make, {}

    def __len__(self) -> int:
        return self.n

    def _item(self, i: int):
        return self.made[i] if i in self.made else self.made.setdefault(i, self.make(i))

    def __getitem__(self, i):
        at = range(self.n)[i]  # an int, or a range for a slice; IndexError past either end
        return [self._item(j) for j in at] if isinstance(i, slice) else self._item(at)

    def __eq__(self, other) -> bool:
        return list(self) == other


class PermRows(LazyList):
    """Perm i is made from row i of rows(), the 0-based image rows; index(perm) compares rows and makes no perm."""

    def __init__(self, n: int, degree: int, rows: Callable[[], np.ndarray]):
        points = list(range(1, degree + 1))  # the perms share these ints
        super().__init__(n, lambda i: Permutation(degree, tuple(map(points.__getitem__, rows()[i].tolist()))))
        self.rows = rows

    def index(self, perm: Permutation) -> int:
        rows, want = self.rows(), np.array(perm.image) - 1
        for i in np.flatnonzero(rows[:, 0] == want[0]).tolist():  # the rows that agree with perm at point 1
            if np.array_equal(rows[i], want):
                return i
        raise ValueError(f"{perm} is not an element")


@dataclass(eq=False)
class GroupTable:
    """A finite group materialized as a full n x n multiplication table;
    equal and hashed by identity, as tables are never compared by value."""

    n: int
    table: np.ndarray  # (n, n), table[a, b] = a * b
    inverse: np.ndarray  # (n,)
    labels: Sequence[str]  # a LazyList from every builder: label i made when read
    generators: list[int]
    perms: Optional[Sequence[Permutation]] = None  # set when built from a permutation action
    name: str = ""

    def __post_init__(self):
        self.table.setflags(write=False)
        self.inverse.setflags(write=False)
        validate_table(self, sorts=False)  # the O(n) laws: every builder's table is Latin by construction

    def _check(self, a: int) -> int:
        if not 0 <= a < self.n:
            raise IndexOutOfRange(f"element index {a} out of range for group of order {self.n}")
        return a

    def mul(self, a: int, b: int) -> int:
        return int(self.table[self._check(a), self._check(b)])

    def inv(self, a: int) -> int:
        return int(self.inverse[self._check(a)])

    def comm(self, a: int, b: int) -> int:
        """[a, b] = a^-1 b^-1 a b."""
        t = self.table
        self._check(a), self._check(b)
        return int(t[t[t[self.inverse[a], self.inverse[b]], a], b])

    def power(self, a: int | np.ndarray, e: int) -> int | np.ndarray:
        """a**e for any integer e, by square-and-multiply on the table (_power); for
        an index array a, the array of powers, elementwise."""
        scalar = np.ndim(a) == 0
        if scalar:
            self._check(a)
        if e < 0:
            a, e = self.inverse[a], -e
        result = _power(self, a, e)
        return int(result) if scalar else result

    def exponent(self, N: ElementSet | None = None) -> int:
        """The exponent of G/N for a normal subgroup N (default the trivial one), by a prime-power
        descent over the class minima (Cohen, A Course in Computational Algebraic Number Theory,
        1993, Alg. 1.4.3): orders mod N are class invariants and divide m = |G : N|, so for each
        p^k exactly dividing m the minima are raised to m / p^k, then to p until they lie in N, at
        most k times; the p-part of the exponent is p to the most raises. N must be normal, or
        G/N is no group; NotNormal when a descent outlasts its k raises."""
        stop = (ElementSet.trivial(self.n) if N is None else ElementSet.of(self.n, N)).mask
        m, e, reps = self.n // int(np.count_nonzero(stop)), 1, class_representatives(self)
        for p, k in _prime_powers(m):
            c = _power(self, reps, m // p**k)
            for _ in range(k):
                c = c[~stop[c]]
                if not len(c):
                    break
                c, e = _power(self, c, p), e * p
            if len(c) and not stop[c].all():
                raise NotNormal("exponent mod N requires a normal subgroup N")
        return e

    def elements(self) -> range:
        return range(self.n)

    def comm_step(self, x: int) -> np.ndarray:
        """Vectorized map c -> [c, x] over all c, as an index array (see _comm)."""
        return _comm(self, np.arange(self.n), self._check(x))

    @cached_property
    def class_labels(self) -> np.ndarray:
        """label[c] is the least element of c's conjugacy class: its orbit under conjugation by the
        generating_set, which generates G (see the module docstring)."""
        n, t, idx = self.n, self.table, np.arange(self.n)
        gens = np.asarray(self.generating_set, dtype=np.int64)[:, None]
        conj = t[t[self.inverse[gens], idx], gens]  # conj[i, c] = c^generating_set[i]
        lab, prev = idx, -1
        while (lab != prev).any():
            prev, lab = lab, np.minimum(lab, lab[conj].min(axis=0, initial=n))
            lab = lab[lab]
        lab.setflags(write=False)
        return lab

    @cached_property
    def generating_set(self) -> tuple[int, ...]:
        """The generators, closed once and extended greedily by the lowest-index element outside the
        running closure until they generate G; made on first use and kept, and read by class_labels,
        C_G(G) and every product that takes G as a factor. A builder keeps its own generators here, as
        they generate its table by construction (_generated)."""
        return tuple(_generate(self, np.ones(self.n, dtype=bool), list(self.generators)))

    @cached_property
    def commutators(self) -> ElementSet:
        """The values [x, g] over all x and g in G (see comm_values); made on first use and kept."""
        return _comm_values_against_all(self, np.ones(self.n, dtype=bool))

    @cached_property
    def commutator_cosets(self) -> np.ndarray:
        """least[x], the least element of C x for C the centralizer of the commutators; made on first use and kept."""
        return _coset_minima(self, self.commutators.mask)

    @cached_property
    def lower_central(self) -> tuple[ElementSet, ...]:
        """G, then [T, G] after each term T, down to the first repeat, which is the stable term; a
        trivial term repeats uncomputed, as [1, G] = 1. Made on first use and kept."""
        terms = [ElementSet.full(self.n)]
        while len(terms) < 2 or terms[-1] != terms[-2]:
            T = terms[-1]
            terms.append(T if len(T) == 1 else subgroup_closure(self, comm_values(self, T, terms[0])))
        return tuple(terms)

    def __repr__(self) -> str:
        return f"GroupTable(n={self.n}, name={self.name!r})"


@dataclass(frozen=True, eq=False)
class ElementSet:
    """A subset of the elements of a group of order n, as a read-only mask."""

    mask: np.ndarray  # (n,) bool

    def __post_init__(self):
        self.mask.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.mask)

    @staticmethod
    def of(n: int, members: "ElementSet | Iterable[int]") -> "ElementSet":
        if isinstance(members, ElementSet):
            if members.n != n:
                raise IndexOutOfRange(f"set over {members.n} elements used in a group of order {n}")
            return members
        if isinstance(members, np.ndarray) and members.dtype == bool:  # np.fromiter would read True as index 1
            raise IndexOutOfRange("a boolean mask is not a set of members: pass indices, or ElementSet(mask)")
        idx = np.fromiter(members, dtype=np.int64)
        bad = idx[(idx < 0) | (idx >= n)]
        if len(bad):
            raise IndexOutOfRange(f"member {bad[0]} out of range for owner order {n}")
        mask = np.zeros(n, dtype=bool)
        mask[idx] = True
        return ElementSet(mask)

    @staticmethod
    def full(n: int) -> "ElementSet":
        return ElementSet(np.ones(n, dtype=bool))

    @staticmethod
    def trivial(n: int) -> "ElementSet":
        return ElementSet.of(n, [0])

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and bool(self.mask[i])

    def __iter__(self):
        return iter(self.mask.nonzero()[0].tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, ElementSet) and self.n == other.n and bool((self.mask == other.mask).all())

    def __hash__(self) -> int:
        return hash(self.mask.tobytes())


def validate_table(G: GroupTable, sorts: bool = True) -> None:
    """The full oracle of a table: integer entries, shapes, n labels (and perms), generators in range, then
    the Latin-square, identity and inverse laws. Raises on violation. The Latin-square sorts, O(n^2 log n),
    run in blocks of rows and of columns, each block sorted in one reused buffer and compared in the table's
    dtype. GroupTable(...) runs all but the sorts (sorts=False), as every builder's table is Latin by
    construction; validate_table(G) is the tests', CI's and the user's check that it is."""
    n, t, inv = G.n, G.table, G.inverse
    if t.dtype.kind not in "iu" or inv.dtype.kind not in "iu":
        raise InvalidPermutation(f"table and inverse must hold integers, not {t.dtype} and {inv.dtype}")
    if t.shape != (n, n) or inv.shape != (n,):
        raise InvalidPermutation(f"table shape {t.shape} or inverse shape {inv.shape} does not fit order {n}")
    if len(G.labels) != n or (G.perms is not None and len(G.perms) != n):
        raise InvalidPermutation(f"{len(G.labels)} labels, or the perms, do not fit order {n}")
    if not all(0 <= g < n for g in G.generators):
        raise IndexOutOfRange(f"generators {G.generators} out of range for group of order {n}")
    if np.iinfo(t.dtype).max < n - 1:  # then np.arange(n, dtype=t.dtype) wraps
        raise InvalidPermutation(f"multiplication table is not a Latin square: {t.dtype} cannot hold {n - 1}")
    idx, width = np.arange(n, dtype=t.dtype), n * t.itemsize
    if sorts:
        buf = np.empty((len(next(_blocks(n, width))), n), dtype=t.dtype)  # one buffer for the row and the column sorts

        def latin(b: np.ndarray) -> bool:  # sorts b's rows in place, then compares them 64 at a time
            b.sort(axis=1)
            return all((b[lo : lo + 64] == idx).all() for lo in range(0, len(b), 64))

        for rows in _blocks(n, width):
            b, s = buf[: len(rows)], slice(rows[0], rows[-1] + 1)
            b[:] = t[s]
            rows_latin = latin(b)
            for lo in range(0, n, 256):  # columns s as rows, copied contiguous by tiles: the strided view sorts slower
                b[:, lo : lo + 256] = t[lo : lo + 256, s].T
            if not (rows_latin and latin(b)):
                raise InvalidPermutation("multiplication table is not a Latin square")
    if not ((t[0] == idx).all() and (t[:, 0] == idx).all()):
        raise InvalidPermutation("identity law fails: element 0 is not the identity")
    if ((inv < 0) | (inv >= n)).any() or (t[idx, inv] != 0).any() or (t[inv, idx] != 0).any():
        raise InvalidPermutation("inverse law fails")


def close_generators(
    gens: Sequence[Permutation],
    order_cap: int = DEFAULT_ORDER_CAP,
    name: str = "",
) -> GroupTable:
    """Close a permutation generating set into a full group table.

    Elements are indexed in breadth-first discovery order from the identity,
    applying generators in input order; this makes tables reproducible
    byte-for-byte. The generators are checked first to be bijections, which
    makes every product of them one. Each search round composes the last round's image rows with
    every generator, one gather per block, and numbers the new elements in (head, generator)
    order; the search keeps the ids it looks up, rmul[v, i] = p_i * g_v, and the round
    boundaries, and drops its rows and byte keys before _from_tree builds the table from them.
    """
    if not gens:
        raise InvalidPermutation("need at least one generator")
    degree, k = gens[0].degree, len(gens)
    _closure_cap(1, degree, order_cap)
    for g in gens:
        if g.degree != degree:
            raise InvalidPermutation("generators must share one degree")
    step = (np.array([g.image for g in gens]) - 1).astype(_index_dtype(degree))  # step[v, x] = g_v(x), 0-based
    if (np.sort(step, axis=1) != np.arange(degree)).any():  # then every product of them is a bijection too
        raise InvalidPermutation("a generator image is not a bijection")

    def keys(images: np.ndarray) -> list[bytes]:
        return np.ascontiguousarray(images, dtype=step.dtype).view(f"V{step.itemsize * degree}").ravel().tolist()

    frontier = np.arange(degree, dtype=step.dtype)[None, :]  # the identity
    index, held = {keys(frontier)[0]: 0}, 2 * degree * step.itemsize + 48  # held: an element's row and key
    rounds, found = [0], []
    while len(frontier):
        new = []
        # a head's copy, its k candidates and their keys (bytes objects of about 48 bytes plus the row)
        for rows in _blocks(len(frontier), (2 * k + 1) * degree * step.itemsize + 48 * k):
            cand = step[np.arange(k)[None, :, None], frontier[rows][:, None, :]].reshape(-1, degree)
            known = len(index)
            ids = np.array([index.setdefault(b, len(index)) for b in keys(cand)])
            _closure_cap(len(index), degree, order_cap)
            _check_memory(len(index) * held, f"a closure of degree {degree} at {len(index)} elements")
            first, at = np.unique(ids, return_index=True)
            new.append(cand[at[first >= known]])  # the new elements, at their first (head, generator) positions
            found.append(ids)
        rounds.append(rounds[-1] + len(frontier))
        frontier = np.concatenate(new)

    index = None  # the byte keys go before the table
    return _from_tree(step, np.concatenate(found).reshape(-1, k).T, rounds, name)


def _closure_cap(n: int, degree: int, cap: int) -> None:
    """The closure's cap checks at n elements: before anything is allocated, and after each search block."""
    if cap < 1:
        raise CapExceeded("order cap must be at least 1")
    if n > cap:
        raise CapExceeded(f"closure exceeded order cap {cap} (degree {degree})")


def _from_tree(step: np.ndarray, rmul: np.ndarray, rounds: Sequence[int], name: str) -> GroupTable:
    """The table of a closure, from its generators' 0-based image rows step, its right Cayley maps
    rmul[v, i] = p_i * g_v over the elements in breadth-first order, and its round boundaries
    (rounds[r]: the first element of round r, ending with n), from the search or in closed form.

    Element j's tree parent is the least element that some generator takes to j, via the least such
    generator: that is the search's first discovery, as no round before j's previous one reaches j
    by one generator (j would have been found a round earlier) and that round's elements come first.
    Then lmul[v, j] = g_v * p_j = rmul[via[j], lmul[v, parent[j]]] by down, and table[i] =
    table[parent[i]][lmul[via[i]]] by rows, since p_i * p_j = p_parent[i] * (g_via[i] * p_j). An
    inverse is the column holding 0 in its row. The first perm read or lookup rebuilds the image
    rows, p_i = g_via[i] after p_parent[i], by down too, and keeps them (_perm_table). The table is
    Latin by construction, so GroupTable(...) checks its O(n) laws only; validate_table(G) is its oracle.
    """
    (k, n), degree = rmul.shape, step.shape[1]
    first = np.unique(rmul.T, return_index=True)[1]  # first[j]: j's first (element, generator) position
    parent, via = np.divmod(first, k)
    parent[0] = via[0] = 0

    def down(maps: np.ndarray, root: np.ndarray) -> np.ndarray:  # out[i] = maps[via[i]][out[parent[i]]], a round at a time
        out = np.empty((n, len(root)), dtype=maps.dtype)
        out[0] = root
        for lo, hi in zip(rounds[1:], rounds[2:]):
            out[lo:hi] = maps[via[lo:hi, None], out[parent[lo:hi]]]
        return out

    table = _new_table(n, n * degree * step.itemsize)
    lmul = down(rmul, rmul[:, 0]).T  # lmul[v, j] = g_v * p_j
    table[0] = np.arange(n)
    for i, p, v in zip(range(1, n), parent[1:].tolist(), via[1:].tolist()):
        table[i] = table[p][lmul[v]]
    inverse = table.argmin(axis=1).astype(table.dtype)  # the column of 0 in each row, read in place
    rows = cache(lambda: down(step, np.arange(degree)))
    return _perm_table(table, inverse, degree, rows, list(dict.fromkeys(rmul[:, 0].tolist())), name)


def _perm_table(table: np.ndarray, inverse: np.ndarray, degree: int, rows: Callable, gens: list, name: str) -> GroupTable:
    """The GroupTable of a permutation group of this degree, whose 0-based image rows rows() makes:
    perm i and label i, its cycle notation, are made when read (PermRows)."""
    perms = PermRows(len(table), degree, rows)
    labels = LazyList(len(table), lambda i: format_cycles(perms[i]))
    return _generated(GroupTable(len(table), table, inverse, labels, gens, perms, name))


def _generated(G: GroupTable) -> GroupTable:
    """G, its generators kept as its generating_set: a builder's generators generate its table by construction."""
    vars(G)["generating_set"] = tuple(G.generators)
    return G


@cache
def _memory_budget() -> int:
    """Physical memory in bytes, read once per process."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_memory(held: int, what: str) -> None:
    """Raise CapExceeded, naming what, unless held bytes plus blocked transients fit in memory."""
    need, budget = held + 16 * BLOCK_ENTRIES, _memory_budget()
    if need > budget:
        raise CapExceeded(f"{what} needs about {-(-need >> 20)} MiB; memory is {budget >> 20} MiB")


def _new_table(n: int, held: int = 0) -> np.ndarray:
    """An empty n x n table in _index_dtype(n), once it and the held bytes of its build fit in memory."""
    _check_memory(n * n * np.dtype(_index_dtype(n)).itemsize + held, f"a table of order {n}")
    return np.empty((n, n), dtype=_index_dtype(n))


def _power(G: GroupTable, a, e: int) -> np.ndarray:
    """a**e for e >= 0, for an index or elementwise over an index array a, by square-and-multiply on the table."""
    result, base = np.zeros_like(a), a
    while e:
        if e & 1:
            result = G.table[result, base]
        base = G.table[base, base]
        e >>= 1
    return result


def _prime_powers(m: int) -> list[tuple[int, int]]:
    """(p, k) for each prime power p^k that exactly divides m >= 1, by trial division."""
    found, p = [], 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m, k = m // p, k + 1
            found.append((p, k))
        p += 1
    return found + [(m, 1)] if m > 1 else found


def _blocks(n: int, width: int) -> Iterable[np.ndarray]:
    """Consecutive index ranges covering 0..n-1, with rows * width <= BLOCK_ENTRIES
    (or one row a block when a row is wider): width is the bytes that one row
    of the pass allocates."""
    rows = max(1, BLOCK_ENTRIES // max(width, 1))
    for lo in range(0, n, rows):
        yield np.arange(lo, min(n, lo + rows))


def _product_grid(G: GroupTable, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """grid[i, j] = xs[i] * ys[j]: a gather of xs's rows, then of ys's columns, when ys covers a
    quarter of G (_gathers_rows), else one 2-D gather. With ys a quarter of G, rows first took
    0.26-0.53 the time of the 2-D gather for 64 and 512 rows at n = 1000..10000, and 1.3-2.8 times
    it with ys n / 64 (timeit, 2-vCPU Xeon). Rows first allocates len(xs) * n entries, at most 4 grids."""
    return G.table[xs][:, ys] if _gathers_rows(G, ys) else G.table[xs[:, None], ys[None, :]]


def _gathers_rows(G: GroupTable, ys: np.ndarray) -> bool:
    return 4 * len(ys) >= G.n


def _row_gather_bytes(G: GroupTable, ys: np.ndarray) -> int:
    """The bytes of a row of _product_grid(G, xs, ys) beyond its grid: n entries when it gathers rows first."""
    return G.n * G.table.itemsize if _gathers_rows(G, ys) else 0


def _comm(G: GroupTable, c, x) -> np.ndarray:
    """[c, x] = c^-1 x^-1 c x over index arrays c and x broadcast together, by
    three flat gathers on the table through one reused buffer of flat indices:
    it peaks at 8 bytes an entry plus a result in the table's dtype, and numpy's
    fixed iterator buffers for the broadcast and the casts (about 128 KB)."""
    n, flat = G.n, G.table.ravel()
    at = np.multiply(G.inverse[x], n, dtype=np.intp) + c  # x^-1 c
    np.multiply(flat.take(at), n, out=at, dtype=np.intp)
    at += x  # x^-1 c x
    np.add(flat.take(at), np.multiply(G.inverse[c], n, dtype=np.intp), out=at)
    return flat.take(at)


def _comm_grid(G: GroupTable, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """grid[i, j] = [cs[j], xs[i]]."""
    return _comm(G, cs[None, :], xs[:, None])


def _values(G: GroupTable, grid, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Mask of the entries of grid(G, xs, ys), gathered in blocks of xs of
    about BLOCK_ENTRIES bytes at _comm's cost an entry. That covers a product grid's row gather too,
    as it gathers rows only for a quarter of G or more: at most 5 * itemsize bytes a column of ys."""
    found = np.zeros(G.n, dtype=bool)
    for rows in _blocks(len(xs), len(ys) * (8 + 2 * G.table.itemsize)):
        found[grid(G, xs[rows], ys)] = True
    return found


def comm_values(G: GroupTable, left: ElementSet, right: ElementSet) -> ElementSet:
    """The commutator values {[x, g] : x in left, g in right} (not a subgroup): the kept set for G and G,
    one gather over left when left is a class union and right is all of G (_comm_values_against_all),
    else a grid of left by right."""
    lm, rm = ElementSet.of(G.n, left).mask, ElementSet.of(G.n, right).mask
    if lm.all() and rm.all():
        return G.commutators
    if rm.all() and not (lm ^ lm[G.class_labels]).any():
        return _comm_values_against_all(G, lm)
    return ElementSet(_values(G, _comm_grid, rm.nonzero()[0], lm.nonzero()[0]))


def _comm_values_against_all(G: GroupTable, left_mask: np.ndarray) -> ElementSet:
    """{[x, g] : x in the class union left_mask, g in G}, in one gather over it (_class_commutators)."""
    values = np.zeros(G.n, dtype=bool)
    values[_class_commutators(G, left_mask.nonzero()[0])] = True
    return classes_meeting(G, ElementSet(values))


def _class_commutators(G: GroupTable, ys: np.ndarray) -> np.ndarray:
    """v[i] = m^-1 ys[i], m the least element of ys[i]'s class: [m, g] = m^-1 m^g, and m^g runs
    over m's class, so the values [m, g] over g in G are v over m's class."""
    return G.table[G.inverse[G.class_labels[ys]], ys]


def subgroup_closure(G: GroupTable, seed: ElementSet | Iterable[int]) -> ElementSet:
    """Smallest subgroup of G containing the seed elements, grown breadth
    first by right products with the seeds, one gather per round."""
    members = ElementSet.of(G.n, seed).mask.copy()
    gens = members.nonzero()[0]
    if not len(gens):
        raise NotASubgroup("cannot close an empty set")
    members[0] = True
    frontier = members.nonzero()[0]
    while len(frontier):
        new = _values(G, _product_grid, frontier, gens) & ~members
        members |= new
        frontier = new.nonzero()[0]
    return ElementSet(members)


def is_subgroup(G: GroupTable, S: ElementSet) -> bool:
    """Whether S holds 1 and every product of two members: all of G is a subgroup at once, else |S|^2 products."""
    S = ElementSet.of(G.n, S)
    if S.mask.all():
        return True
    mem = S.mask.nonzero()[0]
    return 0 in S and bool(S.mask[_values(G, _product_grid, mem, mem)].all())


def is_normal(G: GroupTable, H: ElementSet) -> bool:
    """Whether the subgroup H is a union of conjugacy classes."""
    if not is_subgroup(G, H):
        raise NotASubgroup("is_normal requires a subgroup")
    return not (H.mask ^ H.mask[G.class_labels]).any()


def _commuting(G: GroupTable, xs: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """Mask over xs of the x with x s = s x for every s in ss, in blocks of xs
    of about BLOCK_ENTRIES bytes at two grids and a mask an entry, plus the
    row gathers of both grids (s x's, when made, is at most 4 of its grids)."""
    found = np.zeros(len(xs), dtype=bool)
    for rows in _blocks(len(xs), len(ss) * (6 * G.table.itemsize + 1) + _row_gather_bytes(G, ss)):
        found[rows] = (_product_grid(G, xs[rows], ss) == _product_grid(G, ss, xs[rows]).T).all(axis=1)
    return found


def centralizer(G: GroupTable, S: ElementSet | Iterable[int]) -> ElementSet:
    """Elements x with x s = s x for every s in S."""
    return ElementSet(_commuting(G, np.arange(G.n), np.flatnonzero(ElementSet.of(G.n, S).mask)))


def _coset_minima(G: GroupTable, S: np.ndarray) -> np.ndarray:
    """least[x], the least element of C x for C = C_G(S), S the mask of a class union (so C is normal, a class
    union); C_G(G) is the centralizer of the generating set."""
    reps, central = class_representatives(G), np.zeros(G.n, dtype=bool)
    central[reps] = _commuting(G, reps, np.array(G.generating_set, dtype=np.intp) if S.all() else S.nonzero()[0])
    C = central[G.class_labels].nonzero()[0]
    least = reduce(np.minimum, (G.table[C[zs]].min(axis=0) for zs in _blocks(len(C), G.n * G.table.itemsize)))
    least.setflags(write=False)
    return least


def class_representatives(G: GroupTable) -> np.ndarray:
    """The least element of each conjugacy class, as an ascending index array."""
    return (G.class_labels == np.arange(G.n)).nonzero()[0]


def classes_meeting(G: GroupTable, S: ElementSet) -> ElementSet:
    """The union of the conjugacy classes that meet S."""
    lab = G.class_labels
    return ElementSet(np.bincount(lab[ElementSet.of(G.n, S).mask], minlength=G.n)[lab] > 0)


def _induced(G: GroupTable, elems: np.ndarray, local: np.ndarray, generators: list[int], name: str) -> GroupTable:
    """The group on ascending elems, with local[elems[i]] = i: table[i, j] = local[elems[i] * elems[j]]
    in row blocks at a grid and local's gather an entry, plus the grid's row gather; inverses and
    labels read at elems."""
    table = _new_table(len(elems))
    for rows in _blocks(len(elems), len(elems) * (G.table.itemsize + local.itemsize) + _row_gather_bytes(G, elems)):
        table[rows] = local[_product_grid(G, elems[rows], elems)]
    labels = LazyList(len(elems), lambda i, labels=G.labels: labels[elems[i]])
    return GroupTable(len(elems), table, local[G.inverse[elems]].astype(table.dtype), labels, generators, name=name)


def quotient(G: GroupTable, N: ElementSet) -> tuple[GroupTable, list[int]]:
    """Coset table of G/N plus the projection map element -> coset index.

    Cosets are indexed by ascending minimal representative, so the identity
    coset is 0 and the result is deterministic. G/1 is G itself.
    """
    if not is_normal(G, N):  # raises NotASubgroup unless N is a subgroup
        raise NotNormal("quotient requires a normal subgroup")
    ns = np.flatnonzero(N.mask)
    if len(ns) == 1:
        return G, list(range(G.n))
    blocks = _blocks(G.n, len(ns) * G.table.itemsize + _row_gather_bytes(G, ns))  # a grid an entry, and its row gather
    minima = np.concatenate([_product_grid(G, xs, ns).min(axis=1) for xs in blocks])
    reps, projection = np.unique(minima, return_inverse=True)
    gens = list(dict.fromkeys(int(projection[g]) for g in G.generators if projection[g]))
    return _induced(G, reps, projection, gens, f"{G.name}/N" if G.name else ""), projection.tolist()


def direct_product(A: GroupTable, B: GroupTable, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Direct product A x B: the semidirect product with the trivial action,
    so pairs are ordered A-major: index (a, b) = a*|B| + b."""
    G = semidirect_product(A, B, np.arange(A.n)[None].repeat(B.n, axis=0), order_cap)
    G.name = f"{A.name}x{B.name}" if A.name and B.name else ""
    return G


def semidirect_product(
    N: GroupTable,
    H: GroupTable,
    action: Sequence[Sequence[int]],
    order_cap: int = DEFAULT_ORDER_CAP,
) -> GroupTable:
    """Semidirect product N x| H for an action of H on N by automorphisms.

    action[h] is the permutation of N-indices induced by h (a list of rows or
    an (|H|, |N|) integer array). Composition reads
    left-to-right, consistent with the permutation convention: action[h1*h2]
    must equal action[h1] followed by action[h2]. In the product, conjugation
    by (0, h) then moves N exactly as action[h]. The order cap is checked
    first, then the automorphism and homomorphism conditions, on generating
    sets S of N and T of H: a(x s) = a(x) a(s) for all x and s in S gives
    a(x y's) = a(x y') a(s) = a(x) a(y') a(s), and action[h1 t] against
    action[h1]-then-action[t] for all h1 and t in T likewise. Pairs are
    ordered N-major: index (a, h) = a*|H| + h, so the identity (0, 0) is
    element 0. The generating sets are each factor's kept GroupTable.generating_set
    (no closure for a builder's factor), and the product keeps their union as its own
    (_generated), as it generates N x| H. The table is filled in blocks of
    N's elements a, each block's N part by one take, N.table[a].take(act[H.inverse],
    axis=1), the (|a|, |H|, |N|) array of N.table[a, act[h^-1](a2)] for the rows
    (a, h), then in the table's dtype: by columns when |H| <= 8 (243 x 2, the whole
    fill: 0.21 ms, against 0.90 by the broadcast add; 2-vCPU Xeon), else by one
    broadcast add (24 x 24: 0.13 ms, against 0.44 by columns).
    """
    n = N.n * H.n
    if n > order_cap:
        raise CapExceeded(f"product order {n} exceeds cap {order_cap}")
    if len(action) != H.n:
        raise NotAHomomorphism(f"action has {len(action)} entries for |H| = {H.n}")
    if any(len(a) != N.n for a in action):
        raise NotAnAutomorphism("each action entry must be a permutation of N's indices")
    act = np.array(action, dtype=np.int64)
    if not np.array_equal(np.sort(act, axis=1), np.broadcast_to(np.arange(N.n), (H.n, N.n))):
        raise NotAnAutomorphism("action entries must be bijections on N")
    act = act.astype(_index_dtype(N.n))  # the checks below gather in N's index dtype
    gens_n, gens_h = N.generating_set, H.generating_set  # the product's generators are the sets checked
    S, width = np.array(gens_n, dtype=np.intp), 2 * act.itemsize + 1  # two grids and a mask an entry
    for hs in _blocks(H.n, N.n * len(S) * width):
        a = act[hs]  # bad[i]: a[i](x*s) != a[i](x) * a[i](s) for some x and generator s
        bad = (a[:, N.table[:, S]] != N.table[a[:, :, None], a[:, S][:, None, :]]).any(axis=(1, 2))
        if bad.any():
            raise NotAnAutomorphism(f"action of h={hs[bad.argmax()]} does not preserve N's multiplication")
    T = np.array(gens_h or [0], dtype=np.intp)  # [0]: action[0] = id when H = 1
    for h1 in _blocks(H.n, len(T) * N.n * width):
        # bad[i, j]: action[h1*T[j]] != action[T[j]] applied after action[h1]
        bad = (act[H.table[h1[:, None], T]] != act[T[:, None], act[h1][:, None, :]]).any(axis=2)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise NotAHomomorphism(f"action[h1*h2] != action[h1]-then-action[h2] for h1={h1[i]}, h2={T[j]}")

    table = _new_table(n)
    acts, ht = act[H.inverse], H.table.astype(table.dtype)  # acts[h] = act[h^-1]
    # each a in a block holds |H| x |N| entries three times: the take's result, its cast and its product by |H|
    for a in _blocks(N.n, H.n * N.n * (N.table.itemsize + 2 * table.itemsize)):
        # (a1, h1)(a2, h2) = (a1 * act[h1^-1](a2), h1 h2), so that a2^(0,h) = act[h](a2).
        # Row (a, h) as an |N| x |H| grid: na[a, h, a2] * |H| + H.table[h, h2], all below n.
        na = N.table[a[0] : a[-1] + 1].take(acts, axis=1).astype(table.dtype) * H.n
        grid = table[a[0] * H.n : (a[-1] + 1) * H.n].reshape(len(a), H.n, N.n, H.n)
        if H.n <= 8:  # along the long axis: one strided column of the grid per h2
            for j in range(H.n):
                np.add(na, ht[:, j, None], out=grid[..., j])
        else:
            np.add(na[..., None], ht[:, None, :], out=grid)
    inverse = act[:, N.inverse].T.astype(np.int64) * H.n + H.inverse  # inverse[a, h] = (act[h](a^-1), h^-1)
    return _generated(GroupTable(
        n=n,
        table=table,
        inverse=inverse.ravel().astype(table.dtype),
        labels=LazyList(n, lambda i, nl=N.labels, hl=H.labels, m=H.n: f"({nl[i // m]} {hl[i % m]})"),
        generators=[a * H.n for a in gens_n] + [int(h) for h in gens_h],
        name=f"{N.name}:{H.name}" if N.name and H.name else "",
    ))


def subgroup_table(G: GroupTable, S: ElementSet) -> tuple[GroupTable, list[int]]:
    """Reindex a subgroup as its own GroupTable; returns (table, embedding).

    embedding[i] is the G-index of the subgroup's element i. Elements keep
    ascending G-index order, so 0 stays the identity. All of G is G itself.
    Its generators are S's greedy generating set, which certifies S (_generate).
    """
    mask = ElementSet.of(G.n, S).mask
    if mask.all():
        return G, list(range(G.n))
    gens, mem, local = _generate(G, mask, []), np.flatnonzero(mask), np.cumsum(mask) - 1  # g in S: cumsum - 1
    return _generated(_induced(G, mem, local, local[gens].tolist(), f"{G.name}<sub>" if G.name else "")), mem.tolist()


def _generate(G: GroupTable, S: np.ndarray, gens: list[int]) -> list[int]:
    """gens, extended by the least member of the mask S outside their closure until the closure
    covers S; NotASubgroup as soon as a closure leaves S. So S is a subgroup exactly when this
    returns: a closure inside S that covers S is S."""
    covered = subgroup_closure(G, gens) if gens else ElementSet.trivial(G.n)
    while not (covered.mask & ~S).any():
        if (covered.mask == S).all():
            return gens
        gens = [*gens, int((S & ~covered.mask).argmax())]
        covered = subgroup_closure(G, gens)
    raise NotASubgroup("set is not closed under multiplication")
