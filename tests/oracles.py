"""Slow oracles that only the tests use: the full associativity audit and
the lattice of normal subgroups."""

import numpy as np

from sinklab.errors import InvalidPermutation
from sinklab.group import ElementSet, GroupTable, class_representatives, normal_closure, subgroup_closure


def associativity_audit(G: GroupTable) -> None:
    """Full O(n^3) associativity check. Intended for n <= a few hundred."""
    t = G.table
    left = t[t, :]  # left[a, b, c] = (a*b)*c
    right = t[:, t]  # right[a, b, c] = a*(b*c)
    if not np.array_equal(left, right):
        raise InvalidPermutation("associativity audit failed")


def normal_subgroups(G: GroupTable) -> list[ElementSet]:
    """All normal subgroups, as joins of single-element normal closures.

    Every normal subgroup is the join of the normal closures of its elements,
    so closing the atoms under pairwise join enumerates the whole lattice.
    Intended for small groups; cost grows with the lattice size.
    """
    atoms = {normal_closure(G, [x]) for x in class_representatives(G)}  # x = 0 gives the trivial one
    found, frontier = set(atoms), set(atoms)
    while frontier:
        frontier = {subgroup_closure(G, a.union(b)) for a in frontier for b in atoms} - found
        found |= frontier
    return sorted(found, key=lambda N: (len(N), list(N)))
