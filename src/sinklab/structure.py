"""Classical structure computations: the lower central series, nilpotency,
the nilpotent residual, and the Fitting subgroup.

G's lower central series is kept with its table (GroupTable.lower_central)
and certified once, where it is made: its stable term, the nilpotent
residual R, is normal, and G/R is nilpotent by the upper central series
modulo R (group._nilpotent_modulo). So a kept series ends at 1 exactly when
G is nilpotent, and nilpotent_residual and fitting_subgroup read it with no
certificate of their own. A series is a plain tuple of ElementSets that ends
in its first repeated term, the stable one; 1 repeats uncomputed.

The Fitting subgroup is computed by Baer's criterion: in a finite group the
left Engel elements form exactly the largest normal nilpotent subgroup. When
G's series ends at 1, F is G by definition, with no left Engel walk
(left_engel_set still walks, for check_heineken). A walked F is certified
as a subgroup (on its class minima when it is a class union: is_subgroup),
normal and nilpotent. is_nilpotent(G, S), for G and every subgroup S alike,
makes no series: S is nilpotent exactly when its elements of coprime
prime-power orders commute.
"""

from __future__ import annotations

import numpy as np

from .engel import left_engel_set
from .errors import InternalInconsistency
from .group import ElementSet, GroupTable, _commuting, _power, _prime_powers, classes_meeting, is_subgroup


def lower_central_series(G: GroupTable) -> tuple[ElementSet, ...]:
    """G, then [T, G] after each term T, down to the first repeat (kept with the table)."""
    return G.lower_central


def is_nilpotent(G: GroupTable, S: ElementSet | None = None) -> bool:
    """Whether the subgroup S (default G) is nilpotent: whether, for primes p != q dividing |S|, its
    p-elements (the x with x^(p^a) = 1, p^a exactly dividing |S|) commute with its q-elements.

    Each x in S is the product of its p-parts, commuting powers of x, so then every p-element
    commutes with every p'-element. The p'-elements centralize, so normalize, a Sylow p-subgroup P,
    and generate a normal subgroup K; the coset xK holds x's p-part, so S/K is a p-group. The number
    of Sylow p-subgroups, |S : N_S(P)|, then divides |S : K| and is 1 mod p, hence 1: every Sylow
    subgroup is normal, and S, their direct product, is nilpotent. Conversely the Sylow factors of a
    nilpotent S commute (Robinson, A Course in the Theory of Groups, 5.2). When S is a class union,
    x^(p^a) = 1 and commuting are conjugation invariant, so each p-element set's class minima stand
    for it on one side of each pair."""
    mask = np.ones(G.n, dtype=bool) if S is None else ElementSet.of(G.n, S).mask
    members, lab = mask.nonzero()[0], G.class_labels
    least = lab[members] == members if not (mask ^ mask[lab]).any() else np.ones(len(members), dtype=bool)
    parts = [_power(G, members, p**a) == 0 for p, a in _prime_powers(len(members))]  # the p-elements, per p
    return all(_commuting(G, members[x & least], members[y]).all() for i, x in enumerate(parts) for y in parts[i + 1:])


def nilpotency_class(G: GroupTable) -> int | None:
    for i, term in enumerate(lower_central_series(G)):
        if len(term) == 1:
            return i
    return None


def nilpotent_residual(G: GroupTable) -> ElementSet:
    """Stable term of the lower central series: the smallest normal subgroup with nilpotent
    quotient, certified where the series is made (GroupTable.lower_central)."""
    return lower_central_series(G)[-1]


def fitting_subgroup(G: GroupTable) -> ElementSet:
    """Largest normal nilpotent subgroup, as the set of left Engel elements: G itself, with no
    walk, when G's kept (so certified) lower central series ends at 1, else left_engel_set,
    certified a normal nilpotent subgroup."""
    if len(G.lower_central[-1]) == 1:
        return ElementSet.full(G.n)
    F = left_engel_set(G)
    if not is_subgroup(G, F):
        raise InternalInconsistency("left Engel set is not closed under multiplication")
    if classes_meeting(G, F) != F:
        raise InternalInconsistency("left Engel set is not normal")
    if not is_nilpotent(G, F):
        raise InternalInconsistency("left Engel set is not nilpotent")
    return F

