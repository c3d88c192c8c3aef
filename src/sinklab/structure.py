"""Classical structure computations: the lower central series, nilpotency,
the nilpotent residual, and the Fitting subgroup.

The Fitting subgroup is computed by Baer's criterion: in a finite group the
left Engel elements form exactly the largest normal nilpotent subgroup. When
G's kept lower central series ends at 1, G is nilpotent and F is G by
definition, so no left Engel walk is made (left_engel_set itself still walks,
for check_heineken). F = G is then certified by another series, the upper
central series (_nilpotent_modulo over the trivial subgroup), which must reach
G; a subgroup and normality check would hold by construction. A walked F is
certified in fitting_subgroup as a subgroup, normal and nilpotent.
is_nilpotent(G, S), for G and every subgroup S alike, makes no series: S is
nilpotent exactly when its elements of coprime prime-power orders commute.
G's own series is kept with its table (GroupTable.lower_central).
A series is a plain tuple of ElementSets that ends in its first repeated
term, so its last entry is the stable one; 1 repeats without a computation.
The nilpotent residual R is the stable term of G's series. Its certificate
(is_normal, then _nilpotent_modulo) checks that G/R is nilpotent by another
series, the upper central series modulo R, on G's certified class labels:
no quotient table is made, and for a nilpotent G, where R = 1, the kept
lower central series is not read again.
"""

from __future__ import annotations

import numpy as np

from .engel import left_engel_set
from .errors import InternalInconsistency, NotNormal
from .group import ElementSet, GroupTable, _class_commutators, _commuting, _power, _prime_powers, classes_meeting
from .group import is_normal, is_subgroup


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
    """Stable term of the lower central series: the smallest normal subgroup
    with nilpotent quotient. Certified normal, and with G/R nilpotent by the
    upper central series modulo R (_nilpotent_modulo), in G's own table."""
    residual = lower_central_series(G)[-1]
    if not is_normal(G, residual):  # raises NotASubgroup unless the residual is a subgroup
        raise NotNormal("the nilpotent residual is not normal")
    if not _nilpotent_modulo(G, residual):
        raise InternalInconsistency("quotient by the nilpotent residual is not nilpotent")
    return residual


def _nilpotent_modulo(G: GroupTable, N: ElementSet) -> bool:
    """Whether G/N is nilpotent, for a normal subgroup N: whether the upper central series
    modulo N reaches G (Robinson, A Course in the Theory of Groups, 5.1). Z_0 = N, and Z_i+1
    is the union of the classes whose least element m has [m, g] in Z_i for every g, that is
    v[y] = m^-1 y in Z_i for every y in m's class (_class_commutators): all classes but those
    that meet the y with v[y] outside Z_i. Z_i is normal, so Z_i+1 contains it."""
    v, Z = _class_commutators(G, np.arange(G.n)), ElementSet.of(G.n, N).mask
    while not Z.all():
        grown = Z | ~classes_meeting(G, ElementSet(~Z[v])).mask
        if (grown == Z).all():
            return False
        Z = grown
    return True


def fitting_subgroup(G: GroupTable) -> ElementSet:
    """Largest normal nilpotent subgroup, as the set of left Engel elements: G itself when G's
    kept lower central series ends at 1 and its upper central series reaches G, with no walk,
    else left_engel_set, certified a normal nilpotent subgroup."""
    if len(G.lower_central[-1]) == 1:
        if not _nilpotent_modulo(G, ElementSet.trivial(G.n)):
            raise InternalInconsistency("lower central series ends at 1, upper central series does not reach G")
        return ElementSet.full(G.n)
    F = left_engel_set(G)
    if not is_subgroup(G, F):
        raise InternalInconsistency("left Engel set is not closed under multiplication")
    if classes_meeting(G, F) != F:
        raise InternalInconsistency("left Engel set is not normal")
    if not is_nilpotent(G, F):
        raise InternalInconsistency("left Engel set is not nilpotent")
    return F

