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
is_nilpotent(G, S) reads S's lower central series in G's table.
When S is normal, so is every term, and comm_values uses class minima.
G's own series is kept with its table (GroupTable.lower_central) and read
whenever S is all of G.
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
from .group import ElementSet, GroupTable, _class_commutators, _series_terms, classes_meeting, is_normal, is_subgroup


def lower_central_series(G: GroupTable) -> tuple[ElementSet, ...]:
    """G, then [T, G] after each term T, down to the first repeat (kept with the table)."""
    return G.lower_central


def is_nilpotent(G: GroupTable, S: ElementSet | None = None) -> bool:
    """Whether the subgroup S (default G) is nilpotent, by its own lower central series in G."""
    S = ElementSet.full(G.n) if S is None else ElementSet.of(G.n, S)
    terms = G.lower_central if len(S) == G.n else _series_terms(G, S)
    return len(terms[-1]) == 1


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

