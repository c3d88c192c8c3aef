"""Classical structure computations: the lower central series, nilpotency,
the nilpotent residual, and the Fitting subgroup.

G's lower central series is kept with its table (GroupTable.lower_central)
and certified once, where it is made: its stable term, the nilpotent
residual R, is normal, and G/R is nilpotent (group.is_nilpotent with N = R).
So a kept series ends at 1 exactly when G is nilpotent, and
nilpotent_residual and fitting_subgroup read it with no certificate of their
own. A series is a plain tuple of ElementSets that ends in its first repeated
term, the stable one; 1 repeats uncomputed.

The Fitting subgroup is computed by Baer's criterion: in a finite group the
left Engel elements form exactly the largest normal nilpotent subgroup. When
G's series ends at 1, F is G by definition, with no left Engel walk
(left_engel_set still walks, for check_heineken). A walked F is certified
nilpotent and, unless it is the certified R, a subgroup (on its class minima
when it is a class union: is_subgroup) and normal. is_nilpotent(G, S, N),
group's one nilpotency test, is bound here too; it makes no series: S/N is
nilpotent exactly when, for each p^a exactly dividing |S : N|, exactly
p^a |N| members x of S have x^(p^a) in N.
"""

from __future__ import annotations

from .engel import left_engel_set
from .errors import InternalInconsistency
from .group import ElementSet, GroupTable, classes_meeting, is_nilpotent, is_subgroup


def lower_central_series(G: GroupTable) -> tuple[ElementSet, ...]:
    """G, then [T, G] after each term T, down to the first repeat (kept with the table)."""
    return G.lower_central


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
    certified a normal nilpotent subgroup; a set equal to the kept stable term R is certified
    normal where the series is made, so it is only certified nilpotent."""
    R = G.lower_central[-1]
    if len(R) == 1:
        return ElementSet.full(G.n)
    F = left_engel_set(G)
    if F != R and not is_subgroup(G, F):  # R is a certified normal subgroup
        raise InternalInconsistency("left Engel set is not closed under multiplication")
    if F != R and classes_meeting(G, F) != F:
        raise InternalInconsistency("left Engel set is not normal")
    if not is_nilpotent(G, F):
        raise InternalInconsistency("left Engel set is not nilpotent")
    return F

