"""Classical structure computations: the lower central series, nilpotency,
the nilpotent residual, and the Fitting subgroup.

The Fitting subgroup is computed by Baer's criterion: in a finite group the
left Engel elements form exactly the largest normal nilpotent subgroup. The
result is certified once, in fitting_subgroup (subgroup, normal, nilpotent).
is_nilpotent(G, S) reads S's lower central series in G's table.
When S is normal, so is every term, and comm_values uses class minima.
G's own series is kept with its table (GroupTable.lower_central) and read
whenever S is all of G; G/1 is G, so the residual's certificate reads it too.
A series is a plain tuple of ElementSets that ends in its first repeated
term, so its last entry is the stable one; 1 repeats without a computation.
"""

from __future__ import annotations

from .engel import left_engel_set
from .errors import InternalInconsistency
from .group import ElementSet, GroupTable, _series_terms, classes_meeting, is_subgroup, quotient


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
    with nilpotent quotient."""
    residual = lower_central_series(G)[-1]
    Q, _ = quotient(G, residual)
    if not is_nilpotent(Q):
        raise InternalInconsistency("quotient by the nilpotent residual is not nilpotent")
    return residual


def fitting_subgroup(G: GroupTable) -> ElementSet:
    """Largest normal nilpotent subgroup, as the set of left Engel elements."""
    F = left_engel_set(G)
    if not is_subgroup(G, F):
        raise InternalInconsistency("left Engel set is not closed under multiplication")
    if classes_meeting(G, F) != F:
        raise InternalInconsistency("left Engel set is not normal")
    if not is_nilpotent(G, F):
        raise InternalInconsistency("left Engel set is not nilpotent")
    return F

