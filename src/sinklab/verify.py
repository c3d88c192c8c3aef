"""Lemma-level checkers; run_checks, the plan of `sinklab verify`: which run, at
which k, on which V and a; and scan_row: one CSV row of sink and Fitting data
per group. A CheckResult names no group: check_payload adds its name and order.

Each checker confronts one finite-group statement with exhaustive
computation over a concrete table. Failures are self-certifying: the
counterexample carries element indices that reproduce the failure through
the public operations.

The brute-force sink oracle, window_sinks, iterates c -> [c, x] blindly
(no cycle detection) for every pair (g, x) at once and collects the values
met at steps |G| .. 3|G|. Pigeonhole makes this window exact: a walk on |G|
states repeats within its first |G| steps, so the preperiod is shorter than
|G|, and the remaining 2|G| steps cover every cycle at least twice.
check_sink_oracle compares its rows with those of the sink matrix sinks(G).

check_heineken and check_centralizer_power test statements about single
elements that are invariant under conjugation: sink(g^x) = sink(g)^x and
C(g^x) = C(g)^x. So if g fails, so does the least element of its class,
and the least failing g, which each counterexample names, is a class
minimum. Both read the sink rows of the ascending class minima, which
run_checks makes once and check_m1_iff_nilpotent reads too, at the weight-k
values' minima. Their counts are sums over all elements, taken as a class
minimum's term times its class size, np.bincount(G.class_labels)[g].

check_orbit_lemma reads u -> [u, a] as one permutation pi of V: its
hypothesis V = [V, a] makes the map onto V, so bijective, and [1, a] = 1,
so pi fixes the identity, fixes nothing else and maps no v != 1 to it. Its
cycles are the commutator orbits, walked from every v at once. What stays
checked are two cross-checks against independent computations: V inside
the weight-k values (gamma_values), and each orbit inside its sink (its row
of sinks(H, V), as V's elements ascend).

Two statements have no checker, as their hypotheses are claims about how G
was built rather than about its table: every element of a product of
nonabelian simple groups is a weight-k value, and a product of one value per
component of a direct power keeps one sink value per component. The tests
assert them on direct powers through gamma_values and sinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .engel import gamma_values, left_engel_set, sink_profile, sinks
from .errors import HypothesisFailed
from .families import FamilySpec, build
from .group import (
    DEFAULT_ORDER_CAP, ElementSet, GroupTable, _comm, _commuting, class_representatives, is_subgroup, subgroup_closure,
    subgroup_table,
)
from .structure import fitting_subgroup, is_nilpotent, nilpotent_residual


@dataclass
class CheckResult:
    check: str
    passed: bool
    counterexample: Optional[dict] = None
    stats: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class ScanRow:
    group: str
    n: int
    k: int
    m_full: int
    m_nontrivial: int
    fitting_index: int
    residual_order: int
    quotient_exponent: int

    def csv_values(self) -> list[str]:
        return [str(v) for v in vars(self).values()]  # fields are declared, so set, in CSV_COLUMNS order


CSV_COLUMNS = "group,n,k,mFull,mNontrivial,fittingIndex,residualOrder,quotientExponent"
ORACLE_CAP = 100  # largest order check_sink_oracle accepts
CHECKS = ("heineken", "centralizer_power", "m1_iff_nilpotent", "sink_oracle", "orbit_lemma")


def check_heineken(G: GroupTable, reps: np.ndarray, rows: np.ndarray) -> CheckResult:
    """Right Engel g (its sink is the identity alone) implies left Engel
    g^-1, for every element."""
    right_engel = reps[rows.sum(axis=1) == 1]  # the identity is in every sink
    bad = right_engel[~left_engel_set(G).mask[G.inverse[right_engel]]]
    if len(bad):
        g = int(bad[0])
        return CheckResult("heineken", False, counterexample={"g": g, "g_inverse": G.inv(g)})
    count = int(np.bincount(G.class_labels)[right_engel].sum())
    return CheckResult("heineken", True, stats={"right_engel_count": count})


def check_centralizer_power(G: GroupTable, reps: np.ndarray, rows: np.ndarray) -> CheckResult:
    """For m = |sink(g)| and h centralizing g, h^(m!) centralizes sink(g).

    All of C(g) is raised to m! mod exponent(G) at once, and only the
    distinct powers are tested against sink(g); a failure names the least
    failing h, then the least z in sink(g) that its power does not commute with."""
    t, size, exponent, checked = G.table, np.bincount(G.class_labels), G.exponent(), 0
    for g, sink in zip(reps.tolist(), rows):
        m = int(sink.sum())
        hs = np.flatnonzero(t[g] == t[:, g])  # C(g)
        powers, back = np.unique(G.power(hs, math.factorial(m) % exponent), return_inverse=True)
        bad = np.flatnonzero(~_commuting(G, powers, np.flatnonzero(sink))[back])
        if len(bad):
            h, p = int(hs[bad[0]]), int(powers[back[bad[0]]])
            z = int(np.flatnonzero(sink & (t[p] != t[:, p]))[0])
            return CheckResult(
                "centralizer_power", False, counterexample={"g": g, "h": h, "h_power": p, "z": z, "m": m},
            )
        checked += int(size[g]) * len(hs) * m
    return CheckResult("centralizer_power", True, stats={"pairs_checked": checked})


def check_orbit_lemma(G: GroupTable, V: ElementSet, a: int, k: int) -> CheckResult:
    """Orbit lemma for a cyclic group acting on abelian V with V = [V, a].

    Once the hypotheses hold, u -> [u, a] maps V onto V, so it is a
    permutation pi of V with pi(1) = 1 and no other fixed point, whose
    cycles are the commutator orbits. Verifies (b) V inside the weight-k
    value set of <V, a>, and the weak form of (c): each orbit sits inside
    the sink of its v. Whether sink(v) = orbit(v) + {identity} holds as an
    equality is recorded empirically in stats, never asserted.
    """
    if not is_subgroup(G, V):
        raise HypothesisFailed("V is not a subgroup")
    mem = np.flatnonzero(V.mask)
    if not _commuting(G, mem, mem).all():
        raise HypothesisFailed("V is not abelian")
    image = _comm(G, mem, G._check(a))  # image[i] = [mem[i], a]
    if not V.mask[G.table[mem, image]].all():  # mem[i]^a = mem[i] [mem[i], a]
        raise HypothesisFailed("a does not normalize V")
    if ElementSet.of(G.n, image) != V:
        raise HypothesisFailed("V != [V, a]")

    H, embedding = subgroup_table(G, subgroup_closure(G, [a, *V]))
    local = np.searchsorted(embedding, mem)  # local[i] is mem[i]'s index in H
    missing = mem[~gamma_values(H, k).mask[local]]
    if len(missing):
        return CheckResult("orbit_lemma", False, counterexample={"v_not_gamma_value": int(missing[0]), "k": k})

    sink_mask = sinks(H, local)  # row i: sink of mem[i], as local ascends
    in_sink = sink_mask[:, local]  # in_sink[i, j]: mem[j] lies in the sink of mem[i]
    pi = np.searchsorted(mem, image)  # pi as positions in mem
    start = np.arange(len(mem))
    cur, length, inside = pi, np.ones(len(mem), dtype=np.int64), in_sink[start, pi]
    while (moving := cur != start).any():  # walk every cycle once round, all at once
        cur = np.where(moving, pi[cur], cur)
        length += moving
        inside &= in_sink[start, cur]
    outside = mem[~inside]
    if len(outside):
        return CheckResult("orbit_lemma", False, counterexample={"v": int(outside[0]), "orbit_value_outside_sink": 1})
    equality = np.array_equal(sink_mask.sum(axis=1), length + (mem != 0))  # the orbit of v != 1 avoids 1
    return CheckResult(
        "orbit_lemma", True,
        stats={
            "v_count": len(mem),
            "k": k,
            "max_orbit": int(length.max()),
            "sink_equals_orbit_plus_identity": int(equality),
        },
    )


def check_m1_iff_nilpotent(G: GroupTable, k: int, targets: np.ndarray, rows: np.ndarray) -> CheckResult:
    """All weight-k values have trivial sinks exactly when G is nilpotent; m_full and argmax as in sink_profile."""
    values = gamma_values(G, k).mask[targets]  # the values are a class union, so these are their minima
    sizes = rows.sum(axis=1)[values]  # the identity is in every sink
    m_full, argmax, nilpotent = int(sizes.max()), int(targets[values][sizes.argmax()]), int(is_nilpotent(G))
    ce = None if (m_full == 1) == nilpotent else {"m_full": m_full, "nilpotent": nilpotent, "argmax": argmax}
    return CheckResult("m1_iff_nilpotent", ce is None, ce, {"k": k, "m_full": m_full, "nilpotent": nilpotent})


def window_sinks(G: GroupTable) -> np.ndarray:
    """found[g, z]: z is met from g, in some direction, at a step count in
    n .. 3n, with no cycle detection, which is the sink of g (see the module
    docstring). The steps come from GroupTable.comm_step, one direction at a
    time, and all n^2 walks advance together: intended for small groups."""
    n = G.n
    steps, starts = np.array([G.comm_step(x) for x in G.elements()]), np.arange(n)
    found, rows, cur = np.zeros((n, n), dtype=bool), starts[:, None], np.broadcast_to(starts, (n, n))
    for step in range(1, 3 * n + 1):
        cur = steps[rows, cur]
        if step >= n:
            found[starts, cur] = True
    return found


def check_sink_oracle(G: GroupTable) -> CheckResult:
    """Cycle-union sinks equal the windowed brute-force recurrent-value sets
    of window_sinks, for groups of order at most ORACLE_CAP; a failure names
    the least g whose two sets differ."""
    n = G.n
    if n > ORACLE_CAP:
        raise HypothesisFailed(f"oracle capped at order {ORACLE_CAP}, group has order {n}")
    oracle, sink = window_sinks(G), sinks(G)
    bad = np.flatnonzero((oracle != sink).any(axis=1))
    if len(bad):
        g = int(bad[0])
        return CheckResult(
            "sink_oracle", False,
            counterexample={
                "g": g,
                "oracle_only": np.flatnonzero(oracle[g] & ~sink[g]).tolist(),
                "sink_only": np.flatnonzero(sink[g] & ~oracle[g]).tolist(),
            },
        )
    return CheckResult("sink_oracle", True)


def _sink_row_checks(G: GroupTable, which: str, k: int) -> list[CheckResult]:
    """heineken, centralizer_power and m1_iff_nilpotent, as which asks, on one sink pass; its rows
    go when this returns, so the checks that follow do not hold them."""
    minima = class_representatives(G)
    minima = minima[gamma_values(G, k).mask[minima]] if which == "m1_iff_nilpotent" else minima
    rows, results = sinks(G, minima), []
    if which in ("heineken", "all"):
        results.append(check_heineken(G, minima, rows))
    if which in ("centralizer_power", "all"):
        results.append(check_centralizer_power(G, minima, rows))
    if which in ("m1_iff_nilpotent", "all"):
        results.extend(check_m1_iff_nilpotent(G, kk, minima, rows) for kk in ((2, 3) if which == "all" else (k,)))
    return results


def run_checks(G: GroupTable, which: str, k: int, family: Optional[FamilySpec]) -> list[CheckResult]:
    """The check named which, or with "all" each check in CHECKS that applies, on G built from
    family (None for a permutation spec). All runs m1_iff_nilpotent at k = 2 and 3, sink_oracle up
    to ORACLE_CAP, and orbit_lemma (V the nilpotent residual, a the last generator, weight k) on
    inversion_extension and frobenius only. A check alone that does not apply raises
    HypothesisFailed. The first three read one sink pass: of all class minima, or of the weight-k
    values' minima only when m1_iff_nilpotent runs alone, and its rows go before the others run."""
    every = which == "all"
    if not every and which not in CHECKS:
        raise ValueError(f"unknown check {which!r}")
    orbit = family is not None and family.family in ("inversion_extension", "frobenius")
    if which == "orbit_lemma" and not orbit:
        raise HypothesisFailed("orbit_lemma needs a group constructed as inversion_extension or frobenius")
    results = [] if which in ("sink_oracle", "orbit_lemma") else _sink_row_checks(G, which, k)
    if which == "sink_oracle" or every and G.n <= ORACLE_CAP:  # alone above the cap, the checker raises
        results.append(check_sink_oracle(G))
    if which == "orbit_lemma" or every and orbit:
        results.append(check_orbit_lemma(G, nilpotent_residual(G), G.generators[-1], k))
    return results


def scan_row(G: GroupTable, group_id: str, k: int) -> ScanRow:
    """One corpus row: sink profile over weight-k values plus Fitting data."""
    m_full, m_nontrivial, _ = sink_profile(G, k)
    F = fitting_subgroup(G)
    residual = nilpotent_residual(G)
    return ScanRow(
        group=group_id,
        n=G.n,
        k=k,
        m_full=m_full,
        m_nontrivial=m_nontrivial,
        fitting_index=G.n // len(F),
        residual_order=len(residual),
        quotient_exponent=G.exponent(F),  # F is normal: fitting_subgroup certifies it
    )


def contrast_report(p: int, ranks: Iterable[int], order_cap: int = DEFAULT_ORDER_CAP) -> list[ScanRow]:
    """Rows for the inversion extensions at k = 2, one per rank r, building
    only those: sinks stay bounded while the nilpotent residual grows as p^r."""
    return [
        scan_row(build(FamilySpec("inversion_extension", (p, r)), order_cap), f"inversion_extension_{p}_{r}", 2)
        for r in ranks
    ]
