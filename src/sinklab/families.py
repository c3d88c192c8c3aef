"""Named group families: cyclic, dihedral, symmetric, alternating, quaternion,
elementary abelian, the inversion extension T:C2, Frobenius groups Cp:Cq, and
direct powers of any of these.

Base families are realized as permutation groups (so their elements carry
cycle-notation labels), each with the table close_generators makes from its
generators and with its cap checks (group._closure_cap): cyclic n is filled
in closed form, as addition mod n, and dihedral n and elementary_abelian p r
hand closed-form Schreier trees to group._from_tree; it and cyclic n lay out
perms and labels by group._perm_table. The extension families are
semidirect/direct products, generated by their factors' generating sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidParameters
from .group import (
    DEFAULT_ORDER_CAP, GroupTable, _closure_cap, _from_tree, _index_dtype, _new_table, _perm_table, close_generators,
    direct_product, semidirect_product,
)
from .perm import Permutation

@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple[int, ...] = ()
    base: Optional["FamilySpec"] = None  # only for direct_power

    def describe(self) -> str:
        if self.family == "direct_power":
            return f"direct_power {self.params[0]} {self.base.describe()}"
        return " ".join([self.family, *(str(p) for p in self.params)])


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _cycle(points: list[int], degree: int) -> Permutation:
    img = list(range(1, degree + 1))
    for a, b in zip(points, points[1:]):
        img[a - 1] = b
    img[points[-1] - 1] = points[0]
    return Permutation(degree, tuple(img))


def validate(spec: FamilySpec) -> None:
    """Raise InvalidParameters naming the violated arithmetic condition."""
    fam, p = spec.family, spec.params
    if fam not in FAMILY_NAMES:
        raise InvalidParameters(f"unknown family {fam!r}")
    if fam == "direct_power":
        if len(p) != 1 or spec.base is None:
            raise InvalidParameters("direct_power needs a count and a base family")
        if p[0] < 1:
            raise InvalidParameters(f"direct_power count must be >= 1, got {p[0]}")
        validate(spec.base)
        return
    if spec.base is not None:
        raise InvalidParameters(f"{fam} does not take a base family")
    arity = _FAMILIES[fam][0]
    if len(p) != arity:
        raise InvalidParameters(f"{fam} takes {arity} parameter(s), got {len(p)}")
    if fam == "cyclic" and p[0] < 1:
        raise InvalidParameters(f"cyclic order must be >= 1, got {p[0]}")
    if fam == "elementary_abelian":
        if not _is_prime(p[0]):
            raise InvalidParameters(f"elementary_abelian needs prime p, got p = {p[0]}")
        if p[1] < 1:
            raise InvalidParameters(f"elementary_abelian rank must be >= 1, got {p[1]}")
    if fam == "dihedral" and p[0] < 3:
        raise InvalidParameters(f"dihedral(n) needs n >= 3 (use elementary_abelian 2 2 for V4), got {p[0]}")
    if fam == "symmetric" and p[0] < 1:
        raise InvalidParameters(f"symmetric degree must be >= 1, got {p[0]}")
    if fam == "alternating" and p[0] < 3:
        raise InvalidParameters(f"alternating degree must be >= 3, got {p[0]}")
    if fam == "inversion_extension":
        if not _is_prime(p[0]) or p[0] == 2:
            raise InvalidParameters(
                f"inversion_extension needs an odd prime p (inversion is trivial at p = 2), got p = {p[0]}"
            )
        if p[1] < 1:
            raise InvalidParameters(f"inversion_extension rank must be >= 1, got {p[1]}")
    if fam == "frobenius":
        pp, q, t = p
        if not _is_prime(pp):
            raise InvalidParameters(f"frobenius needs prime p, got p = {pp}")
        if not _is_prime(q):
            raise InvalidParameters(f"frobenius needs prime q, got q = {q}")
        if (pp - 1) % q != 0:
            raise InvalidParameters(f"frobenius needs p = 1 mod q; {pp} != 1 mod {q}")
        if pow(t, q, pp) != 1:
            raise InvalidParameters(f"frobenius needs t^q = 1 mod p; {t}^{q} != 1 mod {pp}")
        if t % pp == 1:
            raise InvalidParameters("frobenius needs t != 1 mod p (the action must be nontrivial)")


def _cyclic(n: int, cap: int) -> GroupTable:
    """The closure of the n-cycle g, whose breadth-first search finds g^i as
    element i: table[i, j] = (i + j) mod n, row i copied from a doubled
    arange in the table's dtype, after the closure's cap checks. Addition mod
    n is a Latin square, so GroupTable(...) checks its O(n) laws only, and
    validate_table(G) is its oracle."""
    _closure_cap(n, n, cap)
    table = _new_table(n)
    doubled = np.tile(np.arange(n, dtype=table.dtype), 2)  # doubled[i + j] = (i + j) mod n
    for i in range(n):
        table[i] = doubled[i : i + n]
    # -i mod n is i's inverse; g^i maps x to x + i mod n, so row i is its image row
    return _perm_table(table, doubled[n:0:-1].copy(), n, lambda: table, [1 % n], f"C{n}")


def _closed_tree(step: np.ndarray, round_of: np.ndarray, slot: np.ndarray, images: np.ndarray, name: str) -> GroupTable:
    """The closure of the generators g_v with 0-based image rows step[v], through _from_tree, with its
    elements as codes c: code c is in breadth-first round round_of[c], a round lists its codes by
    ascending slot[c], and images[v, c] is the code of c * g_v. Codes are distinct normal forms and
    images exact arithmetic, so the tree is the closure's own. No Permutation is made until read."""
    order = np.lexsort((slot, round_of))  # order[i]: the code of element i
    index = np.argsort(order)  # index[c]: the element of code c
    rounds = np.concatenate([[0], np.cumsum(np.bincount(round_of))]).tolist()
    return _from_tree(step.astype(_index_dtype(step.shape[1])), index[images[:, order]], rounds, name)


def _elementary_abelian(p: int, r: int, cap: int) -> GroupTable:
    """The closure of the r disjoint p-cycles g_1..g_r, in closed form after the closure's cap checks:
    g_1^d_1 ... g_r^d_r is code sum d_v p^(r-v), in round d_1 + ... + d_r, a round lists its digit
    vectors in descending lexicographic order, and times g_v adds 1 to d_v mod p."""
    degree, n = p * r, p**r
    _closure_cap(n, degree, cap)
    x = np.arange(degree)
    step = np.where(x // p == np.arange(r)[:, None], x - x % p + (x + 1) % p, x)  # g_v's 0-based image row
    code, place = np.arange(n), p ** np.arange(r - 1, -1, -1)[:, None]  # place[v - 1] = p^(r-v)
    digits = code // place % p  # digits[v - 1, c] = d_v
    images = code + np.where(digits < p - 1, place, (1 - p) * place)
    return _closed_tree(step, digits.sum(axis=0), -code, images, f"E{p}^{r}")


def _dihedral(n: int, cap: int) -> GroupTable:
    """The closure of rot = (1 2 ... n) and refl: k -> n + 2 - k, in closed form after the closure's
    cap checks. On 0-based points (a, b) is x -> (-1)^b x + a, code a + n b; (a, b) rot = (a + 1, b)
    and (a, b) refl = (-a, 1 - b). rot^a is in round a at slot 0 if a <= n - a + 2, else in round
    n - a + 2 at slot 3; the reflection (c, 1) in round n - c + 1 at slot 1 if n - c + 1 <= c + 1,
    else in round c + 1 at slot 2; a round lists its slots in ascending order. (rot^a is rot a times
    over, or refl rot^(n-a) refl; (c, 1) is rot^(n-c) refl, or refl rot^c: the shorter word decides.)"""
    _closure_cap(2 * n, n, cap)
    a = np.arange(n)  # also the 0-based points
    up, left = a <= n - a + 2, n - a + 1 <= a + 1
    round_of = np.concatenate([np.where(up, a, n - a + 2), np.where(left, n - a + 1, a + 1)])
    slot = np.concatenate([np.where(up, 0, 3), np.where(left, 1, 2)])
    images = np.array([np.concatenate([(a + 1) % n, (a + 1) % n + n]), np.concatenate([-a % n + n, -a % n])])
    return _closed_tree(np.array([(a + 1) % n, -a % n]), round_of, slot, images, f"D{n}")


def _symmetric(d: int, cap: int) -> GroupTable:
    if d == 1:
        return close_generators([Permutation.identity(1)], cap, name="S1")
    gens = [_cycle(list(range(1, d + 1)), d)]
    if d > 2:
        gens.append(_cycle([1, 2], d))
    return close_generators(gens, cap, name=f"S{d}")


def _alternating(d: int, cap: int) -> GroupTable:
    three = _cycle([1, 2, 3], d)
    if d % 2 == 1:
        long = _cycle(list(range(1, d + 1)), d)
    else:
        long = _cycle(list(range(2, d + 1)), d)
    return close_generators([three, long], cap, name=f"A{d}")


def _quaternion8(cap: int) -> GroupTable:
    # right regular action on 1,i,-1,-i,j,k,-j,-k
    i = Permutation(8, (2, 3, 4, 1, 8, 5, 6, 7))
    j = Permutation(8, (5, 6, 7, 8, 3, 4, 1, 2))
    return close_generators([i, j], cap, name="Q8")


def _inversion_extension(p: int, r: int, cap: int) -> GroupTable:
    T = _elementary_abelian(p, r, cap)
    C2 = _cyclic(2, cap)
    action = np.stack([np.arange(T.n), T.inverse])  # the identity, then inversion
    return semidirect_product(T, C2, action, cap)  # semidirect_product names it E{p}^{r}:C2


def _frobenius(p: int, q: int, t: int, cap: int) -> GroupTable:
    # cyclic(p) is addition mod p, so element k is u^k and the action of
    # the j-th complement generator power is k -> k * t^j mod p.
    Cp = _cyclic(p, cap)
    Cq = _cyclic(q, cap)
    action = np.array([np.arange(p) * pow(t, j, p) % p for j in range(q)])
    return semidirect_product(Cp, Cq, action, cap)  # semidirect_product names it C{p}:C{q}


# name -> (parameter count, builder taking the parameters and the order cap);
# direct_power takes a count plus a base spec and is folded in build
_FAMILIES = {
    "cyclic": (1, _cyclic),
    "elementary_abelian": (2, _elementary_abelian),
    "dihedral": (1, _dihedral),
    "symmetric": (1, _symmetric),
    "alternating": (1, _alternating),
    "quaternion8": (0, _quaternion8),
    "inversion_extension": (2, _inversion_extension),
    "frobenius": (3, _frobenius),
}
FAMILY_NAMES = (*_FAMILIES, "direct_power")


def build(spec: FamilySpec, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Build the group described by a validated family spec."""
    validate(spec)
    if spec.family != "direct_power":
        return _FAMILIES[spec.family][1](*spec.params, order_cap)
    count = spec.params[0]
    base = build(spec.base, order_cap)
    G = base
    for _ in range(count - 1):
        G = direct_product(G, base, order_cap)
    if count > 1:
        G.name = f"({base.name})^{count}"
    return G
