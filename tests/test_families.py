import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sinklab.errors import InvalidParameters
from sinklab.families import FamilySpec, build, validate
from sinklab.group import ElementSet, centralizer, validate_table
from sinklab.specfile import parse_spec_text
from sinklab.structure import nilpotent_residual

from oracles import commute, conj, element_order


def test_cyclic_orders():
    for n in (1, 2, 7, 12):
        G = build(FamilySpec("cyclic", (n,)))
        assert G.n == n
        assert G.exponent() == n


def test_elementary_abelian():
    G = build(FamilySpec("elementary_abelian", (3, 2)))
    assert G.n == 9
    assert G.exponent() == 3
    assert all(commute(G, a, b) for a in range(9) for b in range(9))


def test_dihedral():
    for n in (3, 4, 10):
        G = build(FamilySpec("dihedral", (n,)))
        assert G.n == 2 * n
        assert element_order(G, G.generators[0]) == n
        assert element_order(G, G.generators[1]) == 2


@pytest.mark.parametrize("d", range(1, 7))
def test_symmetric_orders(d):
    assert build(FamilySpec("symmetric", (d,))).n == math.factorial(d)


@pytest.mark.parametrize("d", range(3, 7))
def test_alternating_orders(d):
    assert build(FamilySpec("alternating", (d,))).n == math.factorial(d) // 2


@pytest.mark.slow
def test_degree_seven_orders():
    assert build(FamilySpec("symmetric", (7,))).n == math.factorial(7)
    assert build(FamilySpec("alternating", (7,))).n == math.factorial(7) // 2


def test_quaternion8(q8):
    assert q8.n == 8
    assert sorted(element_order(q8, x) for x in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]
    i, j = q8.generators
    assert q8.power(i, 2) == q8.power(j, 2)  # both square to the central involution
    assert conj(q8, i, j) == q8.inv(i)


def test_inversion_extension_small(ie31):
    validate_table(ie31)  # a product runs only the O(n) laws when built; this is its Latin-square oracle
    assert ie31.n == 6
    assert sorted(element_order(ie31, x) for x in range(6)) == [1, 2, 2, 2, 3, 3]


@pytest.mark.parametrize("r", (1, 2, 3))
def test_inversion_extension_torsion_part(r):
    G = build(FamilySpec("inversion_extension", (3, r)))
    validate_table(G)
    T = nilpotent_residual(G)
    assert len(T) == 3**r
    assert G.n // len(T) == 2
    alpha = G.generators[-1]
    assert {G.comm(u, alpha) for u in T} == set(T)  # [T, alpha] = T


def test_frobenius_hypotheses(frob732):
    validate_table(frob732)
    assert frob732.n == 21
    assert set(centralizer(frob732, ElementSet.full(frob732.n))) == {0}
    V = nilpotent_residual(frob732)
    a = frob732.generators[-1]
    fixed = {v for v in V if conj(frob732, v, a) == v}
    assert fixed == {0}  # C_V(a) = 1


def test_direct_power():
    G = build(FamilySpec("direct_power", (3,), base=FamilySpec("cyclic", (2,))))
    assert G.n == 8
    assert G.exponent() == 2
    S3sq = build(FamilySpec("direct_power", (2,), base=FamilySpec("symmetric", (3,))))
    validate_table(G)
    validate_table(S3sq)
    assert S3sq.n == 36
    assert len(centralizer(S3sq, ElementSet.full(S3sq.n))) == 1


PRODUCT_DIGESTS = Path(__file__).resolve().parent / "data" / "product_digests.json"


def test_product_builds_pinned():
    """Product and semidirect-product builds match their pinned tables,
    inverses, labels, generators and names, and pass validate_table."""
    for text, want in json.loads(PRODUCT_DIGESTS.read_text(encoding="utf-8")).items():
        G = build(parse_spec_text(f"group construct {text}\n").family)
        validate_table(G)
        got = {
            "order": G.n,
            "dtype": str(G.table.dtype),
            "table_sha256": hashlib.sha256(np.ascontiguousarray(G.table)).hexdigest(),
            "inverse_sha256": hashlib.sha256(np.ascontiguousarray(G.inverse)).hexdigest(),
            "labels": G.labels,
            "generators": G.generators,
            "name": G.name,
        }
        assert got == want, text


def test_component_embedding_commutes_with_mul():
    """In a fold-left direct power B^2, element x of component 1 is x * |B|
    and of component 2 is x itself: both strides embed B."""
    base = build(FamilySpec("inversion_extension", (3, 1)))
    G = build(FamilySpec("direct_power", (2,), base=FamilySpec("inversion_extension", (3, 1))))
    validate_table(G)
    e1, e2 = base.n, 1
    for x in range(base.n):
        for y in range(base.n):
            assert G.mul(x * e1, y * e1) == base.mul(x, y) * e1
            assert G.mul(x * e2, y * e2) == base.mul(x, y) * e2
            assert commute(G, x * e1, y * e2)


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("cyclic", (0,)),
        FamilySpec("elementary_abelian", (4, 2)),
        FamilySpec("elementary_abelian", (3, 0)),
        FamilySpec("dihedral", (2,)),
        FamilySpec("alternating", (2,)),
        FamilySpec("inversion_extension", (2, 1)),
        FamilySpec("inversion_extension", (9, 1)),
        FamilySpec("frobenius", (8, 3, 2)),
        FamilySpec("frobenius", (7, 4, 2)),
        FamilySpec("frobenius", (7, 2, 3)),
        FamilySpec("frobenius", (7, 3, 3)),
        FamilySpec("frobenius", (7, 3, 1)),
        FamilySpec("direct_power", (0,), base=FamilySpec("cyclic", (2,))),
        FamilySpec("symmetric", ()),
        FamilySpec("unknown", (1,)),
    ],
)
def test_invalid_parameters(spec):
    with pytest.raises(InvalidParameters):
        validate(spec)


def test_frobenius_valid_parameter_check():
    validate(FamilySpec("frobenius", (7, 3, 2)))
    validate(FamilySpec("frobenius", (13, 3, 3)))
    validate(FamilySpec("frobenius", (11, 5, 3)))
