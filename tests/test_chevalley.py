import itertools

import pytest
from hypothesis import given, strategies as st

from quasisplit.chevalley import (
    ChevalleyError,
    StructureConstants,
    pinned_signs,
    structure_constants,
)
from quasisplit.rootdata import VALID_RANKS, build_root_system, diagram_automorphisms, identity_automorphism
from quasisplit.weyl import root_index

from oracles import (
    ChevalleyAlgebra,
    coroot_coefficients,
    down_string_length,
    extraspecial_pair_by_vectors,
    jacobi_sides,
    jacobi_triples,
    jacobi_violations,
    on_root,
    pinned_signs_by_vectors,
    sl_flip_fixed_dim,
    sl_flip_image,
)

SMALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1+A1", "B2+A1"]
PINNED_ORACLE_TYPES = [
    f"{letter}{rank}" for letter, ranks in VALID_RANKS.items() for rank in ranks if rank <= 8
] + ["A3+A3", "D4+A1", "A2+A2+A1"]


def _neg(v):
    return tuple(-x for x in v)


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _extraspecial_pair(rs, gamma):
    """The first positive pair of root_index(rs).sums at gamma, as vectors."""
    ri = root_index(rs)
    first = next(pair for pair in ri.sums[ri.index[gamma]] if pair < 1 << ri.npos)
    return tuple(rs.roots[k] for k in ri.indices(first))


def _signs_by_root(rs, aut):
    """pinned_signs(rs, aut).signs keyed by root vector."""
    return dict(zip(rs.roots, pinned_signs(rs, aut).signs))


@pytest.mark.parametrize("type_str", SMALL_TYPES + ["F4", "D4"])
def test_magnitudes_match_root_strings(type_str):
    rs = build_root_system(type_str)
    nc = structure_constants(rs)
    pos = rs.positive_roots
    pos_set = set(pos)
    checked = 0
    for a, b in itertools.combinations(pos, 2):
        if _add(a, b) in pos_set:
            expect = down_string_length(rs, a, b) + 1
            assert abs(nc.n(a, b)) == expect
            checked += 1
    if type_str not in ("A1", "A1+A1"):
        assert checked


def test_extraspecial_constants_positive():
    for type_str in SMALL_TYPES:
        rs = build_root_system(type_str)
        nc = structure_constants(rs)
        for gamma in rs.positive_roots:
            if sum(gamma) == 1:
                continue
            mu, nu = _extraspecial_pair(rs, gamma)
            assert sum(mu) == 1 and _add(mu, nu) == gamma
            assert nc.n(mu, nu) == down_string_length(rs, mu, nu) + 1 > 0


@pytest.mark.parametrize("type_str", ["A2", "B2", "G2", "C3"])
def test_sign_symmetries(type_str):
    rs = build_root_system(type_str)
    nc = structure_constants(rs)
    root_set = set(rs.roots)
    for a, b in itertools.permutations(rs.roots, 2):
        if _add(a, b) not in root_set:
            continue
        assert nc.n(b, a) == -nc.n(a, b)
        assert nc.n(_neg(a), _neg(b)) == -nc.n(a, b)


def test_n_rejects_non_root_sum():
    rs = build_root_system("A2")
    nc = structure_constants(rs)
    with pytest.raises(ChevalleyError):
        nc.n((1, 0), (1, 1))  # sum (2, 1) is not a root
    with pytest.raises(ChevalleyError):
        nc.n((2, 0), (-1, 1))  # sum (1, 1) is a root, but (2, 0) is not


@pytest.mark.parametrize("type_str", SMALL_TYPES)
def test_jacobi_identity(type_str):
    # every basis triple; the weight filter may skip only triples whose two
    # sides both vanish
    alg = ChevalleyAlgebra(structure_constants(build_root_system(type_str)))
    admitted = set(jacobi_triples(alg))
    dense = 0
    for a, b, c in jacobi_triples(alg, dense=True):
        lhs, rhs = jacobi_sides(alg, a, b, c)
        if (a, b, c) in admitted:
            assert lhs == rhs
        else:
            assert lhs == rhs == {}
        dense += 1
    assert 0 < len(admitted) <= dense
    assert jacobi_violations(alg.nc) == (0, len(admitted))


@pytest.mark.parametrize(
    "type_str,a,b",
    [("A3", 0, 1), ("B3", 0, 1), ("B3", 2, 5), ("B3", 3, 6), ("D4", 0, 2), ("D4", 1, 8), ("D4", 6, 7)],
)
def test_jacobi_oracles_catch_a_negated_constant(type_str, a, b):
    # negating one N(a, b) on a fresh table (not the cached one) must break
    # the identity, and the weight filter must keep every failing triple
    nc = StructureConstants(build_root_system(type_str))
    nc.pos[(a, b)] = -nc.pos[(a, b)]
    nc.pos[(b, a)] = -nc.pos[(b, a)]
    filtered, _ = jacobi_violations(nc)
    dense, _ = jacobi_violations(nc, dense=True)
    assert filtered == dense > 0


def test_coroot_coefficients():
    g2 = build_root_system("G2")
    assert coroot_coefficients(g2, (3, 2)) == (1, 2)
    assert coroot_coefficients(g2, (1, 0)) == (1, 0)
    assert coroot_coefficients(g2, (1, 1)) == (1, 3)
    b2 = build_root_system("B2")
    assert coroot_coefficients(b2, (1, 2)) == (1, 1)
    assert coroot_coefficients(b2, (1, 1)) == (2, 1)
    for rs in (g2, b2):
        for i, a in enumerate(rs.simple_roots):
            expect = tuple(1 if j == i else 0 for j in range(rs.rank))
            assert coroot_coefficients(rs, a) == expect


def test_bracket_cartan_pairing():
    rs = build_root_system("B2")
    alg = ChevalleyAlgebra(structure_constants(rs))
    for a in rs.roots:
        lhs = alg.bracket({("root", a): 1}, {("root", _neg(a)): 1})
        expect = {("coroot", i): c for i, c in enumerate(coroot_coefficients(rs, a)) if c}
        assert lhs == expect
        for i in range(rs.rank):
            h_on_a = alg.bracket({("coroot", i): 1}, {("root", a): 1})
            pairing = rs.pairing(a, i + 1)
            assert h_on_a == ({("root", a): pairing} if pairing else {})


def test_bracket_bilinearity_and_root_sums():
    rs = build_root_system("G2")
    alg = ChevalleyAlgebra(structure_constants(rs))
    x = {("root", (1, 0)): 2, ("coroot", 1): -1}
    y = {("root", (0, 1)): 3, ("root", (-1, 0)): 1}
    lhs = alg.bracket(x, y)
    # bracket is bilinear, so compare against the term-by-term expansion
    expect: dict = {}
    for kx, cx in x.items():
        for ky, cy in y.items():
            for k, c in alg.bracket({kx: 1}, {ky: 1}).items():
                expect[k] = expect.get(k, 0) + cx * cy * c
    assert lhs == {k: v for k, v in expect.items() if v}


FLIP_CASES = [
    ("A2", (2, 1)),
    ("A3", (3, 2, 1)),
    ("A4", (4, 3, 2, 1)),
    ("A5", (5, 4, 3, 2, 1)),
    ("D4", (1, 2, 4, 3)),
    ("D4", (4, 2, 3, 1)),
    ("D5", (1, 2, 3, 5, 4)),
    ("E6", (6, 2, 5, 4, 3, 1)),
]


@pytest.mark.parametrize("type_str,perm", FLIP_CASES)
def test_pinned_signs_are_units_and_square_to_one(type_str, perm):
    rs = build_root_system(type_str)
    aut = [a for a in diagram_automorphisms(rs) if a.perm == perm][0]
    c = _signs_by_root(rs, aut)
    for a in rs.roots:
        assert c[a] in (1, -1)
        assert c[a] * c[on_root(aut, a)] == 1
        assert c[a] == c[_neg(a)]
    for a in rs.simple_roots:
        assert c[a] == 1


def test_identity_pinning_is_trivial():
    pinned_signs.cache_clear()
    for type_str in ["A3", "E7"]:
        rs = build_root_system(type_str)
        before = structure_constants.cache_info()
        signs = pinned_signs(rs, identity_automorphism(rs))
        assert signs.signs == (1,) * len(rs.roots)
        assert structure_constants.cache_info() == before


# Every simple type with a nonidentity diagram automorphism that the CLI
# accepts, D4's triality included, and products that flip an A_2n component
# or swap components.
CLOSED_FORM_TYPES = (
    [f"A{n}" for n in range(2, 19)]
    + [f"D{n}" for n in range(4, 19)]
    + ["E6", "A4+A4+A2", "A2+A1+A2", "A2+A2+A2", "A3+A3", "A6+T1+A6", "D4+A2", "D5+D5", "E6+A2"]
)


@pytest.mark.parametrize("type_str", CLOSED_FORM_TYPES)
def test_minus_read_from_the_diagram_matches_the_recursion(type_str):
    # minus comes from the diagram, signs from the checked recursion over the
    # structure constants: on the fixed roots, c = -1 exactly on minus
    rs = build_root_system(type_str)
    ri = root_index(rs)
    auts = [aut for aut in diagram_automorphisms(rs) if not aut.is_identity]
    assert auts
    for aut in auts:
        pinned = pinned_signs(rs, aut)
        fixed = [k for k, j in enumerate(pinned.theta) if j == k]
        assert pinned.imaginary == ri.mask(fixed)
        assert pinned.minus == ri.mask(k for k in fixed if pinned.signs[k] == -1), aut.perm


@pytest.mark.parametrize("type_str", PINNED_ORACLE_TYPES)
def test_pinned_signs_match_vector_oracle(type_str):
    rs = build_root_system(type_str)
    for aut in diagram_automorphisms(rs):
        if aut.order > 2:
            continue
        c = _signs_by_root(rs, aut)
        expect = pinned_signs_by_vectors(rs, aut)
        assert {gamma: c[gamma] for gamma in rs.positive_roots} == expect
    for gamma in rs.positive_roots:
        if sum(gamma) > 1:
            assert _extraspecial_pair(rs, gamma) == extraspecial_pair_by_vectors(rs, gamma)


def test_pinned_signs_match_matrix_involution_a2():
    # theta(X) = -J X^T J^{-1} on sl(3) fixes E_13 and scales it by -1
    rs = build_root_system("A2")
    aut = [a for a in diagram_automorphisms(rs) if not a.is_identity][0]
    c = _signs_by_root(rs, aut)
    pos, sign = sl_flip_image(3, 0, 2)
    assert pos == (0, 2)
    assert c[(1, 1)] == sign == -1


def test_pinned_signs_match_matrix_involution_a3():
    rs = build_root_system("A3")
    aut = [a for a in diagram_automorphisms(rs) if not a.is_identity][0]
    c = _signs_by_root(rs, aut)
    # fixed roots: alpha_2 <-> E_23 and alpha_1+alpha_2+alpha_3 <-> E_14
    pos, sign = sl_flip_image(4, 1, 2)
    assert pos == (1, 2) and c[(0, 1, 0)] == sign == 1
    pos, sign = sl_flip_image(4, 0, 3)
    assert pos == (0, 3) and c[(1, 1, 1)] == sign == 1
    # the matrix involution is pinned: simple root vectors map with sign +1
    pos, sign = sl_flip_image(4, 0, 1)
    assert pos == (2, 3) and sign == 1


def test_matrix_fixed_dimensions():
    assert sl_flip_fixed_dim(3) == 3
    assert sl_flip_fixed_dim(4) == 10
    assert sl_flip_fixed_dim(5) == 10


@given(st.sampled_from(["A3", "B3", "C3", "G2", "F4"]), st.data())
def test_constant_magnitude_property(type_str, data):
    rs = build_root_system(type_str)
    nc = structure_constants(rs)
    a = data.draw(st.sampled_from(rs.roots))
    b = data.draw(st.sampled_from(rs.roots))
    s = _add(a, b)
    if not rs.is_root(s):
        return
    value = nc.n(a, b)
    assert abs(value) == down_string_length(rs, a, b) + 1
