import pytest
from hypothesis import given, strategies as st

from quasisplit.rootdata import (
    RootDataError,
    build_root_system,
    coxeter_number,
    diagram_automorphisms,
    identify_subsystem,
    parse_type_string,
    support_connected,
    type_string,
    weyl_order,
)

from oracles import roots_by_reflection_closure

SIMPLE_TYPES_RANK8 = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}


def test_equal_systems_hash_alike_and_share_cache_entries():
    by_string = build_root_system("A2")
    by_tuple = build_root_system((("A", 2),))
    assert by_string is not by_tuple
    assert by_string == by_tuple and hash(by_string) == hash(by_tuple)
    assert by_string != build_root_system("A1+A1")
    assert diagram_automorphisms(by_string) is diagram_automorphisms(by_tuple)


def test_parse_type_string():
    assert parse_type_string("A3") == ((("A", 3),), 0)
    assert parse_type_string("D4+A1") == ((("D", 4), ("A", 1)), 0)
    assert parse_type_string("E6+T2") == ((("E", 6),), 2)
    assert parse_type_string(" B2 + T1 ") == ((("B", 2),), 1)
    assert parse_type_string("T3") == ((), 3)


@pytest.mark.parametrize("bad", ["A0", "B1", "C2", "D3", "E5", "E9", "F5", "G3", "X2", "A"])
def test_invalid_types_rejected(bad):
    with pytest.raises(RootDataError):
        build_root_system(bad)


def test_empty_spec_is_trivial_group():
    rs = build_root_system("")
    assert rs.rank == 0 and rs.roots == () and rs.dim_group() == 0


def test_type_string_roundtrip():
    for s in ["A3", "D4+A1", "E6+T2", "B2+B2", "T1"]:
        assert type_string(build_root_system(s)) == s


@pytest.mark.parametrize("type_str", SIMPLE_TYPES_RANK8)
def test_root_counts(type_str):
    rs = build_root_system(type_str)
    letter, rank = rs.components[0]
    assert len(rs.roots) == ROOT_COUNTS[letter](rank)
    assert len(rs.positive_roots) * 2 == len(rs.roots)


@pytest.mark.parametrize("type_str", SIMPLE_TYPES_RANK8)
def test_highest_root_height_matches_coxeter_number(type_str):
    rs = build_root_system(type_str)
    letter, rank = rs.components[0]
    assert max(sum(v) for v in rs.roots) == coxeter_number(letter, rank) - 1


@pytest.mark.parametrize("type_str", ["A1", "A3", "B2", "B3", "C3", "D4", "F4", "G2", "E6", "A2+B2"])
def test_roots_match_reflection_closure(type_str):
    rs = build_root_system(type_str)
    assert frozenset(rs.roots) == roots_by_reflection_closure(rs)


def test_positive_roots_sorted_and_mirrored():
    rs = build_root_system("B3")
    pos = rs.positive_roots
    keys = [(sum(v), v) for v in pos]
    assert keys == sorted(keys)
    assert rs.roots[len(pos):] == tuple(tuple(-x for x in v) for v in pos)
    assert set(pos[: rs.rank]) == set(rs.simple_roots)


def test_cartan_symmetrization():
    for type_str in SIMPLE_TYPES_RANK8:
        rs = build_root_system(type_str)
        for i in range(rs.rank):
            for j in range(rs.rank):
                assert rs.lengths[i] * rs.cartan[i][j] == rs.lengths[j] * rs.cartan[j][i]


def test_root_membership_examples():
    e6 = build_root_system("E6")
    assert e6.is_root((1, 2, 2, 3, 2, 1))
    assert e6.is_root((1, 1, 1, 2, 1, 1))
    assert not e6.is_root((2, 2, 2, 3, 2, 1))
    a3 = build_root_system("A3")
    assert not a3.is_root((1, 0, 1))
    assert a3.is_root((1, 1, 1))
    g2 = build_root_system("G2")
    assert g2.is_root((3, 2)) and g2.is_root((3, 1)) and g2.is_root((2, 1))
    assert not g2.is_root((2, 2))


def test_weyl_orders():
    assert build_root_system("A3").weyl_group_order() == 24
    assert build_root_system("D4").weyl_group_order() == 192
    assert build_root_system("F4").weyl_group_order() == 1152
    assert build_root_system("E6").weyl_group_order() == 51840
    assert build_root_system("B2+A1").weyl_group_order() == 16
    assert weyl_order("E", 8) == 696729600


def test_dim_group():
    assert build_root_system("A1").dim_group() == 3
    assert build_root_system("E8").dim_group() == 248
    assert build_root_system("A2+T1").dim_group() == 9
    assert build_root_system("D4+A1").dim_group() == 31


DIAGRAM_AUT_COUNTS = {
    "A1": 1,
    "A2": 2,
    "A5": 2,
    "B3": 1,
    "C4": 1,
    "D4": 6,
    "D5": 2,
    "E6": 2,
    "E7": 1,
    "F4": 1,
    "G2": 1,
    "A1+A1": 2,
    "A2+A2": 8,
    "A2+B2": 2,
    "D4+A1": 6,
}


@pytest.mark.parametrize("type_str,count", sorted(DIAGRAM_AUT_COUNTS.items()))
def test_diagram_automorphism_counts(type_str, count):
    rs = build_root_system(type_str)
    auts = diagram_automorphisms(rs)
    assert len(auts) == count
    assert auts[0].is_identity
    # each automorphism permutes the root set
    for aut in auts:
        assert {aut.on_root(v) for v in rs.roots} == set(rs.roots)


def test_diagram_automorphism_cycles():
    rs = build_root_system("E6")
    flip = [a for a in diagram_automorphisms(rs) if not a.is_identity][0]
    assert flip.cycle_string() == "(16)(35)"
    assert flip.fixed_nodes() == (2, 4)
    assert flip.swapped_pairs() == ((1, 6), (3, 5))
    assert flip.order == 2
    triality = [a for a in diagram_automorphisms(build_root_system("D4")) if a.order == 3]
    assert len(triality) == 2


def test_support_connected():
    rs = build_root_system("A3")
    nodes, connected = support_connected(rs, (1, 1, 1))
    assert nodes == (1, 2, 3) and connected
    with pytest.raises(RootDataError):
        support_connected(rs, (1, 0, 1))


def test_identify_subsystem_roundtrip():
    for type_str in ["A3", "B3", "C3", "D4", "F4", "G2", "E6", "E7", "E8", "B2+A1"]:
        rs = build_root_system(type_str)
        expected = tuple(sorted(rs.components, key=lambda t: (-t[1], t[0])))
        assert identify_subsystem(rs, rs.simple_roots) == expected


def test_identify_subsystem_long_and_short_g2():
    rs = build_root_system("G2")
    # long roots of G2 form A2, short roots form A2 as well
    long_simples = [(0, 1), (3, 1)]
    short_simples = [(1, 0), (1, 1)]
    assert identify_subsystem(rs, long_simples) == (("A", 2),)
    assert identify_subsystem(rs, short_simples) == (("A", 2),)


def test_identify_subsystem_inside_a3():
    rs = build_root_system("A3")
    assert identify_subsystem(rs, [(1, 0, 0), (0, 0, 1)]) == (("A", 1), ("A", 1))
    assert identify_subsystem(rs, []) == ()


@given(st.sampled_from(["A2", "B2", "A3", "G2", "C3"]), st.data())
def test_reflection_preserves_form(type_str, data):
    rs = build_root_system(type_str)
    from quasisplit.weyl import reflect

    v = data.draw(st.sampled_from(rs.roots))
    w = data.draw(st.sampled_from(rs.roots))
    i = data.draw(st.integers(min_value=1, max_value=rs.rank))
    assert rs.bilinear(v, w) == rs.bilinear(reflect(rs, i, v), reflect(rs, i, w))
    assert rs.is_root(reflect(rs, i, v))


def test_root_pairing_integrality():
    rs = build_root_system("G2")
    for v in rs.roots:
        for w in rs.roots:
            n = rs.root_pairing(v, w)
            assert n == 2 * rs.bilinear(v, w) // rs.norm(w)
