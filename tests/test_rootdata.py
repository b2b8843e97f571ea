import random

import pytest
from hypothesis import given, strategies as st

from quasisplit.involution import enumerate_involution_classes
from quasisplit.rootdata import (
    MAX_INVOLUTION_WORK,
    MAX_RANK,
    VALID_RANKS,
    RootDataError,
    RootSystem,
    _simple_cartan,
    build_root_system,
    diagram_automorphisms,
    identify_cartan,
    involution_work,
    parse_type_string,
    support_connected,
    type_string,
    weyl_order,
)
from quasisplit.weyl import root_index

from oracles import (
    bilinear,
    coxeter_number,
    diagram_automorphisms_by_permutations,
    identify_subsystem,
    norm,
    on_root,
    roots_by_reflection_closure,
)

SIMPLE_TYPES_RANK8 = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)



def seeded_products(draws: int, seed: int) -> list[str]:
    """Products of total rank <= 8 drawn from a seed: simple components,
    repeats of components already drawn, and central tori; those over the
    work bound are left out."""
    rng = random.Random(seed)
    simple = [parse_type_string(t)[0][0] for t in SIMPLE_TYPES_RANK8]
    out = set()
    for _ in range(draws):
        components: list[tuple[str, int]] = []
        room = rng.randint(2, 8)
        while True:
            pool = components if components and rng.random() < 0.4 else simple
            fitting = [c for c in pool if c[1] <= room]
            if not fitting:
                break
            components.append(rng.choice(fitting))
            room -= components[-1][1]
        order, vectors = involution_work(components)
        if components and order * vectors <= MAX_INVOLUTION_WORK:
            parts = [f"{letter}{rank}" for letter, rank in components]
            out.add("+".join(parts + ["T1"] * (rng.random() < 0.3)))
    return sorted(out)


SEARCH_ORACLE_TYPES = (
    SIMPLE_TYPES_RANK8
    + seeded_products(300, seed=6)
    + ["+".join(["A1"] * k) for k in range(2, 7)]
    + ["D4+D4", "G2+A2+G2", "A2+T1+A2", "D4+A1+A1"]
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
        assert {on_root(aut, v) for v in rs.roots} == set(rs.roots)


def test_diagram_automorphism_cycles():
    rs = build_root_system("E6")
    flip = [a for a in diagram_automorphisms(rs) if not a.is_identity][0]
    assert flip.cycle_string() == "(16)(35)"
    assert flip.fixed_nodes() == (2, 4)
    assert flip.perm == (6, 2, 5, 4, 3, 1)
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
    # the type of a whole system, from its Cartan matrix, from root strings
    # at its simple roots and from the vector Gram matrix
    for type_str in ["A3", "B3", "C3", "D4", "F4", "G2", "E6", "E7", "E8", "B2+A1"]:
        rs = build_root_system(type_str)
        ri = root_index(rs)
        expected = tuple(sorted(rs.components, key=lambda t: (-t[1], t[0])))
        assert identify_cartan(rs.cartan) == expected
        assert identify_cartan(ri.cartan(ri.simple)) == expected
        assert identify_subsystem(rs, rs.simple_roots) == expected


def _both_routes(rs, vectors):
    ri = root_index(rs)
    by_strings = identify_cartan(ri.cartan([ri.index[v] for v in vectors]))
    assert by_strings == identify_subsystem(rs, vectors)
    return by_strings


def test_identify_subsystem_long_and_short_g2():
    rs = build_root_system("G2")
    # long roots of G2 form A2, short roots form A2 as well
    long_simples = [(0, 1), (3, 1)]
    short_simples = [(1, 0), (1, 1)]
    assert _both_routes(rs, long_simples) == (("A", 2),)
    assert _both_routes(rs, short_simples) == (("A", 2),)


def _cartan(rank, bonds):
    """The matrix with 2 on the diagonal and cartan[i][j], cartan[j][i] = a, b
    for each bond (i, j, a, b)."""
    c = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for i, j, a, b in bonds:
        c[i][j], c[j][i] = a, b
    return c


def _branch(*arms):
    """Single bonds only: node 0 joined to chains of the given lengths."""
    bonds, node = [], 1
    for length in arms:
        prev = 0
        for _ in range(length):
            bonds.append((prev, node, -1, -1))
            prev, node = node, node + 1
    return _cartan(node, bonds)


def _chain(rank, *multiple):
    """A chain 0 - 1 - ... - rank-1 with the bonds (i, i+1, a, b) in place
    of single ones."""
    bonds = {i: (i, i + 1, -1, -1) for i in range(rank - 1)}
    bonds.update((bond[0], bond) for bond in multiple)
    return _cartan(rank, bonds.values())


NO_FINITE_TYPE = {
    "affine A2 (a cycle)": _cartan(3, [(0, 1, -1, -1), (1, 2, -1, -1), (0, 2, -1, -1)]),
    "affine D4 (a node of degree four)": _branch(1, 1, 1, 1),
    "affine G2": _chain(3, (1, 2, -1, -3)),
    "affine B3": _cartan(4, [(0, 2, -1, -1), (1, 2, -1, -1), (2, 3, -1, -2)]),
    "affine A1": [[2, -2], [-2, 2]],
    "a (-1, -4) bond": [[2, -1], [-4, 2]],
    "affine C2": _chain(3, (0, 1, -1, -2), (1, 2, -2, -1)),
    "two double bonds": _chain(3, (0, 1, -1, -2), (1, 2, -1, -2)),
    "affine F4": _chain(5, (2, 3, -1, -2)),
    "affine D5": _cartan(6, [(0, 2, -1, -1), (1, 2, -1, -1), (2, 3, -1, -1), (3, 4, -1, -1), (3, 5, -1, -1)]),
    "affine E6": _branch(2, 2, 2),
    "affine E7": _branch(1, 3, 3),
    "affine E8": _branch(1, 2, 5),
    "a diagonal entry of 3": [[2, -1], [-1, 3]],
}


def test_identify_cartan_refuses_diagrams_of_no_finite_type():
    # no Dynkin diagram: refused, not walked forever or given a finite type
    typed = {}
    for name, cartan in NO_FINITE_TYPE.items():
        try:
            typed[name] = identify_cartan(cartan)
        except RootDataError:
            pass
    assert not typed, typed


def test_the_refused_diagrams_are_near_misses():
    # each refused matrix is one node away from a finite type: deleting its
    # last node leaves a Dynkin diagram, so the refusal is the recognizer's
    expected = {
        "affine A2 (a cycle)": ("A", 2),
        "affine D4 (a node of degree four)": ("D", 4),
        "affine G2": ("A", 2),
        "affine B3": ("A", 3),
        "affine A1": ("A", 1),
        "a (-1, -4) bond": ("A", 1),
        "affine C2": ("B", 2),
        "two double bonds": ("B", 2),
        "affine F4": ("B", 4),
        "affine D5": ("D", 5),
        "affine E6": ("E", 6),
        "affine E7": ("E", 7),
        "affine E8": ("E", 8),
        "a diagonal entry of 3": ("A", 1),
    }
    assert expected.keys() == NO_FINITE_TYPE.keys()
    for name, simple in expected.items():
        cartan = NO_FINITE_TYPE[name]
        assert identify_cartan([row[:-1] for row in cartan[:-1]]) == (simple,), name


ALL_SIMPLE_TYPES = [(letter, rank) for letter, ranks in VALID_RANKS.items() for rank in ranks]


@given(st.lists(st.sampled_from(ALL_SIMPLE_TYPES), min_size=1, max_size=2), st.data())
def test_identify_cartan_is_blind_to_node_labels(components, data):
    # a simple type, or a block sum of two, under a random node relabeling
    blocks = [_simple_cartan(letter, rank) for letter, rank in components]
    n = sum(map(len, blocks))
    cartan = [[0] * n for _ in range(n)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            cartan[offset + i][offset : offset + len(row)] = row
        offset += len(block)
    perm = data.draw(st.permutations(range(n)))
    relabeled = [[cartan[p][q] for q in perm] for p in perm]
    assert identify_cartan(relabeled) == tuple(sorted(components, key=lambda t: (-t[1], t[0])))


def test_identify_subsystem_inside_a3():
    rs = build_root_system("A3")
    assert _both_routes(rs, [(1, 0, 0), (0, 0, 1)]) == (("A", 1), ("A", 1))
    assert _both_routes(rs, []) == ()
    assert identify_cartan([]) == ()


@given(st.sampled_from(["A2", "B2", "A3", "G2", "C3"]), st.data())
def test_reflection_preserves_form(type_str, data):
    rs = build_root_system(type_str)
    from quasisplit.weyl import reflect

    v = data.draw(st.sampled_from(rs.roots))
    w = data.draw(st.sampled_from(rs.roots))
    i = data.draw(st.integers(min_value=1, max_value=rs.rank))
    assert bilinear(rs, v, w) == bilinear(rs, reflect(rs, i, v), reflect(rs, i, w))
    assert rs.is_root(reflect(rs, i, v))


def test_root_pairing_integrality():
    # the Cartan integers <v, w^vee> = 2 (v, w) / (w, w) of the form are integers
    rs = build_root_system("G2")
    for v in rs.roots:
        for w in rs.roots:
            assert 2 * bilinear(rs, v, w) % norm(rs, w) == 0


@pytest.mark.parametrize("type_str", SEARCH_ORACLE_TYPES + ["A9", "B9", "D9"])
def test_diagram_automorphisms_match_brute_force(type_str):
    rs = build_root_system(type_str)
    found = tuple(a.perm for a in diagram_automorphisms(rs))
    assert found == diagram_automorphisms_by_permutations(rs)


def test_search_keeps_cartan_entries_in_both_directions():
    # a generalized Cartan matrix whose rows agree as multisets: checking
    # the entries towards the placed nodes alone, or from them alone, would
    # also accept node swaps
    cartan = ((2, -1, -2), (-1, 2, -2), (-1, -2, 2))
    rs = RootSystem((), 0, cartan, (1, 1, 1), ())
    found = tuple(a.perm for a in diagram_automorphisms(rs))
    assert found == diagram_automorphisms_by_permutations(rs) == ((1, 2, 3),)


@pytest.mark.parametrize("type_str", SEARCH_ORACLE_TYPES)
def test_involution_work_counts_automorphisms_and_sign_vectors(type_str):
    rs = build_root_system(type_str)
    order, vectors = involution_work(rs.components)
    assert order == len(diagram_automorphisms(rs))
    assert vectors == sum(cls.orbit_size for cls in enumerate_involution_classes(rs))


def test_rank_bound():
    assert max(r[-1] for r in VALID_RANKS.values()) == MAX_RANK
    for type_str in ["A19", "B19", "C19", "D19", "B10+C9", "E8+E7+A3+A1"]:
        with pytest.raises(RootDataError, match=f"rank {MAX_RANK + 1} exceeds the bound {MAX_RANK}"):
            build_root_system(type_str)


@pytest.mark.parametrize(
    "type_str", ["A1+A1+A1+A1+A1+A1+A1", "D4+D4+D4", "A9+A9", "A1+A1+A1+A1+B10", "E6+E6+E6"]
)
def test_work_bound_refuses_products(type_str):
    order, vectors = involution_work(parse_type_string(type_str)[0])
    assert order * vectors > MAX_INVOLUTION_WORK
    with pytest.raises(RootDataError, match=f"exceeds the bound {MAX_INVOLUTION_WORK}"):
        build_root_system(type_str)


def test_work_bound_is_that_of_the_largest_simple_type():
    work = {
        f"{letter}{ranks[-1]}": order * vectors
        for letter, ranks in VALID_RANKS.items()
        for order, vectors in [involution_work([(letter, ranks[-1])])]
    }
    assert max(work.values()) == work[f"D{MAX_RANK}"] == MAX_INVOLUTION_WORK
