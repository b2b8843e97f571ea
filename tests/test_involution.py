import random
import re

import pytest
from hypothesis import given, strategies as st

from quasisplit.catalog import real_form_label
from quasisplit.classify import indexed_grading
from quasisplit.involution import (
    InvolutionClass,
    conjugate_class_by,
    enumerate_involution_classes,
    find_class,
    merge_diagram_conjugates,
    trivial_class,
)
from quasisplit.rootdata import (
    DiagramAutomorphism,
    build_root_system,
    diagram_automorphisms,
    identity_automorphism,
)
from quasisplit.verify import simple_types_up_to

from oracles import diagonal_sign_orbits, grading_orbits_by_tuples

CLASS_COUNTS = {
    "A1": 2,
    "A2": 3,
    "A3": 5,
    "A4": 4,
    "B2": 3,
    "B3": 4,
    "C3": 3,
    "D4": 11,
    "G2": 2,
    "F4": 3,
    "E6": 5,
    "E7": 4,
    "E8": 3,
}


@pytest.mark.parametrize("type_str,count", sorted(CLASS_COUNTS.items()))
def test_class_counts(type_str, count):
    assert len(enumerate_involution_classes(build_root_system(type_str))) == count


@pytest.mark.parametrize("type_str", simple_types_up_to(8))
def test_orbit_sizes_partition_sign_vectors(type_str):
    rs = build_root_system(type_str)
    classes = enumerate_involution_classes(rs)
    by_aut: dict = {}
    for cls in classes:
        by_aut.setdefault(cls.aut, []).append(cls)
    for aut, group in by_aut.items():
        total = sum(c.orbit_size for c in group)
        assert total == 2 ** len(aut.fixed_nodes())
        reps = [s for c in group for s in c.orbit]
        assert len(reps) == len(set(reps))
        labels = group[0].labels
        assert [labels.count(labels[c.canonical]) for c in group] == [c.orbit_size for c in group]


@pytest.mark.parametrize("type_str", ["A3", "D4"])
def test_reps_that_are_not_sign_vectors_of_the_class_are_refused(type_str):
    # entries other than +-1, wrong lengths, and the sign vectors of the
    # other theta0s with another number of fixed nodes
    rs = build_root_system(type_str)
    classes = enumerate_involution_classes(rs)
    for aut in {c.aut for c in classes}:
        f = len(aut.fixed_nodes())
        plus = (1,) * (f - 1)
        reps = [(0, *plus), (2, *plus), (*plus, -2), plus, (1, 1, *plus), (-1, -1, *plus)]
        reps += [c.canonical_rep for c in classes if len(c.fixed_nodes) != f]
        for rep in reps:
            with pytest.raises(ValueError):
                find_class(rs, aut, rep)
            for cls in classes:
                if cls.aut == aut:
                    assert not cls.contains(rep)
                    with pytest.raises(ValueError):
                        indexed_grading(cls, rep)


def test_find_class_refuses_a_theta0_that_is_not_involutive():
    rs = build_root_system("D4")
    triality = [t for t in diagram_automorphisms(rs) if t.order == 3][0]
    with pytest.raises(ValueError):
        find_class(rs, triality, (1, 1))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_inner_orbits_match_diagonal_conjugation(n):
    # inner involutions of PGL(n) come from diagonal sign matrices; conjugacy
    # orbits of their gradings under the Weyl group = S_n are computed
    # independently from the matrix picture
    rs = build_root_system(f"A{n - 1}")
    engine = {frozenset(c.orbit) for c in enumerate_involution_classes(rs) if c.is_inner}
    oracle = {frozenset(o) for o in diagonal_sign_orbits(n)}
    assert engine == oracle


def test_class_ids_a3():
    rs = build_root_system("A3")
    ids = [c.class_id for c in enumerate_involution_classes(rs)]
    assert ids == ["+++", "++-", "+-+", "(13):+", "(13):-"]


def test_class_ids_a2_outer():
    rs = build_root_system("A2")
    outer = [c for c in enumerate_involution_classes(rs) if not c.is_inner]
    assert len(outer) == 1
    assert outer[0].class_id == "(12)"
    assert outer[0].fixed_nodes == ()
    assert outer[0].quasi_split  # vacuously: no fixed nodes


def test_equal_classes_hash_alike():
    for cls in enumerate_involution_classes(build_root_system("A3")):
        rs = build_root_system((("A", 3),))
        rebuilt = InvolutionClass(rs, cls.aut, cls.fixed_nodes, cls.canonical, cls.orbit_size, list(cls.labels))
        assert rebuilt is not cls and rebuilt == cls and hash(rebuilt) == hash(cls)
        assert rebuilt.orbit == cls.orbit and rebuilt.quasi_split == cls.quasi_split


def test_trivial_class():
    rs = build_root_system("B3")
    cls = trivial_class(rs)
    assert cls.is_trivial and cls.orbit_size == 1 and not cls.quasi_split
    assert cls.class_id == "+++"


def test_exactly_one_quasi_split_class_per_automorphism():
    for type_str in sorted(CLASS_COUNTS):
        rs = build_root_system(type_str)
        by_aut: dict = {}
        for cls in enumerate_involution_classes(rs):
            by_aut.setdefault(cls.aut, []).append(cls)
        for aut, group in by_aut.items():
            assert sum(1 for c in group if c.quasi_split) == 1


def test_canonical_rep_is_orbit_minimum():
    rs = build_root_system("D4")
    for cls in enumerate_involution_classes(rs):
        key = lambda s: tuple(0 if x == 1 else 1 for x in s)
        assert list(cls.orbit) == sorted(cls.orbit, key=key)
        assert cls.canonical_rep == cls.orbit[0]


def test_find_class():
    rs = build_root_system("A3")
    aut = identity_automorphism(rs)
    cls = find_class(rs, aut, (-1, 1, -1))
    assert cls.class_id == "+-+"
    with pytest.raises(ValueError):
        find_class(rs, aut, (1, 1))


def test_conjugate_class_by_identity_fixes_everything():
    rs = build_root_system("D4")
    tau = identity_automorphism(rs)
    for cls in enumerate_involution_classes(rs):
        assert conjugate_class_by(cls, tau) is cls


def test_conjugate_class_by_triality_on_d4():
    rs = build_root_system("D4")
    taus = diagram_automorphisms(rs)
    triality = [t for t in taus if t.order == 3][0]
    cls = find_class(rs, identity_automorphism(rs), (1, 1, -1, -1))
    moved = conjugate_class_by(cls, triality)
    assert moved.is_inner and moved is not cls
    # applying tau three times returns to the start
    assert conjugate_class_by(conjugate_class_by(moved, triality), triality) is cls


def test_merge_diagram_conjugates_d4():
    rs = build_root_system("D4")
    merged = merge_diagram_conjugates(rs)
    assert len(merged) == 5
    groups = {members for _, members in merged}
    assert ("+++-", "++-+", "++--") in groups
    # group members keep enumeration order: perm (1,2,4,3) sorts before (3,2,1,4), (4,2,3,1)
    assert ("(34):++", "(13):++", "(14):++") in groups
    assert ("(34):+-", "(13):+-", "(14):+-") in groups
    sizes = sorted(len(m) for _, m in merged)
    assert sizes == [1, 1, 3, 3, 3]


def test_merge_diagram_conjugates_a1a1():
    rs = build_root_system("A1+A1")
    merged = merge_diagram_conjugates(rs)
    assert len(enumerate_involution_classes(rs)) == 5
    assert len(merged) == 4
    fused = [m for _, m in merged if len(m) == 2]
    assert fused == [("+-", "-+")]


def test_outer_swap_class_on_product():
    rs = build_root_system("A1+A1")
    outer = [c for c in enumerate_involution_classes(rs) if not c.is_inner]
    assert len(outer) == 1
    assert outer[0].class_id == "(12)"
    assert outer[0].quasi_split


def _seeded_products(seed: int, count: int) -> list[str]:
    """Products of two or three simple factors of total rank <= 6; about
    half repeat a factor, so that some theta0 swap two factors, and about
    two thirds carry a central torus."""
    rng = random.Random(seed)
    products = []
    while len(products) < count:
        factors = [rng.choice(simple_types_up_to(4)) for _ in range(rng.choice((2, 3)))]
        if rng.random() < 0.5:
            factors[-1] = factors[0]
        if sum(int(f[1:]) for f in factors) <= 6:
            products.append("+".join(factors) + rng.choice(("", "+T1", "+T2")))
    return products


def _quasi_split_form(label: str) -> bool:
    """Whether the named real form is quasi-split, read from its name alone
    (Helgason, ch. X): the split forms, su(p,p), su(p+1,p), so(p,q) with
    |p - q| <= 2 and e6(2).  The compact form is not quasi-split."""
    name = label.split(" ~ ")[0]
    if m := re.fullmatch(r"(su|so)\((\d+),(\d+)\)", name):
        return int(m[2]) - int(m[3]) <= (1 if m[1] == "su" else 2)
    if m := re.fullmatch(r"[efg](\d)\((-?\d+)\)", name):
        return m[1] == m[2] or name == "e6(2)"
    return re.fullmatch(r"(sl|sp)\(\d+,R\)", name) is not None


def _factor_classes(cls: InvolutionClass) -> tuple[list[InvolutionClass], int]:
    """The class that cls restricts to on each factor theta0 maps to itself,
    found from the canonical sign vector's entries on that factor, and the
    number of factors theta0 moves."""
    signs = dict(zip(cls.fixed_nodes, cls.canonical_rep))
    factors, moved, offset = [], 0, 0
    for letter, rank in cls.rs.components:
        nodes = range(offset + 1, offset + rank + 1)
        images = tuple(cls.aut.apply(i) - offset for i in nodes)
        if all(1 <= j <= rank for j in images):
            rep = tuple(signs[i] for i in nodes if i in signs)
            factors.append(find_class(build_root_system(f"{letter}{rank}"), DiagramAutomorphism(images), rep))
        else:
            assert not signs.keys() & set(nodes)  # a moved factor has no fixed node
            moved += 1
        offset += rank
    return factors, moved


def test_product_class_is_quasi_split_iff_every_factor_is():
    moved = tori = 0
    for type_str in _seeded_products(18, 14):
        rs = build_root_system(type_str)
        tori += rs.central_torus_dim > 0
        classes = enumerate_involution_classes(rs)
        for cls in classes:
            factors, swapped = _factor_classes(cls)
            moved += swapped
            for f in factors:  # each factor's answer against the known list
                assert f.quasi_split == _quasi_split_form(real_form_label(f)), (type_str, f.class_id)
            # a pair of factors that theta0 swaps adds no condition
            assert cls.quasi_split == all(f.quasi_split for f in factors), (type_str, cls.class_id)
        # a further central torus changes no class id and no answer
        wider = build_root_system(rs.components, rs.central_torus_dim + 1)
        assert [(c.class_id, c.quasi_split) for c in enumerate_involution_classes(wider)] == [
            (c.class_id, c.quasi_split) for c in classes
        ]
    assert moved and tori  # the draw reaches both cases


@given(st.sampled_from(["A2", "A3", "B2", "B3", "G2", "A1+A1"]), st.data())
def test_every_grading_in_exactly_one_class(type_str, data):
    rs = build_root_system(type_str)
    classes = enumerate_involution_classes(rs)
    auts = sorted({c.aut for c in classes}, key=lambda a: a.perm)
    aut = data.draw(st.sampled_from(auts))
    fixed = aut.fixed_nodes()
    rep = tuple(data.draw(st.sampled_from([1, -1])) for _ in fixed)
    holders = [c for c in classes if c.aut == aut and c.contains(rep)]
    assert len(holders) == 1


@pytest.mark.parametrize("type_str", simple_types_up_to(8) + ["A3+A3", "D4+A1", "A2+A2+A1", "E6+A2"])
def test_grading_orbits_match_tuple_route(type_str):
    # every involutive diagram automorphism: the same orbits, members and order
    rs = build_root_system(type_str)
    classes = enumerate_involution_classes(rs)
    for aut in diagram_automorphisms(rs):
        if aut.order == 2 or aut.is_identity:
            engine = [cls.orbit for cls in classes if cls.aut == aut]
            assert engine == grading_orbits_by_tuples(rs, aut)


@pytest.mark.parametrize("type_str", ["D4", "A1+A1+A1", "A3+A3", "D4+A1+A1"])
def test_merged_groups_are_closed_under_every_automorphism(type_str):
    rs = build_root_system(type_str)
    by_id = {cls.class_id: cls for cls in enumerate_involution_classes(rs)}
    merged = merge_diagram_conjugates(rs)
    assert sorted(cid for _, ids in merged for cid in ids) == sorted(by_id)
    for rep, ids in merged:
        assert rep.class_id == ids[0]
        for cid in ids:
            for tau in diagram_automorphisms(rs):
                assert conjugate_class_by(by_id[cid], tau).class_id in ids
