import itertools

import pytest

from quasisplit.catalog import (
    FAMILIES,
    gl_linear,
    gl_orthogonal,
    gl_symplectic,
    real_form_label,
    so_gl,
    so_pair,
    sp_gl,
    sp_pair,
    u_pair,
    _real_form_table,
)
from quasisplit.involution import enumerate_involution_classes, trivial_class
from quasisplit.rootdata import build_root_system
from quasisplit.verify import simple_types_up_to


def test_gl_linear_dimensions():
    for m, n in itertools.combinations_with_replacement(range(1, 5), 2):
        fam = gl_linear(m, n)
        assert fam.dim_group == (m + n) ** 2
        assert fam.dim_fixed == m * m + n * n
        assert fam.quasi_split == (abs(m - n) <= 1)


def test_u_pair_split_rank():
    for m, n in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3)]:
        fam = u_pair(m, n)
        assert fam.quasi_split
        assert fam.split_rank == min(m, n)
    assert not u_pair(3, 1).quasi_split
    assert u_pair(3, 1).split_rank is None


def test_gl_symplectic():
    for n in range(1, 5):
        fam = gl_symplectic(n)
        assert fam.dim_group == 4 * n * n
        assert fam.dim_fixed == n * (2 * n + 1)
        assert not fam.quasi_split
    # GL(2): transpose-inverse twisted by J is conjugation by J, inner
    assert gl_symplectic(1).engine_type == "A1"
    assert gl_symplectic(1).cls.is_inner


def test_gl_orthogonal():
    for n in range(2, 9):
        fam = gl_orthogonal(n)
        assert fam.dim_group == n * n
        assert fam.dim_fixed == n * (n - 1) // 2
        assert fam.quasi_split
        # engine sees the adjoint split rank; the inverted center adds one
        assert fam.split_rank == n


def test_sp_gl():
    for n in range(1, 5):
        fam = sp_gl(n)
        assert fam.dim_group == n * (2 * n + 1)
        assert fam.dim_fixed == n * n
        assert fam.quasi_split
        assert fam.split_rank == n


def test_so_gl():
    for n in range(2, 6):
        fam = so_gl(n)
        assert fam.dim_group == n * (2 * n - 1)
        assert fam.dim_fixed == n * n
        assert not fam.quasi_split


def test_so_pair_dimensions_and_quasi_splitness():
    for m in range(1, 9):
        for n in range(1, 9):
            if m + n < 3 or m + n > 9:
                continue
            fam = so_pair(m, n)
            total = m + n
            assert fam.dim_group == total * (total - 1) // 2
            assert fam.dim_fixed == (m * (m - 1) + n * (n - 1)) // 2
            assert fam.quasi_split == (abs(m - n) <= 2)
            if fam.quasi_split:
                assert fam.split_rank == min(m, n)


def test_so_pair_symmetry():
    for m, n in [(4, 2), (5, 3), (3, 2), (5, 4)]:
        assert so_pair(m, n).cls is so_pair(n, m).cls


def test_sp_pair():
    for m in range(1, 4):
        for n in range(1, 4):
            if m + n > 4:
                continue
            fam = sp_pair(m, n)
            k = m + n
            assert fam.dim_group == k * (2 * k + 1)
            assert fam.dim_fixed == m * (2 * m + 1) + n * (2 * n + 1)
            assert not fam.quasi_split


def test_low_rank_fallbacks():
    assert so_pair(2, 1).engine_type == "A1" and so_pair(2, 1).cls.class_id == "-"
    assert so_pair(3, 1).engine_type == "A1+A1" and so_pair(3, 1).cls.class_id == "(12)"
    assert so_pair(2, 2).engine_type == "A1+A1" and so_pair(2, 2).cls.class_id == "--"
    assert so_pair(3, 2).engine_type == "B2"
    assert sp_pair(1, 1).engine_type == "B2" and sp_pair(1, 1).cls.class_id == "+-"
    assert sp_gl(2).engine_type == "B2" and sp_gl(2).cls.class_id == "-+"
    assert sp_gl(1).engine_type == "A1" and sp_gl(1).cls.class_id == "-"
    assert so_gl(2).engine_type == "A1+A1" and so_gl(2).cls.class_id == "+-"
    assert so_gl(3).engine_type == "A3" and so_gl(3).cls.class_id == "++-"
    assert gl_orthogonal(2).engine_type == "A1" and gl_orthogonal(2).cls.class_id == "-"
    assert gl_symplectic(1).cls.is_trivial


def test_exceptional_isomorphisms_agree():
    # sp(4,R) = so(3,2), su(2,2) = so(4,2), sl(4,R) = so(3,3), su(3,1) = so*(6)
    assert sp_gl(2).cls is so_pair(3, 2).cls
    assert gl_linear(2, 2).cls is so_pair(4, 2).cls
    assert gl_orthogonal(4).cls is so_pair(3, 3).cls
    assert gl_linear(3, 1).cls is so_gl(3).cls
    assert gl_symplectic(2).cls is so_pair(5, 1).cls


def test_families_registry():
    assert set(FAMILIES) == {
        "GL_linear",
        "U_pair",
        "GL_symplectic",
        "GL_orthogonal",
        "Sp_GL",
        "SO_GL",
        "SO_pair",
        "Sp_pair",
    }
    for name, (builder, arity) in FAMILIES.items():
        args = (2, 2)[:arity] if name != "SO_pair" else (3, 2)
        fam = builder(*args)
        assert fam.family == name
        assert fam.params == args


def test_real_form_labels():
    assert real_form_label(so_pair(5, 3).cls) == "so(5,3)"
    assert real_form_label(so_pair(6, 2).cls) == "so(6,2) ~ so*(8)"
    assert real_form_label(so_gl(4).cls) == "so(6,2) ~ so*(8)"
    assert real_form_label(gl_linear(2, 2).cls) == "su(2,2)"
    assert real_form_label(gl_orthogonal(4).cls) == "sl(4,R)"
    assert real_form_label(gl_symplectic(2).cls) == "su*(4)"
    assert real_form_label(sp_pair(1, 2).cls) == "sp(2,1)"
    assert real_form_label(sp_gl(3).cls) == "sp(6,R)"
    assert real_form_label(so_gl(3).cls) == "su(3,1)"
    assert real_form_label(so_pair(4, 3).cls) == "so(4,3)"
    assert real_form_label(trivial_class(build_root_system("G2"))) == "compact"
    assert real_form_label(trivial_class(build_root_system("A1+A1"))) == "compact"
    assert real_form_label(so_pair(3, 1).cls) == "unlabeled"  # product type


def test_real_form_labels_cover_rank_8():
    # the formulas label every class through rank 8 and nothing beyond it
    for type_str in simple_types_up_to(8):
        for cls in enumerate_involution_classes(build_root_system(type_str)):
            assert real_form_label(cls) != "unlabeled", (type_str, cls.class_id)
    for type_str in ("A9", "D9"):
        for cls in enumerate_involution_classes(build_root_system(type_str)):
            if not cls.is_trivial:
                assert real_form_label(cls) == "unlabeled", (type_str, cls.class_id)


def test_real_form_table_exceptional_entries():
    assert _real_form_table("E", 6) == {
        ("inner", 38): "e6(2)", ("inner", 46): "e6(-14)", ("outer", 36): "e6(6)", ("outer", 52): "e6(-26)",
    }
    assert _real_form_table("G", 2) == {("inner", 6): "g2(2)"}
    assert _real_form_table("F", 4) == {("inner", 24): "f4(4)", ("inner", 36): "f4(-20)"}
    assert _real_form_table("D", 4)["inner", 16] == "so(6,2) ~ so*(8)"


def test_real_form_tables_per_type():
    # one table per simple type through rank 8, none beyond
    sizes = {t: len(_real_form_table(t[0], int(t[1:]))) for t in simple_types_up_to(8)}
    assert all(sizes.values())
    assert sum(sizes.values()) == 134
    assert _real_form_table("A", 9) == _real_form_table("D", 9) == {}


def test_family_guards():
    with pytest.raises(ValueError):
        gl_linear(0, 3)
    with pytest.raises(ValueError):
        so_pair(1, 1)
    with pytest.raises(ValueError):
        gl_orthogonal(1)
