"""Classical symmetric pairs expressed through the involution engine.

Each family constructor pins down the engine class of a familiar symmetric
pair: a matrix group, an involution given by an explicit element or form, and
the resulting (diagram automorphism, grading) data at the standard torus.
GL families carry a one-dimensional center that the engine (which works with
the adjoint group) does not see; the FamilyClass wrapper adds it back to the
dimension counts, split when the involution inverts it and compact-or-fixed
otherwise.

Low ranks fall back to isomorphic small root systems: rank-2 symplectic data
lives in B2 with the two nodes swapped, rank-3 orthogonal data in A3, rank-2
orthogonal data in A1+A1.

The module also labels classes with classical real-form names, keyed by
(type, inner/outer, fixed-subgroup dimension).  The labels are computed once
per process from closed-form dimension formulas, never from the engine, so
they can serve as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .classify import fixed_group_dim, split_rank as engine_split_rank
from .involution import DiagramAutomorphism, Grading, InvolutionClass, find_class
from .rootdata import MAX_RANK, build_root_system, identity_automorphism, type_string


@dataclass(frozen=True)
class FamilyClass:
    """An engine class plus the center bookkeeping of its classical model."""

    family: str
    params: tuple[int, ...]
    ambient: str
    description: str
    cls: InvolutionClass
    center_fixed_dim: int = 0
    center_split_dim: int = 0

    @property
    def quasi_split(self) -> bool:
        return self.cls.quasi_split

    @property
    def dim_group(self) -> int:
        return self.cls.rs.dim_group() + self.center_fixed_dim + self.center_split_dim

    @property
    def dim_fixed(self) -> int:
        return fixed_group_dim(self.cls) + self.center_fixed_dim

    @property
    def split_rank(self) -> int | None:
        base = engine_split_rank(self.cls)
        if base is None:
            return None
        return base + self.center_split_dim

    @property
    def engine_type(self) -> str:
        return type_string(self.cls.rs)


def _engine_rank(rank: int, valid: bool, needs: str, *params: int) -> int:
    """The rank of a family's engine type.  Parameters that fail their range
    or give a rank past MAX_RANK are refused before any grading is built."""
    if not valid or rank > MAX_RANK:
        raise ValueError(f"{needs} and an engine rank <= {MAX_RANK}, got {params}")
    return rank


def _inner(type_str: str, grading) -> InvolutionClass:
    rs = build_root_system(type_str)
    return find_class(rs, identity_automorphism(rs), tuple(grading))


def _a_flip(rank: int, middle_sign: int | None) -> InvolutionClass:
    """Flip class of A_rank; for rank 1 the flip degenerates to an inner class."""
    rs = build_root_system(f"A{rank}")
    aut = DiagramAutomorphism(tuple(range(rank, 0, -1)))
    rep = () if middle_sign is None else (middle_sign,)
    return find_class(rs, aut, rep)


def _c_inner(k: int, grading) -> InvolutionClass:
    if k >= 3:
        return _inner(f"C{k}", grading)
    if k == 2:
        return _inner("B2", (grading[1], grading[0]))
    return _inner("A1", grading)


def _b_inner(k: int, grading) -> InvolutionClass:
    if k >= 2:
        return _inner(f"B{k}", grading)
    return _inner("A1", grading)


def _d_inner(k: int, grading) -> InvolutionClass:
    if k >= 4:
        return _inner(f"D{k}", grading)
    if k == 3:
        return _inner("A3", (grading[1], grading[0], grading[2]))
    return _inner("A1+A1", grading)


def _d_flip(k: int, fixed_grading) -> InvolutionClass:
    if k >= 4:
        rs = build_root_system(f"D{k}")
        perm = list(range(1, k + 1))
        perm[k - 2], perm[k - 1] = perm[k - 1], perm[k - 2]
        return find_class(rs, DiagramAutomorphism(tuple(perm)), tuple(fixed_grading))
    if k == 3:
        rs = build_root_system("A3")
        return find_class(rs, DiagramAutomorphism((3, 2, 1)), tuple(fixed_grading))
    rs = build_root_system("A1+A1")
    return find_class(rs, DiagramAutomorphism((2, 1)), ())


def gl_linear(m: int, n: int) -> FamilyClass:
    """GL(m+n) with conjugation by diag(1^m, -1^n); fixed group GL(m) x GL(n)."""
    rank = _engine_rank(m + n - 1, m >= 1 and n >= 1, "gl_linear needs m, n >= 1", m, n)
    grading = tuple(-1 if i == m else 1 for i in range(1, rank + 1))
    return FamilyClass(
        family="GL_linear",
        params=(m, n),
        ambient=f"GL{m + n}",
        description=f"conjugation by diag(1^{m}, -1^{n})",
        cls=_inner(f"A{rank}", grading),
        center_fixed_dim=1,
    )


def u_pair(m: int, n: int) -> FamilyClass:
    """Signature-(m, n) unitary pair; same engine data as gl_linear."""
    return replace(
        gl_linear(m, n), family="U_pair", description=f"unitary pair of signature ({m}, {n})"
    )


def gl_symplectic(n: int) -> FamilyClass:
    """GL(2n) with g -> J g^-t J^-1; fixed group Sp(2n), center inverted."""
    rank = _engine_rank(2 * n - 1, n >= 1, "gl_symplectic needs n >= 1", n)
    return FamilyClass(
        family="GL_symplectic",
        params=(n,),
        ambient=f"GL{2 * n}",
        description="transpose-inverse twisted by a symplectic form",
        cls=_a_flip(rank, 1),
        center_split_dim=1,
    )


def gl_orthogonal(n: int) -> FamilyClass:
    """GL(n) with g -> g^-t; fixed group O(n), center inverted."""
    rank = _engine_rank(n - 1, n >= 2, "gl_orthogonal needs n >= 2", n)
    middle = -1 if rank % 2 == 1 else None
    return FamilyClass(
        family="GL_orthogonal",
        params=(n,),
        ambient=f"GL{n}",
        description="transpose-inverse",
        cls=_a_flip(rank, middle),
        center_split_dim=1,
    )


def sp_gl(n: int) -> FamilyClass:
    """Sp(2n) with the involution whose fixed group is GL(n)."""
    _engine_rank(n, n >= 1, "sp_gl needs n >= 1", n)
    grading = tuple(-1 if i == n else 1 for i in range(1, n + 1))
    return FamilyClass(
        family="Sp_GL",
        params=(n,),
        ambient=f"Sp{2 * n}",
        description="conjugation by the scalar-i element; fixed group GL(n)",
        cls=_c_inner(n, grading),
    )


def so_gl(n: int) -> FamilyClass:
    """SO(2n) with the involution whose fixed group is GL(n)."""
    _engine_rank(n, n >= 2, "so_gl needs n >= 2", n)
    grading = tuple(-1 if i == n else 1 for i in range(1, n + 1))
    return FamilyClass(
        family="SO_GL",
        params=(n,),
        ambient=f"SO{2 * n}",
        description="conjugation by a complex structure; fixed group GL(n)",
        cls=_d_inner(n, grading),
    )


def so_pair(m: int, n: int) -> FamilyClass:
    """SO(m+n) with conjugation by diag(1^m, -1^n); fixed S(O(m) x O(n)).

    The torus picture: the sign element has p coordinate pairs equal to -1,
    where 2p is however much of the -1 block pairs up.  Parity decides the
    shape: odd total dimension stays inner in type B, even total splits into
    an inner class (m, n both even) or a diagram flip (both odd).
    """
    total = m + n
    k = _engine_rank(
        total // 2, m >= 1 and n >= 1 and total >= 3, "so_pair needs m, n >= 1 and m + n >= 3", m, n
    )
    if total % 2 == 1:
        even = m if m % 2 == 0 else n
        p = even // 2
        t = [-1] * p + [1] * (k - p)
        grading = tuple(t[i] * t[i + 1] for i in range(k - 1)) + (t[k - 1],)
        cls = _b_inner(k, grading)
    elif m % 2 == 0:
        p = min(m, n) // 2
        t = [-1] * p + [1] * (k - p)
        grading = tuple(t[i] * t[i + 1] for i in range(k - 1)) + (t[k - 2] * t[k - 1],)
        cls = _d_inner(k, grading)
    else:
        p = (min(m, n) - 1) // 2
        t = [-1] * p + [1] * (k - p)
        grading = tuple(t[i] * t[i + 1] for i in range(k - 2))
        cls = _d_flip(k, grading)
    return FamilyClass(
        family="SO_pair",
        params=(m, n),
        ambient=f"SO{total}",
        description=f"conjugation by diag(1^{m}, -1^{n})",
        cls=cls,
    )


def sp_pair(m: int, n: int) -> FamilyClass:
    """Sp(2m+2n) with conjugation by diag blocks; fixed Sp(2m) x Sp(2n)."""
    k = _engine_rank(m + n, m >= 1 and n >= 1, "sp_pair needs m, n >= 1", m, n)
    grading = tuple(-1 if i == m else 1 for i in range(1, k + 1))
    return FamilyClass(
        family="Sp_pair",
        params=(m, n),
        ambient=f"Sp{2 * k}",
        description=f"conjugation by the (1^{2 * m}, -1^{2 * n}) block element",
        cls=_c_inner(k, grading),
    )


FAMILIES = {
    "GL_linear": (gl_linear, 2),
    "U_pair": (u_pair, 2),
    "GL_symplectic": (gl_symplectic, 1),
    "GL_orthogonal": (gl_orthogonal, 1),
    "Sp_GL": (sp_gl, 1),
    "SO_GL": (so_gl, 1),
    "SO_pair": (so_pair, 2),
    "Sp_pair": (sp_pair, 2),
}


@lru_cache(maxsize=1)
def _real_form_table() -> dict[tuple[str, str, int], str]:
    """Real-form labels from closed-form dimension formulas, rank <= 8.

    Keyed (type string, "inner" or "outer", fixed dim) -> label.  Compact
    forms are excluded (the trivial class is labeled directly).  When two
    distinct forms of one type share a fixed dimension the labels merge with
    a tilde; this happens exactly once in scope, on D4.
    """
    max_rank = 8  # classes of rank 9 and above report as unlabeled
    table: dict[tuple[str, str, int], str] = {}

    def put(type_str: str, kind: str, dim_k: int, label: str):
        key = (type_str, kind, dim_k)
        if key not in table:
            table[key] = label
        elif label != table[key]:
            table[key] = f"{table[key]} ~ {label}"

    for rank in range(1, max_rank + 1):
        n = rank + 1
        for k in range(1, n // 2 + 1):
            m = n - k
            put(f"A{rank}", "inner", m * m + k * k - 1, f"su({m},{k})")
        put(f"A{rank}", "outer", n * (n - 1) // 2, f"sl({n},R)")
        if n % 2 == 0:
            d = n // 2
            put(f"A{rank}", "outer", d * (2 * d + 1), f"su*({2 * d})")
    for k in range(2, max_rank + 1):
        total = 2 * k + 1
        for n in range(1, k + 1):
            m = total - n
            put(f"B{k}", "inner", (m * (m - 1) + n * (n - 1)) // 2, f"so({m},{n})")
    for k in range(3, max_rank + 1):
        for n in range(1, k // 2 + 1):
            m = k - n
            put(f"C{k}", "inner", m * (2 * m + 1) + n * (2 * n + 1), f"sp({m},{n})")
        put(f"C{k}", "inner", k * k, f"sp({2 * k},R)")
    for k in range(4, max_rank + 1):
        total = 2 * k
        for n in range(2, k + 1, 2):
            m = total - n
            put(f"D{k}", "inner", (m * (m - 1) + n * (n - 1)) // 2, f"so({m},{n})")
        put(f"D{k}", "inner", k * k, f"so*({2 * k})")
        for n in range(1, k + 1, 2):
            m = total - n
            if m >= n:
                put(f"D{k}", "outer", (m * (m - 1) + n * (n - 1)) // 2, f"so({m},{n})")
    exceptional = {
        ("G2", "inner", 14): [6],
        ("F4", "inner", 52): [24, 36],
        ("E6", "inner", 78): [38, 46],
        ("E6", "outer", 78): [36, 52],
        ("E7", "inner", 133): [63, 69, 79],
        ("E8", "inner", 248): [120, 136],
    }
    for (type_str, kind, dim_g), dims in exceptional.items():
        for dim_k in dims:
            chi = dim_g - 2 * dim_k
            put(type_str, kind, dim_k, f"{type_str[0].lower()}{type_str[1]}({chi})")
    return table


def real_form_label(cls: InvolutionClass) -> str:
    """Classical name of the real form this class corresponds to.

    Only single simple components are labeled; the trivial class is the
    compact form, and anything off the table reports as unlabeled.
    """
    if cls.is_trivial:
        return "compact"
    rs = cls.rs
    if len(rs.components) != 1 or rs.central_torus_dim:
        return "unlabeled"
    kind = "inner" if cls.is_inner else "outer"
    return _real_form_table().get((type_string(rs), kind, fixed_group_dim(cls)), "unlabeled")
