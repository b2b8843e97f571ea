"""Classical symmetric pairs expressed through the involution engine.

Each family constructor pins down the engine class of a familiar symmetric
pair: a matrix group, an involution given by an explicit element or form, and
the resulting (diagram automorphism, grading) data at the standard torus.
GL families carry a one-dimensional center that the engine (which works with
the adjoint group) does not see; the FamilyClass wrapper adds it back to the
dimension counts, split when the involution inverts it and compact-or-fixed
otherwise.

Low ranks fall back to isomorphic small root systems, each stated once in
one table: B1 and C1 are A1, C2 is B2 with the two nodes swapped, D2 is
A1+A1, and D3 is A3 with nodes 1 and 2 swapped.

The module also labels classes with classical real-form names, keyed by
(type, inner/outer, fixed-subgroup dimension).  The labels of a simple type
are built from closed-form dimension formulas the first time a class of that
type is labeled, never from the engine, so they can serve as an independent
check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .classify import fixed_group_dim, split_rank as engine_split_rank
from .involution import DiagramAutomorphism, InvolutionClass, find_class
from .rootdata import MAX_RANK, build_root_system, type_string


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


# The low-rank types no engine type is named after, each as an isomorphic
# engine type and the nominal node that each of its nodes carries.
_LOW_RANK = {
    ("B", 1): ("A1", (1,)),
    ("C", 1): ("A1", (1,)),
    ("C", 2): ("B2", (2, 1)),
    ("D", 2): ("A1+A1", (1, 2)),
    ("D", 3): ("A3", (2, 1, 3)),
}
# theta0 of a family's outer class, as a node permutation of its nominal type
_FLIPS = {"A": lambda rank: tuple(range(rank, 0, -1)), "D": lambda rank: (*range(1, rank - 1), rank, rank - 1)}


def _class(letter: str, rank: int, grading, flip: bool = False) -> InvolutionClass:
    """The class of the nominal type letter + rank whose theta0 is the
    identity, or the family's flip, and whose grading on the nodes theta0
    fixes, in node order, is grading.  A low-rank type is read through
    its isomorphism in _LOW_RANK."""
    perm = _FLIPS[letter](rank) if flip else tuple(range(1, rank + 1))
    type_str, nodes = _LOW_RANK.get((letter, rank), (f"{letter}{rank}", tuple(range(1, rank + 1))))
    sign = dict(zip([v for v in range(1, rank + 1) if perm[v - 1] == v], grading))
    engine_node = {v: i for i, v in enumerate(nodes, 1)}
    aut = DiagramAutomorphism(tuple(engine_node[perm[v - 1]] for v in nodes))
    rep = tuple(sign[v] for v in nodes if perm[v - 1] == v)
    return find_class(build_root_system(type_str), aut, rep)


def gl_linear(m: int, n: int) -> FamilyClass:
    """GL(m+n) with conjugation by diag(1^m, -1^n); fixed group GL(m) x GL(n)."""
    rank = _engine_rank(m + n - 1, m >= 1 and n >= 1, "gl_linear needs m, n >= 1", m, n)
    grading = tuple(-1 if i == m else 1 for i in range(1, rank + 1))
    return FamilyClass(
        family="GL_linear",
        params=(m, n),
        ambient=f"GL{m + n}",
        description=f"conjugation by diag(1^{m}, -1^{n})",
        cls=_class("A", rank, grading),
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
        cls=_class("A", rank, (1,), flip=True),
        center_split_dim=1,
    )


def gl_orthogonal(n: int) -> FamilyClass:
    """GL(n) with g -> g^-t; fixed group O(n), center inverted."""
    rank = _engine_rank(n - 1, n >= 2, "gl_orthogonal needs n >= 2", n)
    return FamilyClass(
        family="GL_orthogonal",
        params=(n,),
        ambient=f"GL{n}",
        description="transpose-inverse",
        cls=_class("A", rank, (-1,) * (rank % 2), flip=True),
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
        cls=_class("C", n, grading),
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
        cls=_class("D", n, grading),
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
        cls = _class("B", k, grading)
    elif m % 2 == 0:
        p = min(m, n) // 2
        t = [-1] * p + [1] * (k - p)
        grading = tuple(t[i] * t[i + 1] for i in range(k - 1)) + (t[k - 2] * t[k - 1],)
        cls = _class("D", k, grading)
    else:
        p = (min(m, n) - 1) // 2
        t = [-1] * p + [1] * (k - p)
        grading = tuple(t[i] * t[i + 1] for i in range(k - 2))
        cls = _class("D", k, grading, flip=True)
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
        cls=_class("C", k, grading),
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


@lru_cache(maxsize=None)
def _real_form_table(letter: str, rank: int) -> dict[tuple[str, int], str]:
    """Real-form labels of one simple type from closed-form dimension
    formulas, rank <= 8.

    Keyed ("inner" or "outer", fixed dim) -> label.  Compact forms are
    excluded (the trivial class is labeled directly).  When two distinct
    forms of the type share a fixed dimension the labels merge with a tilde;
    this happens exactly once in scope, on D4.
    """
    max_rank = 8  # classes of rank 9 and above report as unlabeled
    table: dict[tuple[str, int], str] = {}

    def put(kind: str, dim_k: int, label: str):
        key = (kind, dim_k)
        if key not in table:
            table[key] = label
        elif label != table[key]:
            table[key] = f"{table[key]} ~ {label}"

    if rank > max_rank:
        return table
    if letter == "A":
        n = rank + 1
        for k in range(1, n // 2 + 1):
            m = n - k
            put("inner", m * m + k * k - 1, f"su({m},{k})")
        put("outer", n * (n - 1) // 2, f"sl({n},R)")
        if n % 2 == 0:
            d = n // 2
            put("outer", d * (2 * d + 1), f"su*({2 * d})")
    elif letter == "B":
        total = 2 * rank + 1
        for n in range(1, rank + 1):
            m = total - n
            put("inner", (m * (m - 1) + n * (n - 1)) // 2, f"so({m},{n})")
    elif letter == "C":
        for n in range(1, rank // 2 + 1):
            m = rank - n
            put("inner", m * (2 * m + 1) + n * (2 * n + 1), f"sp({m},{n})")
        put("inner", rank * rank, f"sp({2 * rank},R)")
    elif letter == "D":
        total = 2 * rank
        for n in range(2, rank + 1, 2):
            m = total - n
            put("inner", (m * (m - 1) + n * (n - 1)) // 2, f"so({m},{n})")
        put("inner", rank * rank, f"so*({2 * rank})")
        for n in range(1, rank + 1, 2):
            m = total - n
            if m >= n:
                put("outer", (m * (m - 1) + n * (n - 1)) // 2, f"so({m},{n})")
    exceptional = {
        ("G2", "inner", 14): [6],
        ("F4", "inner", 52): [24, 36],
        ("E6", "inner", 78): [38, 46],
        ("E6", "outer", 78): [36, 52],
        ("E7", "inner", 133): [63, 69, 79],
        ("E8", "inner", 248): [120, 136],
    }
    for (type_str, kind, dim_g), dims in exceptional.items():
        if type_str == f"{letter}{rank}":
            for dim_k in dims:
                put(kind, dim_k, f"{letter.lower()}{rank}({dim_g - 2 * dim_k})")
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
    ((letter, rank),) = rs.components
    kind = "inner" if cls.is_inner else "outer"
    return _real_form_table(letter, rank).get((kind, fixed_group_dim(cls)), "unlabeled")
