"""Based root data for connected reductive groups.

A root system is specified by a product of simple types (Bourbaki numbering
within each component) plus an optional central torus.  Roots are integer
vectors in simple-root coordinates, generated from the Cartan matrix by
root-string extension.  Everything is exact integer arithmetic.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

Vector = tuple[int, ...]

# `involutions` takes 2-4 s for each classical type of rank 18 on a 2-vCPU
# VM, up to 9 s at rank 19 and about 10-12 s at rank 20.
MAX_RANK = 18

VALID_RANKS = {
    "A": range(1, MAX_RANK + 1),
    "B": range(2, MAX_RANK + 1),
    "C": range(3, MAX_RANK + 1),
    "D": range(4, MAX_RANK + 1),
    "E": range(6, 9),
    "F": range(4, 5),
    "G": range(2, 3),
}

# Bound on the product of the two counts of involution_work, its value for
# D18; merging diagram-conjugate classes maps each class through every
# automorphism, so this bounds that work too.
MAX_INVOLUTION_WORK = 2 * (2**MAX_RANK + 2 ** (MAX_RANK - 2))


def weyl_order(letter: str, rank: int) -> int:
    if letter == "A":
        return math.factorial(rank + 1)
    if letter in ("B", "C"):
        return 2**rank * math.factorial(rank)
    if letter == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    return {("G", 2): 12, ("F", 4): 1152, ("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600}[
        (letter, rank)
    ]


class RootDataError(ValueError):
    pass


def involution_work(components: Sequence[tuple[str, int]]) -> tuple[int, int]:
    """(order of the diagram automorphism group, number of sign vectors the
    class enumeration labels: 2**(fixed nodes) summed over its involutions).

    For m copies of a simple type X the group is Aut(X) wr S_m, with Aut(X)
    the flip of A_n (n >= 2), of D_n (n >= 5) and of E6, S3 for D4, and
    trivial otherwise.  In an involution of it the last copy is either fixed
    as a set, carrying an involution of Aut(X), or swapped with one of the
    other copies through one of |Aut(X)| maps, fixing none of their nodes.
    """
    order = vectors = 1
    for (letter, rank), m in Counter(components).items():
        if (letter, rank) == ("D", 4):
            aut, per_copy = 6, 2**4 + 3 * 2**2  # three transpositions, two fixed nodes each
        elif letter == "A" and rank > 1 or letter == "D" or (letter, rank) == ("E", 6):
            aut, per_copy = 2, 2**rank + 2 ** {"A": rank % 2, "D": rank - 2, "E": 2}[letter]
        else:
            aut, per_copy = 1, 2**rank
        counts = [1, per_copy]  # counts[k]: the sum for k copies
        for k in range(2, m + 1):
            counts.append(per_copy * counts[k - 1] + (k - 1) * aut * counts[k - 2])
        order *= math.factorial(m) * aut**m
        vectors *= counts[m]
    return order, vectors


def _simple_cartan(letter: str, rank: int) -> list[list[int]]:
    """Cartan matrix with entry [i][j] = <alpha_j, alpha_i^vee>, 0-based."""
    chain_edges = [(i, i + 1) for i in range(rank - 1)]
    if letter == "D":
        chain_edges = [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
    if letter == "E":
        # chain 1-3-4-5-6(-7)(-8) with node 2 attached to node 4
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        chain_edges = [(chain[k], chain[k + 1]) for k in range(len(chain) - 1)] + [(1, 3)]
    c = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for i, j in chain_edges:
        c[i][j] = c[j][i] = -1
    if letter == "B":
        c[rank - 1][rank - 2] = -2  # alpha_n short
    elif letter == "C":
        c[rank - 2][rank - 1] = -2  # alpha_n long
    elif letter == "F":
        c[2][1] = -2  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
    elif letter == "G":
        c[0][1] = -3  # alpha_1 short, alpha_2 long
    return c


def _simple_lengths(letter: str, rank: int) -> list[int]:
    """Half squared lengths d_i, normalized so d_i * cartan[i][j] is symmetric."""
    if letter == "B":
        return [2] * (rank - 1) + [1]
    if letter == "C":
        return [1] * (rank - 1) + [2]
    if letter == "F":
        return [2, 2, 1, 1]
    if letter == "G":
        return [1, 3]
    return [1] * rank


def _generate_positive_roots(cartan: Sequence[Sequence[int]]) -> list[Vector]:
    """All positive roots by root-string extension, lowest height first.

    beta + alpha_i is a root iff the alpha_i-string through beta extends up,
    i.e. p - <beta, alpha_i^vee> >= 1 where p counts the steps down.
    """
    rank = len(cartan)
    simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    known = set(simples)
    level = list(simples)
    positives = list(simples)
    while level:
        nxt = []
        for beta in level:
            for i in range(rank):
                pairing = sum(cartan[i][j] * beta[j] for j in range(rank))
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if down[i] < 0 or tuple(down) not in known:
                        break
                    p += 1
                if p - pairing >= 1:
                    up = list(beta)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in known:
                        known.add(cand)
                        nxt.append(cand)
        positives.extend(sorted(nxt))
        level = nxt
    positives.sort(key=lambda v: (sum(v), v))
    return positives


@dataclass(frozen=True)
class RootSystem:
    """Immutable based root datum: components, Cartan matrix, and all roots.

    roots lists the positive roots sorted by (height, lexicographic), followed
    by their negatives in the same order.  Node indices are 1-based and run
    consecutively through the components.
    """

    components: tuple[tuple[str, int], ...]
    central_torus_dim: int
    cartan: tuple[tuple[int, ...], ...]
    lengths: tuple[int, ...]
    roots: tuple[Vector, ...]

    def __post_init__(self):
        object.__setattr__(self, "_root_set", frozenset(self.roots))
        fields = (self.components, self.central_torus_dim, self.cartan, self.lengths, self.roots)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        # The generated hash would rehash every root on each cache lookup.
        return self._hash

    @property
    def rank(self) -> int:
        return len(self.cartan)

    @property
    def positive_roots(self) -> tuple[Vector, ...]:
        return self.roots[: len(self.roots) // 2]

    @property
    def simple_roots(self) -> tuple[Vector, ...]:
        return tuple(tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank))

    def is_root(self, v: Vector) -> bool:
        return v in self._root_set

    def pairing(self, v: Vector, i: int) -> int:
        """<v, alpha_i^vee> for 1-based node i."""
        row = self.cartan[i - 1]
        return sum(row[j] * v[j] for j in range(self.rank))

    def bilinear(self, v: Vector, w: Vector) -> int:
        """Weyl-invariant form (v, w) built from the symmetrized Cartan matrix."""
        total = 0
        for i in range(self.rank):
            if v[i]:
                di = self.lengths[i]
                ci = self.cartan[i]
                total += v[i] * di * sum(ci[j] * w[j] for j in range(self.rank))
        return total

    def norm(self, v: Vector) -> int:
        return self.bilinear(v, v)

    def adjacent(self, i: int, j: int) -> bool:
        return i != j and self.cartan[i - 1][j - 1] != 0

    def dim_group(self) -> int:
        return len(self.roots) + self.rank + self.central_torus_dim

    def weyl_group_order(self) -> int:
        n = 1
        for letter, rank in self.components:
            n *= weyl_order(letter, rank)
        return n


def parse_type_string(s: str) -> tuple[tuple[tuple[str, int], ...], int]:
    """Parse "A3", "D4+A1", "E6+T2" into (components, central torus dim)."""
    components: list[tuple[str, int]] = []
    torus = 0
    text = s.strip().replace(" ", "")
    if not text:
        raise RootDataError("empty type string")
    for part in text.split("+"):
        m = re.fullmatch(r"([A-GT])(\d+)", part)
        if not m:
            raise RootDataError(f"cannot parse type component {part!r}")
        letter, digits = m.groups()
        try:
            rank = int(digits)
        except ValueError:  # past the interpreter's digit limit
            raise RootDataError(f"cannot parse type component {letter}<{len(digits)} digits>") from None
        if letter == "T":
            torus += rank
        else:
            components.append((letter, rank))
    return tuple(components), torus


def type_string(rs: RootSystem) -> str:
    parts = [f"{letter}{rank}" for letter, rank in rs.components]
    if rs.central_torus_dim:
        parts.append(f"T{rs.central_torus_dim}")
    return "+".join(parts) if parts else "T0"


@lru_cache(maxsize=None)
def build_root_system(spec: str | tuple = "", central_torus_dim: int = 0) -> RootSystem:
    """Build the root system for a type string or component tuple.

    Accepts "B3", "D4+A1", "A2+T1", or an explicit tuple of (letter, rank)
    pairs.  Invalid letter/rank combinations are rejected.
    """
    if isinstance(spec, str):
        components, torus = parse_type_string(spec) if spec else ((), 0)
        central_torus_dim += torus
    else:
        components = tuple(spec)
    total = sum(rank for _, rank in components)
    name = "+".join(f"{letter}{rank}" for letter, rank in components)
    if total > MAX_RANK:
        raise RootDataError(f"{name}: rank {total} exceeds the bound {MAX_RANK}")
    for letter, rank in components:
        if letter not in VALID_RANKS or rank not in VALID_RANKS[letter]:
            raise RootDataError(f"invalid simple type {letter}{rank}")
    order, vectors = involution_work(components)
    if order * vectors > MAX_INVOLUTION_WORK:
        raise RootDataError(
            f"{name}: {order} diagram automorphisms times {vectors} sign vectors"
            f" exceeds the bound {MAX_INVOLUTION_WORK}"
        )
    if central_torus_dim < 0:
        raise RootDataError("central torus dimension must be nonnegative")

    cartan = [[0] * total for _ in range(total)]
    lengths: list[int] = []
    offset = 0
    blocks: list[tuple[int, list[Vector]]] = []
    for letter, rank in components:
        block = _simple_cartan(letter, rank)
        for i in range(rank):
            for j in range(rank):
                cartan[offset + i][offset + j] = block[i][j]
        lengths.extend(_simple_lengths(letter, rank))
        blocks.append((offset, _generate_positive_roots(block)))
        offset += rank

    positives: list[Vector] = []
    for off, block_roots in blocks:
        for v in block_roots:
            full = [0] * total
            full[off : off + len(v)] = v
            positives.append(tuple(full))
    positives.sort(key=lambda v: (sum(v), v))
    roots = tuple(positives) + tuple(tuple(-x for x in v) for v in positives)
    return RootSystem(
        components=components,
        central_torus_dim=central_torus_dim,
        cartan=tuple(tuple(row) for row in cartan),
        lengths=tuple(lengths),
        roots=roots,
    )


@dataclass(frozen=True)
class DiagramAutomorphism:
    """Node permutation preserving the Cartan matrix.  perm is 1-based."""

    perm: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.perm)

    def apply(self, i: int) -> int:
        return self.perm[i - 1]

    @property
    def is_identity(self) -> bool:
        return all(self.perm[i] == i + 1 for i in range(len(self.perm)))

    @property
    def order(self) -> int:
        n = 1
        current = self.perm
        identity = tuple(range(1, len(self.perm) + 1))
        while current != identity:
            current = tuple(self.perm[i - 1] for i in current)
            n += 1
        return n

    def on_root(self, v: Vector) -> Vector:
        out = [0] * len(v)
        for i, coeff in enumerate(v):
            if coeff:
                out[self.perm[i] - 1] = coeff
        return tuple(out)

    def fixed_nodes(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(len(self.perm)) if self.perm[i] == i + 1)

    def cycle_string(self) -> str:
        """Deterministic cycle notation, "1" for the identity."""
        seen = set()
        cycles = []
        for start in range(1, len(self.perm) + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            nxt = self.apply(start)
            while nxt != start:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = self.apply(nxt)
            if len(cycle) > 1:
                cycles.append(cycle)
        if not cycles:
            return "1"
        return "".join("(" + "".join(str(x) for x in c) + ")" for c in cycles)


@lru_cache(maxsize=None)
def diagram_automorphisms(rs: RootSystem) -> tuple[DiagramAutomorphism, ...]:
    """All Cartan-preserving node permutations in increasing order, so the
    identity comes first.

    Depth-first extension in node order: node i may map to a node j with
    the same sorted Cartan row, and only if the Cartan entries between i and
    every node already placed are preserved in both directions (so j is not
    yet used: only the diagonal holds 2).  A complete placement is an
    automorphism, so the search does work close to the size of the group,
    which build_root_system bounds.
    """
    n = rs.rank
    cartan = rs.cartan
    candidates = [[j for j in range(n) if sorted(cartan[j]) == sorted(cartan[i])] for i in range(n)]
    perm: list[int] = []
    found = []

    def place(i: int) -> None:
        if i == n:
            found.append(DiagramAutomorphism(tuple(p + 1 for p in perm)))
            return
        for j in candidates[i]:
            if all(
                cartan[j][p] == cartan[i][k] and cartan[p][j] == cartan[k][i]
                for k, p in enumerate(perm)
            ):
                perm.append(j)
                place(i + 1)
                perm.pop()

    place(0)
    return tuple(found)


def identity_automorphism(rs: RootSystem) -> DiagramAutomorphism:
    return DiagramAutomorphism(tuple(range(1, rs.rank + 1)))


def support_connected(rs: RootSystem, v: Vector) -> tuple[tuple[int, ...], bool]:
    """Support nodes of a root and whether they induce a connected subdiagram."""
    if not rs.is_root(v):
        raise RootDataError(f"{v} is not a root")
    nodes = [i + 1 for i, x in enumerate(v) if x]
    node_set = set(nodes)
    stack = [nodes[0]]
    seen = {nodes[0]}
    while stack:
        i = stack.pop()
        for j in nodes:
            if j not in seen and rs.adjacent(i, j):
                seen.add(j)
                stack.append(j)
    return tuple(nodes), seen == node_set


def _component_type_of_cartan(cartan: list[list[int]]) -> tuple[str, int]:
    """Identify a connected Cartan matrix up to node relabeling."""
    rank = len(cartan)
    if rank == 1:
        return ("A", 1)
    bonds = {}
    degree = [0] * rank
    for i in range(rank):
        for j in range(i + 1, rank):
            b = cartan[i][j] * cartan[j][i]
            if b:
                bonds[(i, j)] = b
                degree[i] += 1
                degree[j] += 1
    maxbond = max(bonds.values())
    if maxbond == 3:
        return ("G", 2)
    if maxbond == 2:
        if rank == 2:
            return ("B", 2)
        # relative lengths by propagation: c[i][j]/c[j][i] = d_j/d_i
        d = [0] * rank
        d[0] = 2
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(rank):
                if j != i and cartan[i][j] and not d[j]:
                    d[j] = d[i] * cartan[i][j] // cartan[j][i]
                    stack.append(j)
        short = sum(1 for x in d if x == min(d))
        if rank == 4 and short == 2:
            return ("F", 4)
        if short == 1:
            return ("B", rank)
        if short == rank - 1:
            return ("C", rank)
        raise RootDataError("unrecognized multiply-laced Cartan matrix")
    if max(degree) <= 2:
        return ("A", rank)
    hub = degree.index(3)
    arms = []
    for j in range(rank):
        if j != hub and bonds.get((min(hub, j), max(hub, j))):
            length = 1
            prev, cur = hub, j
            while True:
                nxt = [k for k in range(rank) if k not in (prev, cur) and bonds.get((min(cur, k), max(cur, k)))]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                length += 1
            arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return ("D", rank)
    if arms == [1, 2, 2]:
        return ("E", 6)
    if arms == [1, 2, 3]:
        return ("E", 7)
    if arms == [1, 2, 4]:
        return ("E", 8)
    raise RootDataError("unrecognized simply-laced Cartan matrix")


def identify_subsystem(rs: RootSystem, simple_vectors: Sequence[Vector]) -> tuple[tuple[str, int], ...]:
    """Type of the subsystem spanned by the given simple roots.

    Computes mutual Cartan integers with the ambient form, splits into
    connected components, and identifies each one.
    """
    vecs = list(simple_vectors)
    if not vecs:
        return ()
    n = len(vecs)
    gram = [[rs.bilinear(v, w) for v in vecs] for w in vecs]
    # cartan[i][j] = <vecs[j], vecs[i]^vee>
    cartan = [[2 * g // row[i] for g in row] for i, row in enumerate(gram)]
    unseen = set(range(n))
    types = []
    while unseen:
        start = min(unseen)
        comp = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in list(unseen - comp):
                if cartan[i][j]:
                    comp.add(j)
                    stack.append(j)
        unseen -= comp
        idx = sorted(comp)
        sub = [[cartan[i][j] for j in idx] for i in idx]
        types.append(_component_type_of_cartan(sub))
    types.sort(key=lambda t: (-t[1], t[0]))
    return tuple(types)


def format_subsystem(types: Iterable[tuple[str, int]], residual_torus: int) -> str:
    parts = [f"{letter}{rank}" for letter, rank in types]
    if residual_torus:
        parts.append(f"T{residual_torus}")
    return "+".join(parts) if parts else "T0"
