"""Based root data for connected reductive groups.

A root system is specified by a product of simple types (Bourbaki numbering
within each component) plus an optional central torus.  Roots are integer
vectors in simple-root coordinates, generated from the Cartan matrix by
root-string extension, which finds them by their packed-int keys (root_key)
and carries their pairings with the simple coroots.  Everything is exact
integer arithmetic.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import compress
from operator import add, mul
from typing import Iterable, Sequence

Vector = tuple[int, ...]

# `involutions` takes 0.3-0.5 s for each classical type of rank 18 on a
# 2-vCPU VM, with --json or --merge-diagram-conjugate as well (in-process,
# best of 3); with this bound raised, rank 19 takes 0.7-0.85 s and rank 20
# 1.5-1.9 s.
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


# A root's key packs its coefficient j into the signed bit field j of width
# KEY_BITS: key(v) = sum of v_j << KEY_BITS * j, so key(-v) = -key(v) and the
# key of a sum or difference is the sum or difference of keys.  Packing is
# injective on vectors whose coefficients lie in [-63, 63].  Roots keep their
# coefficients within KEY_COEFFICIENT_BOUND (31), so every sum, difference
# and root-string step of two roots does too; simple types need at most 6 (E8).
KEY_BITS = 7
KEY_COEFFICIENT_BOUND = (1 << KEY_BITS - 2) - 1


def key_units(rank: int) -> tuple[int, ...]:
    """The keys of the simple roots alpha_1, ..., alpha_rank."""
    return tuple(1 << KEY_BITS * j for j in range(rank))


def root_key(v: Vector, units: Sequence[int]) -> int:
    """The key of v, given key_units(len(v))."""
    return sum(map(mul, v, units))


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


def _generate_positive_roots(cartan: Sequence[Sequence[int]]) -> tuple[list[Vector], list[Vector]]:
    """All positive roots by root-string extension, lowest height first, and
    the pairings <beta, alpha_i^vee> of each root beta with every simple coroot.

    beta + alpha_i is a root iff the alpha_i-string through beta extends up,
    i.e. p - <beta, alpha_i^vee> >= 1 where p counts the steps down.  Root
    strings are unbroken, so that holds iff the pairing is negative or
    beta - (pairing + 1) alpha_i is a root, which is looked up by key (see
    root_key).  The pairings of beta + alpha_i are those of beta plus
    column i of the Cartan matrix.
    """
    rank = len(cartan)
    units = key_units(rank)
    columns = [tuple(row[i] for row in cartan) for i in range(rank)]
    simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    known = set(units)
    level = sorted(zip(simples, units, columns))
    positives = [beta for beta, _, _ in level]
    pairings = [pairs for _, _, pairs in level]
    while level:
        nxt = []
        for beta, key, pairs in level:
            for i, pairing in enumerate(pairs):
                unit = units[i]
                if pairing >= 0 and key - (pairing + 1) * unit not in known:
                    continue
                up = key + unit
                if up in known:
                    continue
                if beta[i] >= KEY_COEFFICIENT_BOUND:
                    raise RootDataError(
                        f"root coefficient {beta[i] + 1} exceeds the key bound {KEY_COEFFICIENT_BOUND}"
                    )
                known.add(up)
                nxt.append((beta[:i] + (beta[i] + 1,) + beta[i + 1 :], up, tuple(map(add, pairs, columns[i]))))
        nxt.sort()
        positives.extend(beta for beta, _, _ in nxt)
        pairings.extend(pairs for _, _, pairs in nxt)
        level = nxt
    return positives, pairings


@dataclass(frozen=True)
class RootSystem:
    """Immutable based root datum: components, Cartan matrix, and all roots.

    roots lists the positive roots sorted by (height, lexicographic), followed
    by their negatives in the same order.  pairings[k][i] is
    <root_k, alpha_{i+1}^vee> for each positive root k, as root generation
    finds them; the Weyl layer builds its reflections from them.  Node
    indices are 1-based and run consecutively through the components.
    """

    components: tuple[tuple[str, int], ...]
    central_torus_dim: int
    cartan: tuple[tuple[int, ...], ...]
    lengths: tuple[int, ...]
    roots: tuple[Vector, ...]
    pairings: tuple[Vector, ...] = field(default=(), compare=False, repr=False)

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


def format_subsystem(types: Iterable[tuple[str, int]], residual_torus: int) -> str:
    parts = [f"{letter}{rank}" for letter, rank in types]
    if residual_torus:
        parts.append(f"T{residual_torus}")
    return "+".join(parts) if parts else "T0"


def type_string(rs: RootSystem) -> str:
    return format_subsystem(rs.components, rs.central_torus_dim)


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
    name = format_subsystem(components, 0)
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
    positives: list[tuple[Vector, Vector]] = []
    offset = 0
    for letter, rank in components:
        block = _simple_cartan(letter, rank)
        for i in range(rank):
            for j in range(rank):
                cartan[offset + i][offset + j] = block[i][j]
        lengths.extend(_simple_lengths(letter, rank))
        before, after = (0,) * offset, (0,) * (total - offset - rank)
        # roots and pairings of a component vanish off its nodes
        for v, pairs in zip(*_generate_positive_roots(block)):
            positives.append((before + v + after, before + pairs + after))
        offset += rank
    positives.sort(key=lambda entry: (sum(entry[0]), entry[0]))
    roots = tuple(v for v, _ in positives)
    return RootSystem(
        components=components,
        central_torus_dim=central_torus_dim,
        cartan=tuple(tuple(row) for row in cartan),
        lengths=tuple(lengths),
        roots=roots + tuple(tuple(-x for x in v) for v in roots),
        pairings=tuple(pairs for _, pairs in positives),
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

    @cached_property
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

    def fixed_nodes(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(len(self.perm)) if self.perm[i] == i + 1)

    def cycle_string(self) -> str:
        """Deterministic cycle notation, "1" for the identity."""
        return self._cycles

    @cached_property
    def _cycles(self) -> str:
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


def _component_type(
    cartan: Sequence[Sequence[int]], nodes: list[int], neighbors: list[list[int]]
) -> tuple[str, int]:
    """Identify one connected component of a Cartan matrix up to node
    relabeling, from its nodes and their neighbors, by the shape of its
    diagram (Bourbaki, Lie Groups and Lie Algebras, ch. VI, §4).

    Every bond is single, double or triple, and a finite type is a tree
    with at most one multiple bond or at most one branch node, never both.
    A triple bond is G2.  For a double bond, with short node i
    (cartan[i][j] = -2), the type is B at rank 2 or when i is an end, C when
    the long node is an end, and F4 at rank 4.  One branch node of degree
    three with arms 1, 1, k is D and with arms 1, 2, 2-4 is E; a chain of
    single bonds is A.  Everything else is refused.
    """
    rank = len(nodes)
    if rank == 1:
        return ("A", 1)
    if sum(len(neighbors[i]) for i in nodes) != 2 * (rank - 1):
        raise RootDataError("the Cartan matrix is not of finite type: its diagram is no tree")
    multiple = []  # (short node, long node) of each multiple bond
    for i in nodes:
        for j in neighbors[i]:
            if max(cartan[i][j], cartan[j][i]) != -1 or cartan[i][j] < -3:
                raise RootDataError(f"the Cartan matrix is not of finite type: nodes {i} and {j} form no bond")
            if cartan[i][j] < -1:
                multiple.append((i, j))
    hubs = [i for i in nodes if len(neighbors[i]) > 2]
    if len(multiple) + len(hubs) > 1:
        raise RootDataError("the Cartan matrix is not of finite type: more than one multiple bond or branch")
    if multiple:
        ((short, long),) = multiple
        if cartan[short][long] == -3:
            if rank == 2:
                return ("G", 2)
        elif rank == 2 or len(neighbors[short]) == 1:
            return ("B", rank)
        elif len(neighbors[long]) == 1:
            return ("C", rank)
        elif rank == 4:
            return ("F", 4)
        raise RootDataError("the Cartan matrix is not of finite type: misplaced multiple bond")
    if not hubs:
        return ("A", rank)
    (hub,) = hubs
    arms = []
    for cur in neighbors[hub]:
        prev, length = hub, 1
        while len(neighbors[cur]) == 2:  # no other branch, so each arm is a chain
            prev, cur = cur, neighbors[cur][neighbors[cur][0] == prev]
            length += 1
        arms.append(length)
    arms.sort()
    if len(arms) == 3 and arms[:2] == [1, 1]:
        return ("D", rank)
    if len(arms) == 3 and arms[:2] == [1, 2] and arms[2] <= 4:
        return ("E", rank)
    raise RootDataError("the Cartan matrix is not of finite type: unrecognized branch")


def identify_cartan(cartan: Sequence[Sequence[int]]) -> tuple[tuple[str, int], ...]:
    """Types of the connected components of a Cartan matrix, largest first.

    cartan[i][j] = <beta_j, beta_i^vee> for simple roots beta_i of a
    subsystem (weyl.RootIndex.cartan gives it from root strings).
    """
    n = len(cartan)
    if any(row[i] != 2 for i, row in enumerate(cartan)):
        raise RootDataError("the Cartan matrix is not of finite type: a diagonal entry is not 2")
    neighbors = [[j for j in compress(range(n), row) if j != i] for i, row in enumerate(cartan)]
    seen = [False] * n
    types = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        nodes = [start]
        for i in nodes:  # read as it grows
            for j in neighbors[i]:
                if not seen[j]:
                    seen[j] = True
                    nodes.append(j)
        types.append(_component_type(cartan, nodes, neighbors))
    types.sort(key=lambda t: (-t[1], t[0]))
    return tuple(types)
