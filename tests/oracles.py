"""Independent recomputations used to pin expected values in the tests.

Every numerical answer here is derived by a different route than the
implementation uses: reflection closures instead of string extension, matrix
models instead of structure-constant recursions, permutation orbits instead
of folded-generator transport.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np

from quasisplit.chevalley import pinned_signs, structure_constants
from quasisplit.rootdata import RootSystem, Vector, format_subsystem, identify_subsystem
from quasisplit.weyl import folded_generators, reflect


def roots_by_reflection_closure(rs: RootSystem) -> frozenset[Vector]:
    """All roots as the closure of the simple roots under simple reflections."""
    rank = rs.rank
    cartan = rs.cartan

    def reflect(i: int, v: Vector) -> Vector:
        pairing = sum(cartan[i][j] * v[j] for j in range(rank))
        out = list(v)
        out[i] -= pairing
        return tuple(out)

    frontier = set(rs.simple_roots)
    seen = set(frontier)
    while frontier:
        nxt = set()
        for v in frontier:
            for i in range(rank):
                w = reflect(i, v)
                if w not in seen:
                    seen.add(w)
                    nxt.add(w)
        frontier = nxt
    return frozenset(seen)


class VectorChamber:
    """The Weyl group element w = s_{word[0]} ... s_{word[-1]} by vector arithmetic.

    images[j] = w(alpha_{j+1}) and inv_images[j] = w^{-1}(alpha_{j+1}) in
    simple-root coordinates, built letter by letter: right multiplication by
    s_i reflects the image columns of w and applies s_i on the left of w^{-1}.
    No root indices are involved, so it checks the orientation of the
    indexed chambers in ``quasisplit.weyl``.
    """

    def __init__(self, rs: RootSystem, word: tuple[int, ...] = ()):
        self.rs = rs
        self.word = tuple(word)
        images = [list(a) for a in rs.simple_roots]
        inv_images = [list(a) for a in rs.simple_roots]
        for i in self.word:
            row = rs.cartan[i - 1]
            base = list(images[i - 1])
            for j in range(rs.rank):
                if row[j]:
                    images[j] = [x - row[j] * b for x, b in zip(images[j], base)]
            for v in inv_images:
                v[i - 1] -= sum(row[k] * v[k] for k in range(rs.rank))
        self.images = tuple(map(tuple, images))
        self.inv_images = tuple(map(tuple, inv_images))

    @staticmethod
    def _combine(columns, v: Vector) -> Vector:
        out = [0] * len(v)
        for coeff, col in zip(v, columns):
            for k, x in enumerate(col):
                out[k] += coeff * x
        return tuple(out)

    def act(self, v: Vector) -> Vector:
        return self._combine(self.images, v)

    def act_inv(self, v: Vector) -> Vector:
        return self._combine(self.inv_images, v)

    def w_positive_roots(self) -> frozenset[Vector]:
        """Roots beta with w^{-1} beta positive."""
        return frozenset(v for v in self.rs.roots if sum(self.act_inv(v)) > 0)


def randrange_words(rs: RootSystem, count: int, seed: int) -> list[tuple[int, ...]]:
    """The words of weyl.random_chambers drawn letter by letter: one
    Random(seed).randrange(1, rank + 1) per letter, words of length four
    times the number of positive roots (at least 4)."""
    rng = random.Random(seed)
    length = max(4, 2 * len(rs.roots))
    return [tuple(rng.randrange(1, rs.rank + 1) for _ in range(length)) for _ in range(count)]


def coxeter_number(letter: str, rank: int) -> int:
    """Coxeter number of a simple type (Bourbaki, plates I-IX)."""
    if letter == "A":
        return rank + 1
    if letter in ("B", "C"):
        return 2 * rank
    if letter == "D":
        return 2 * rank - 2
    return {("E", 6): 12, ("E", 7): 18, ("E", 8): 30, ("F", 4): 12, ("G", 2): 6}[(letter, rank)]


def diagram_automorphisms_by_permutations(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Every Cartan-preserving node permutation (1-based), found by trying
    all rank! permutations; identity first, then in increasing order."""
    n = rs.rank
    cartan = rs.cartan
    found = [
        tuple(p + 1 for p in perm)
        for perm in itertools.permutations(range(n))
        if all(cartan[perm[i]][perm[j]] == cartan[i][j] for i in range(n) for j in range(n))
    ]
    identity = tuple(range(1, n + 1))
    return tuple(sorted(found, key=lambda perm: (perm != identity, perm)))


def grading_orbits_by_tuples(rs: RootSystem, aut) -> list[tuple[tuple[int, ...], ...]]:
    """Sign-vector orbits of a diagram involution, on +-1 tuples.

    Each folded generator acts by s'_i = c(g alpha_i) * prod_j s_j^(m_j), m
    the fixed-node coefficients of g(alpha_i), with g(alpha_i) found by
    reflecting vectors.  Orbits are closed by a search over the full tuple
    domain that refuses duplicates and images outside it; each orbit is
    sorted with +1 before -1, and orbits come in order of their first member.
    """
    fixed = aut.fixed_nodes()
    signs = pinned_signs(rs, aut).signs
    index = {v: k for k, v in enumerate(rs.roots)}
    actions = []
    for word in folded_generators(rs, aut.perm):
        rows = []
        for node in fixed:
            image = rs.simple_roots[node - 1]
            for i in reversed(word):
                image = reflect(rs, i, image)
            rows.append((signs[index[image]], [image[f - 1] % 2 for f in fixed]))
        actions.append(rows)

    def act(rows, s):
        out = []
        for sign, mask in rows:
            for x, m in zip(s, mask):
                if m:
                    sign *= x
            out.append(sign)
        return tuple(out)

    domain = list(itertools.product((1, -1), repeat=len(fixed)))
    pool = set(domain)
    if len(pool) != len(domain):
        raise AssertionError("domain has duplicates")
    unseen = set(domain)
    orbits = []
    for x in domain:
        if x not in unseen:
            continue
        unseen.discard(x)
        orbit = [x]
        for y in orbit:
            for rows in actions:
                z = act(rows, y)
                if z not in pool:
                    raise AssertionError(f"generator image {z!r} left the domain")
                if z in unseen:
                    unseen.discard(z)
                    orbit.append(z)
        orbits.append(tuple(sorted(orbit, key=lambda s: [x == -1 for x in s])))
    return orbits


def _height_order(v: Vector) -> tuple[int, Vector]:
    return (sum(v), v)


def extraspecial_pair_by_vectors(rs: RootSystem, gamma: Vector) -> tuple[Vector, Vector]:
    """(mu, gamma - mu) for the smallest positive mu, in (height, vector)
    order, whose difference from gamma is a positive root; found by vector
    subtraction."""
    positive = set(rs.positive_roots)
    summands = [a for a in rs.positive_roots if tuple(g - x for g, x in zip(gamma, a)) in positive]
    mu = min(summands, key=_height_order)
    return mu, tuple(g - x for g, x in zip(gamma, mu))


def pinned_signs_by_vectors(rs: RootSystem, aut) -> dict[Vector, Fraction]:
    """c on the positive roots by induction on height over vectors:
    c(gamma) = c(mu) c(nu) N(theta0 mu, theta0 nu) / N(mu, nu) for the
    extraspecial pair of gamma, c = 1 on the simple roots.  No shortcut for
    the identity."""
    nc = structure_constants(rs)
    signs: dict[Vector, Fraction] = {}
    for gamma in sorted(rs.positive_roots, key=_height_order):
        if sum(gamma) == 1:
            signs[gamma] = Fraction(1)
            continue
        mu, nu = extraspecial_pair_by_vectors(rs, gamma)
        top = signs[mu] * signs[nu] * nc.n(aut.on_root(mu), aut.on_root(nu))
        signs[gamma] = top / nc.n(mu, nu)
    return signs


def _eps_by_vectors(cls, rep, beta: Vector) -> int:
    """eps of an imaginary root: pinned sign times the grading signs at the
    fixed nodes where beta has an odd coefficient."""
    value = pinned_signs(cls.rs, cls.aut).signs[cls.rs.roots.index(beta)]
    for k, node in enumerate(cls.fixed_nodes):
        if beta[node - 1] % 2:
            value *= rep[k]
    return value


def unipotent_fixed_dim_by_vectors(cls, rep, positive: frozenset[Vector]) -> int:
    """Fixed unipotent dimension at a chamber with w-positive roots positive,
    root by root: compact imaginary roots count one, complex pairs inside
    count one diagonal."""
    total = 0
    for beta in positive:
        tb = cls.aut.on_root(beta)
        if tb == beta:
            if _eps_by_vectors(cls, rep, beta) == 1:
                total += 1
        elif tb > beta and tb in positive:
            total += 1
    return total


def unipotent_image_dim_by_vectors(cls, rep, walls: tuple[Vector, ...], positive: frozenset[Vector]) -> int:
    """Wall image of the fixed unipotent part, wall by wall: a compact wall
    counts one, a complex wall with w-positive partner counts one, shared
    when the partner is a wall too."""
    total = 0
    for beta in walls:
        tb = cls.aut.on_root(beta)
        if tb == beta:
            if _eps_by_vectors(cls, rep, beta) == 1:
                total += 1
        elif tb in positive:
            if tb not in walls or beta < tb:
                total += 1
    return total


def k_subsystem_by_vectors(cls) -> str:
    """Compact subsystem type of an inner class: the compact positive roots
    that are not a compact positive root plus another, found by vector
    subtraction."""
    rs = cls.rs
    rep = cls.canonical_rep
    compact_pos = [b for b in rs.positive_roots if _eps_by_vectors(cls, rep, b) == 1]
    compact_set = set(compact_pos)
    simples = [
        beta for beta in compact_pos
        if not any(tuple(b - g for b, g in zip(beta, gamma)) in compact_set for gamma in compact_pos)
    ]
    residual = rs.rank - len(simples) + rs.central_torus_dim
    return format_subsystem(identify_subsystem(rs, simples), residual)


def _alternating_antidiagonal(n: int) -> np.ndarray:
    J = np.zeros((n, n))
    for k in range(n):
        J[k, n - 1 - k] = (-1) ** k
    return J


def sl_flip_image(n: int, a: int, b: int) -> tuple[tuple[int, int], int]:
    """theta(E_ab) for theta(X) = -J X^T J^{-1} on gl(n), as (position, sign).

    J is the alternating antidiagonal matrix, which makes theta fix the
    simple root vectors E_{k,k+1}; 0-based indices.
    """
    J = _alternating_antidiagonal(n)
    Jinv = np.linalg.inv(J)
    E = np.zeros((n, n))
    E[a, b] = 1
    image = -J @ E.T @ Jinv
    nonzero = np.argwhere(np.abs(image) > 0.5)
    assert len(nonzero) == 1
    c, d = (int(x) for x in nonzero[0])
    return (c, d), int(round(image[c, d]))


def sl_flip_fixed_dim(n: int) -> int:
    """Fixed dimension of the pinned flip on sl(n), by numpy rank count.

    theta inverts the scalars, so the gl(n) fixed space equals the sl(n) one.
    """
    J = _alternating_antidiagonal(n)
    Jinv = np.linalg.inv(J)
    M = np.zeros((n * n, n * n))
    for idx, (a, b) in enumerate(itertools.product(range(n), repeat=2)):
        E = np.zeros((n, n))
        E[a, b] = 1
        M[:, idx] = (-J @ E.T @ Jinv).flatten()
    return n * n - int(np.linalg.matrix_rank(M - np.eye(n * n)))


def diagonal_sign_orbits(n: int) -> set[frozenset]:
    """Grading orbits of inner involutions of the rank n-1 projective linear
    group, from diagonal sign matrices and coordinate permutations.

    diag(d) grades the superdiagonal by s_i = d_i d_{i+1}; permutations give
    the Weyl action and the global flip gives the center.  The distinct
    orbits are the expected involution classes.
    """
    orbits = set()
    for d in itertools.product((1, -1), repeat=n):
        gradings = set()
        for perm in itertools.permutations(range(n)):
            e = [d[p] for p in perm]
            gradings.add(tuple(e[i] * e[i + 1] for i in range(n - 1)))
        orbits.add(frozenset(gradings))
    return orbits


def unipotent_fixed_dim_gl(d: tuple[int, ...], perm: tuple[int, ...]) -> int:
    """Fixed dimension of Int(diag(d)) on a permuted strictly-upper-triangular
    nilradical of gl(n): the (perm[a], perm[b]) entry with a < b survives iff
    the two signs agree."""
    n = len(d)
    return sum(1 for a in range(n) for b in range(a + 1, n) if d[perm[a]] == d[perm[b]])


def unipotent_image_dim_gl(d: tuple[int, ...], perm: tuple[int, ...]) -> int:
    """Superdiagonal image of the fixed nilradical for Int(diag(d))."""
    n = len(d)
    return sum(1 for a in range(n - 1) if d[perm[a]] == d[perm[a + 1]])


def coroot_coefficients(rs: RootSystem, a: Vector) -> Vector:
    """a^vee in the simple coroot basis: coefficient i is (d_i / d_a) * a_i.

    Always integral because long-root lengths divide evenly along strings.
    """
    da2 = rs.norm(a)
    out = []
    for i in range(rs.rank):
        q, r = divmod(a[i] * 2 * rs.lengths[i], da2)
        if r:
            raise AssertionError(f"coroot of {a} not integral")
        out.append(q)
    return tuple(out)


class ChevalleyAlgebra:
    """The Lie algebra on the Chevalley basis with the constants N(a, b) of a
    StructureConstants instance nc, in exact integers.

    An element is a dict from basis keys to nonzero coefficients: ("root", a)
    for the root vector e_a and ("coroot", i) for the 0-based simple coroot
    h_i.  basis lists the roots in rs.roots order and then the coroots, and
    weights[k] is the weight of basis[k] (0 for a coroot).  The bracket of two
    basis keys is computed once and kept.
    """

    def __init__(self, nc):
        self.nc = nc
        self.rs = rs = nc.rs
        self.basis = [("root", v) for v in rs.roots] + [("coroot", i) for i in range(rs.rank)]
        self.weights = list(rs.roots) + [(0,) * rs.rank] * rs.rank
        self._brackets: dict = {}

    def basis_bracket(self, kx, ky) -> dict:
        out = self._brackets.get((kx, ky))
        if out is None:
            out = self._brackets[(kx, ky)] = self._compute(kx, ky)
        return out

    def _compute(self, kx, ky) -> dict:
        rs = self.rs
        if kx[0] == "coroot" and ky[0] == "coroot":
            return {}
        if kx[0] == "coroot":
            value = rs.pairing(ky[1], kx[1] + 1)
            return {ky: value} if value else {}
        if ky[0] == "coroot":
            value = -rs.pairing(kx[1], ky[1] + 1)
            return {kx: value} if value else {}
        a, b = kx[1], ky[1]
        s = tuple(x + y for x, y in zip(a, b))
        if not any(s):
            return {("coroot", i): c for i, c in enumerate(coroot_coefficients(rs, a)) if c}
        if rs.is_root(s):
            return {("root", s): self.nc.n(a, b)}
        return {}

    def bracket(self, x: dict, y: dict) -> dict:
        """Bilinear extension of basis_bracket."""
        out: dict = {}
        for kx, cx in x.items():
            for ky, cy in y.items():
                for k, c in self.basis_bracket(kx, ky).items():
                    out[k] = out.get(k, 0) + cx * cy * c
        return {k: c for k, c in out.items() if c}


def jacobi_triples(alg: ChevalleyAlgebra, dense: bool = False):
    """Basis index triples (a, b, c), b < c, of the Jacobi identity
    [x_a, [x_b, x_c]] = [[x_a, x_b], x_c] + [x_b, [x_a, x_c]].

    Every term lies in the weight space of wt(a) + wt(b) + wt(c), which is
    zero outside Phi u {0}.  So unless dense, only the triples whose weights
    sum into Phi u {0} are yielded (Carter, Simple Groups of Lie Type, 4.1).
    The identity is antisymmetric in b, c, so b < c suffices.
    """
    n = len(alg.basis)
    pairs = list(itertools.combinations(range(n), 2))
    if dense:
        for a in range(n):
            for b, c in pairs:
                yield a, b, c
        return
    weights = alg.weights
    by_sum: dict = {}
    for b, c in pairs:
        key = tuple(x + y for x, y in zip(weights[b], weights[c]))
        by_sum.setdefault(key, []).append((b, c))
    targets = [*alg.rs.roots, (0,) * alg.rs.rank]
    for a in range(n):
        wa = weights[a]
        for gamma in targets:
            for b, c in by_sum.get(tuple(g - x for g, x in zip(gamma, wa)), ()):
                yield a, b, c


def jacobi_sides(alg: ChevalleyAlgebra, a: int, b: int, c: int) -> tuple[dict, dict]:
    """[x_a, [x_b, x_c]] and [[x_a, x_b], x_c] + [x_b, [x_a, x_c]] for basis indices."""
    ka, kb, kc = alg.basis[a], alg.basis[b], alg.basis[c]
    lhs = alg.bracket({ka: 1}, alg.basis_bracket(kb, kc))
    rhs = alg.bracket(alg.basis_bracket(ka, kb), {kc: 1})
    for k, v in alg.bracket({kb: 1}, alg.basis_bracket(ka, kc)).items():
        rhs[k] = rhs.get(k, 0) + v
    return lhs, {k: v for k, v in rhs.items() if v}


def jacobi_violations(nc, dense: bool = False) -> tuple[int, int]:
    """(failures, triples checked) of the Jacobi identity over the basis
    triples of jacobi_triples, in exact integers; nc is a StructureConstants
    instance."""
    alg = ChevalleyAlgebra(nc)
    failures = checked = 0
    for a, b, c in jacobi_triples(alg, dense):
        lhs, rhs = jacobi_sides(alg, a, b, c)
        failures += lhs != rhs
        checked += 1
    return failures, checked
