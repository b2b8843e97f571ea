"""The integer root-key tables against their vector definitions.

Root generation, the Weyl layer's root index, the structure constants and
the gradings all work on packed-int root keys (rootdata.root_key).  Each
table built from keys is pinned here against the coefficient-tuple
arithmetic it replaces, over every simple type of rank <= 8, seeded
products, and the largest classical types.
"""

import os
import subprocess
import sys
from operator import add
from pathlib import Path

import pytest

from quasisplit.chevalley import pinned_signs, root_norms
from quasisplit.rootdata import (
    KEY_COEFFICIENT_BOUND,
    RootDataError,
    RootSystem,
    _generate_positive_roots,
    build_root_system,
    diagram_automorphisms,
)
from quasisplit.weyl import RootIndex, WeylError, reflect, root_index

from oracles import cartan_by_vectors, down_string_length, norm, on_root, positive_roots_by_string_extension
from test_rootdata import SIMPLE_TYPES_RANK8, seeded_products

KEY_TYPES = SIMPLE_TYPES_RANK8 + seeded_products(20, seed=10) + ["B18", "C18", "D18"]


@pytest.mark.parametrize("type_str", KEY_TYPES)
def test_integer_tables_match_vector_definitions(type_str):
    rs = build_root_system(type_str)
    ri = root_index(rs)
    roots, n = rs.roots, len(rs.roots)
    index = {v: k for k, v in enumerate(roots)}
    assert list(rs.positive_roots) == positive_roots_by_string_extension(rs.cartan)
    nodes = range(1, rs.rank + 1)
    assert rs.pairings == tuple(tuple(rs.pairing(v, i) for i in nodes) for v in rs.positive_roots)
    assert len(set(ri.key)) == n
    assert ri.index == index
    for i, perm in enumerate(ri.reflections, 1):
        assert perm == tuple(index[reflect(rs, i, v)] for v in roots)
    expected = [set() for _ in roots]
    for g in range(n):
        for d in range(g + 1, n):
            k = index.get(tuple(map(add, roots[g], roots[d])))
            if k is not None:
                expected[k].add(ri.bits[g] | ri.bits[d])
    assert [set(pairs) for pairs in ri.sums] == expected
    assert all(len(pairs) == len(set(pairs)) for pairs in ri.sums)
    assert root_norms(rs, ri) == tuple(norm(rs, v) for v in roots)
    for a, alpha in enumerate(rs.positive_roots):
        for b, beta in enumerate(roots):
            assert ri.string(ri.key[a], ri.key[b]) == down_string_length(rs, alpha, beta)
    for aut in diagram_automorphisms(rs):
        pinned = pinned_signs(rs, aut)
        assert pinned.theta == tuple(index[on_root(aut, v)] for v in roots)
        fixed = [k for k, v in enumerate(roots) if on_root(aut, v) == v]
        assert pinned.imaginary == ri.mask(fixed)
        assert pinned.minus == ri.mask(k for k in fixed if pinned.signs[k] == -1)
    nodes = range(rs.rank)
    assert ri.odd_masks == tuple(ri.mask(k for k, v in enumerate(roots) if v[i] % 2) for i in nodes)


@pytest.mark.parametrize("type_str", SIMPLE_TYPES_RANK8)
def test_cartan_by_strings_at_the_simple_roots(type_str):
    rs = build_root_system(type_str)
    ri = root_index(rs)
    assert ri.cartan(ri.simple) == [list(row) for row in rs.cartan]


@pytest.mark.parametrize("type_str", ["B3", "C3", "F4", "G2"])
def test_cartan_by_strings_matches_the_gram_route(type_str):
    # every pair of distinct positive roots: strings of up to four roots
    # (G2) and both orders of a long and a short root
    rs = build_root_system(type_str)
    ri = root_index(rs)
    positives = rs.positive_roots
    by_vectors = cartan_by_vectors(rs, positives)
    by_strings = ri.cartan(range(ri.npos))
    assert by_strings == by_vectors
    assert {abs(x) for row in by_strings for x in row} >= ({0, 1, 2, 3} if type_str == "G2" else {0, 1, 2})


def _hand_built(coefficient: int) -> RootSystem:
    """A rank-one system with the roots +-alpha_1 and +-coefficient * alpha_1."""
    roots = ((1,), (coefficient,), (-1,), (-coefficient,))
    return RootSystem((), 0, ((2,),), (1,), roots, ((2,), (2 * coefficient,)))


def test_key_bound_is_refused():
    # keys pack injectively while sums and differences of roots stay in
    # their fields; a coefficient past the bound is refused, not hashed
    bound = KEY_COEFFICIENT_BOUND
    assert RootIndex(_hand_built(bound)).reflections == ((2, 3, 0, 1),)
    for coefficient in (bound + 1, -bound - 1, 1000):
        with pytest.raises(WeylError, match=f"outside the key bound {bound}"):
            RootIndex(_hand_built(coefficient))
    # an affine Cartan matrix has roots of every height; generation stops
    # at the bound instead of running on
    with pytest.raises(RootDataError, match=f"exceeds the key bound {bound}"):
        _generate_positive_roots(((2, -2), (-2, 2)))


def test_root_index_refuses_malformed_systems():
    cartan, lengths = ((2,),), (1,)
    malformed = [
        RootSystem((), 0, cartan, lengths, ((1,), (1,)), ((2,),)),  # not negatives
        RootSystem((), 0, cartan, lengths, ((1,), (-1,)), ()),  # no pairings
        RootSystem((), 0, cartan, lengths, ((2,), (-2,)), ((4,),)),  # no alpha_1
        RootSystem((), 0, cartan, lengths, ((1,), (-1,)), ((1,),)),  # s_1 leaves the roots
    ]
    for rs in malformed:
        with pytest.raises(WeylError):
            RootIndex(rs)


def test_key_bound_survives_optimized_mode():
    # python -O strips assert statements; the bound must be refused all the same
    script = """
from quasisplit.rootdata import RootDataError, RootSystem, _generate_positive_roots
from quasisplit.weyl import RootIndex, WeylError
calls = [
    lambda: RootIndex(RootSystem((), 0, ((2,),), (1,), ((32,), (-32,)), ((64,),))),
    lambda: _generate_positive_roots(((2, -2), (-2, 2))),
]
for call in calls:
    try:
        call()
    except (RootDataError, WeylError):
        continue
    raise SystemExit("bound was not refused")
print("ok")
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no invariant or input check of
    # the package may rest on one
    import ast

    package = Path(__file__).resolve().parents[1] / "src" / "quasisplit"
    sources = sorted(package.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_every_definition_in_the_package_is_named_elsewhere():
    # a function, method or class of the package that no code names outside
    # its own definition is a dead copy: a deduplication left it behind
    import ast
    from collections import Counter

    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "quasisplit"

    def identifiers(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name.rpartition(".")[2]

    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for top in ("src", "tests", "perfbench")
        for path in sorted((root / top).rglob("*.py"))
    }
    named = Counter(name for tree in trees.values() for name in identifiers(tree))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    definitions = [
        (path, node) for path, tree in trees.items() if package in path.parents for node in ast.walk(tree)
        if isinstance(node, kinds) and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    assert len(definitions) > 100
    unnamed = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, node in definitions
        if named[node.name] == Counter(identifiers(node))[node.name]
    ]
    assert not unnamed, unnamed


def test_dotted_names_in_the_docs_resolve():
    # a module.name or Class.name that README.md or a docstring of the
    # package names must exist, so a moved attribute leaves no stale
    # reference behind; a class attribute may also be a dataclass field or
    # an attribute its methods assign on self
    import ast
    import importlib
    import pkgutil
    import re
    from dataclasses import fields, is_dataclass

    import quasisplit

    root = Path(__file__).resolve().parents[1]
    modules = {
        info.name: importlib.import_module(f"quasisplit.{info.name}") for info in pkgutil.iter_modules(quasisplit.__path__)
    }
    trees = {name: ast.parse(Path(module.__file__).read_text()) for name, module in modules.items()}
    texts = [root.joinpath("README.md").read_text()] + [
        ast.get_docstring(node) or ""
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    classes = {
        name: value
        for module in modules.values()
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__
    }
    assigned = {
        node.name: {
            target.attr
            for sub in ast.walk(node)
            if isinstance(sub, ast.Assign)
            for top in sub.targets
            for target in ast.walk(top)
            if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) and target.value.id == "self"
        }
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def has(target, name):
        if isinstance(target, type):
            if is_dataclass(target) and name in {f.name for f in fields(target)}:
                return True
            if name in assigned.get(target.__name__, ()):
                return True
        return hasattr(target, name)

    roots = {"quasisplit": quasisplit, **modules, **classes}
    seen, stale = 0, []
    for text in texts:
        for chain in re.findall(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", text):
            head, *parts = chain.split(".")
            if head not in roots:
                continue
            seen += 1
            target = roots[head]
            for part in parts:
                if not has(target, part):
                    stale.append(chain)
                    break
                target = getattr(target, part, None)
    assert seen >= 20
    assert not stale, stale
