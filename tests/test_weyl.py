import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from quasisplit import weyl
from quasisplit.rootdata import build_root_system, diagram_automorphisms
from quasisplit.verify import simple_types_up_to
from quasisplit.weyl import (
    MAX_TABLE_ROOTS,
    WeylError,
    all_chambers,
    folded_generators,
    identity_chamber,
    orbit_partition,
    random_chambers,
    reflect,
    root_index,
)

from oracles import VectorChamber, randrange_words

CHAMBER_COUNTS = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48, "G2": 12, "D4": 192, "A1+A1": 4}


@pytest.mark.parametrize("type_str,count", sorted(CHAMBER_COUNTS.items()))
def test_all_chambers_count(type_str, count):
    rs = build_root_system(type_str)
    chambers = all_chambers(rs)
    assert len(chambers) == count
    assert len({ch.images for ch in chambers}) == count


@pytest.mark.parametrize("type_str", ["A3", "B2", "G2", "A1+A2"])
def test_all_chambers_words_are_first_reduced_words(type_str):
    # each element is reached once, from its first left descent, so its word
    # comes first among all words for it in (length, lexicographic) order
    rs = build_root_system(type_str)
    chambers = all_chambers(rs)
    first = {}
    length = 0
    while len(first) < len(chambers):
        for word in itertools.product(range(1, rs.rank + 1), repeat=length):
            first.setdefault(VectorChamber(rs, word).images, word)
        length += 1
    assert {ch.images: tuple(ch.word) for ch in chambers} == first


def test_identity_chamber():
    rs = build_root_system("B2")
    ch = identity_chamber(rs)
    assert ch.w_positive_roots() == frozenset(rs.positive_roots)
    assert ch.img == bytes(range(len(rs.roots)))
    assert ch.images == rs.simple_roots
    assert repr(ch) == "Chamber(word=())" and repr(ch.extend(2)) == "Chamber(word=(2,))"
    oracle = VectorChamber(rs, ch.word)
    for v in rs.roots:
        assert oracle.act(v) == v and oracle.act_inv(v) == v


def _assert_matches_oracle(ch):
    rs = ch.rs
    oracle = VectorChamber(rs, ch.word)
    assert ch.images == oracle.images
    oracle_positive = oracle.w_positive_roots()
    assert ch.w_positive_roots() == oracle_positive
    for k, v in enumerate(rs.roots):
        assert rs.roots[ch.img[k]] == oracle.act(v)
        assert bool(ch.positive_mask >> k & 1) == (v in oracle_positive)


ORACLE_TYPES = simple_types_up_to(4) + ["A1+A1", "A2+A1", "B2+A1+T1", "A1+A1+A1+A1"]


@pytest.mark.parametrize("type_str", ORACLE_TYPES)
def test_every_chamber_matches_vector_oracle(type_str):
    # w versus w^{-1}: the indexed chamber must agree with vector arithmetic
    # on w(alpha_j), w^{-1}(alpha_j) and w(positive roots) for every element
    for ch in all_chambers(build_root_system(type_str)):
        _assert_matches_oracle(ch)


@pytest.mark.parametrize("type_str", ["B6", "E6"])
def test_random_chambers_match_vector_oracle(type_str):
    rs = build_root_system(type_str)
    for ch in random_chambers(rs, 12, seed=5):
        _assert_matches_oracle(ch)


def test_reflection_is_involution_and_permutes_roots():
    rs = build_root_system("G2")
    for i in range(1, rs.rank + 1):
        images = [reflect(rs, i, v) for v in rs.roots]
        assert set(images) == set(rs.roots)
        for v in rs.roots:
            assert reflect(rs, i, reflect(rs, i, v)) == v
        # s_i permutes the positive roots other than alpha_i
        simple = rs.simple_roots[i - 1]
        moved = [v for v in rs.positive_roots if v != simple]
        assert set(map(lambda v: reflect(rs, i, v), moved)) <= set(rs.positive_roots)


def _act_word(rs, word, v):
    """s_{word[0]} ... s_{word[-1]} applied to v, rightmost letter first."""
    for i in reversed(word):
        v = reflect(rs, i, v)
    return v


@given(
    st.sampled_from(["A2", "B2", "A3", "G2"]),
    st.lists(st.integers(min_value=1, max_value=2), max_size=8),
)
def test_chamber_matches_word_action(type_str, raw_word):
    rs = build_root_system(type_str)
    word = tuple(1 + (i - 1) % rs.rank for i in raw_word)
    ch = identity_chamber(rs)
    for i in word:
        ch = ch.extend(i)
    oracle = VectorChamber(rs, word)
    for k, v in enumerate(rs.roots):
        assert oracle.act(v) == _act_word(rs, word, v)
        assert oracle.act(oracle.act_inv(v)) == v
        assert rs.roots[ch.img[k]] == _act_word(rs, word, v)
    assert len(ch.w_positive_roots()) == len(rs.positive_roots)


def test_longest_element_exists():
    for type_str in ["A2", "B2"]:
        rs = build_root_system(type_str)
        negatives = frozenset(rs.roots) - frozenset(rs.positive_roots)
        assert any(
            frozenset(VectorChamber(rs, ch.word).act(a) for a in rs.simple_roots) <= negatives
            for ch in all_chambers(rs)
        )


@pytest.mark.parametrize("type_str", ["B4", "E6"])
def test_random_chambers_are_elements_of_all_chambers(type_str):
    # both generators hold a chamber in one format, so a sampled image is
    # found among the enumerated ones as it is
    rs = build_root_system(type_str)
    images = {ch.img for ch in all_chambers(rs)}
    sample = random_chambers(rs, 50, seed=3)
    assert all(ch.img in images for ch in sample)


def test_random_chambers_deterministic():
    rs = build_root_system("B3")
    a = random_chambers(rs, 5, seed=7)
    b = random_chambers(rs, 5, seed=7)
    assert [ch.images for ch in a] == [ch.images for ch in b]
    c = random_chambers(rs, 5, seed=8)
    assert [ch.images for ch in a] != [ch.images for ch in c]


# ranks 1-8 take k = 1..4 bits per letter; ranks 1, 2, 4 and 8 reject half
# of the draws, the others fewer
DRAW_TYPES = ["A1", "B2", "A3", "F4", "A5", "E6", "E7", "E8", "A1+A1", "G2+A1"]


@pytest.mark.parametrize("type_str", DRAW_TYPES)
@pytest.mark.parametrize("seed,count", [(0, 1), (3, 7), (11, 40)])
def test_random_chambers_draw_randrange_letters(type_str, seed, count):
    rs = build_root_system(type_str)
    chambers = random_chambers(rs, count, seed)
    assert [tuple(ch.word) for ch in chambers] == randrange_words(rs, count, seed)
    # the image composed from the left is the product of the word
    ch = identity_chamber(rs)
    for i in chambers[0].word:
        ch = ch.extend(i)
    assert chambers[0].img == ch.img


class _CountingRandom(random.Random):
    """random.Random that counts its getrandbits calls."""

    draws = 0

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("type_str", ["B2", "E6"])
def test_random_chambers_top_up_a_short_draw(type_str, monkeypatch):
    made = []

    def counting(seed):
        made.append(_CountingRandom(seed))
        return made[-1]

    monkeypatch.setattr(weyl, "Random", counting)
    rs = build_root_system(type_str)
    for seed in range(200):
        chambers = random_chambers(rs, 2, seed)
        if made[-1].draws > 1:
            break
    else:
        pytest.fail("every first draw was long enough; the top-up never ran")
    assert [tuple(ch.word) for ch in chambers] == randrange_words(rs, 2, seed)


@pytest.mark.parametrize("type_str", ["D12", "A17", "D18"])
def test_chamber_generators_refuse_more_roots_than_a_byte_table(type_str):
    rs = build_root_system(type_str)
    assert len(rs.roots) > MAX_TABLE_ROOTS
    root_index(rs)  # the index itself has no such bound
    for call in (lambda: random_chambers(rs, 1, 0), lambda: all_chambers(rs), lambda: identity_chamber(rs)):
        with pytest.raises(WeylError, match=f"exceed the bound {MAX_TABLE_ROOTS}"):
            call()


def test_random_chambers_of_rank_zero():
    # no letter can be drawn: a loop waiting for letters would never end
    rs = build_root_system("T1")
    assert random_chambers(rs, 0, 0) == []
    with pytest.raises(WeylError, match="no simple reflection"):
        random_chambers(rs, 1, 0)


def test_orbit_partition_swap():
    # sign vectors as 2-bit ints: swapping the two coordinates, then also
    # flipping both; orbits come in order of their smallest member, listed first
    swap = (0, [(0b10, 0b11), (0b01, 0b11)])
    assert orbit_partition(2, [swap]) == [[0], [1, 2], [3]]
    assert orbit_partition(2, [swap, (0b11, [])]) == [[0, 3], [1, 2]]
    assert orbit_partition(0, []) == [[0]]


def test_all_chambers_refuses_large_groups():
    with pytest.raises(WeylError, match="refused"):
        all_chambers(build_root_system("A8"))


@pytest.mark.parametrize("type_str", ["A3", "B3", "G2", "D4+A1"])
def test_root_index_tables(type_str):
    rs = build_root_system(type_str)
    ri = root_index(rs)
    n = len(rs.roots)
    for i, perm in enumerate(ri.reflections, 1):
        assert sorted(perm) == list(range(n))
        assert all(perm[perm[k]] == k for k in range(n))
        assert all(rs.roots[perm[k]] == reflect(rs, i, v) for k, v in enumerate(rs.roots))
    assert [rs.roots[k] for k in ri.simple] == list(rs.simple_roots)
    for k, beta in enumerate(rs.roots):
        pairs = {
            frozenset((g, d))
            for g, gamma in enumerate(rs.roots)
            for d, delta in enumerate(rs.roots)
            if tuple(x + y for x, y in zip(gamma, delta)) == beta
        }
        assert {ri.bits[min(p)] | ri.bits[max(p)] for p in pairs} == set(ri.sums[k])


def test_folded_generators_shapes():
    a2 = build_root_system("A2")
    assert folded_generators(a2, (2, 1)) == ((1, 2, 1),)
    a3 = build_root_system("A3")
    assert folded_generators(a3, (3, 2, 1)) == ((1, 3), (2,))
    e6 = build_root_system("E6")
    assert folded_generators(e6, (6, 2, 5, 4, 3, 1)) == ((1, 6), (2,), (3, 5), (4,))
    d4 = build_root_system("D4")
    assert folded_generators(d4, (1, 2, 4, 3)) == ((1,), (2,), (3, 4))
    with pytest.raises(WeylError):
        folded_generators(d4, (3, 2, 4, 1))  # order 3, not an involution
    with pytest.raises(WeylError):
        folded_generators(build_root_system("A3"), (2, 3, 1))


def _folded_subgroup_images(rs, words):
    """BFS closure of the folded generators, as a set of chamber image tuples."""
    start = identity_chamber(rs)
    seen = {start.images}
    frontier = [start]
    while frontier:
        nxt = []
        for ch in frontier:
            for word in words:
                ext = ch
                for i in word:
                    ext = ext.extend(i)
                if ext.images not in seen:
                    seen.add(ext.images)
                    nxt.append(ext)
        frontier = nxt
    return seen


def _commuting_chamber_images(rs, aut):
    out = set()
    for ch in all_chambers(rs):
        oracle = VectorChamber(rs, ch.word)
        if all(oracle.act(aut.on_root(a)) == aut.on_root(oracle.act(a)) for a in rs.simple_roots):
            out.add(ch.images)
    return out


@pytest.mark.parametrize("type_str", ["A2", "A3", "A4", "D4", "A1+A1"])
def test_folded_subgroup_is_full_centralizer(type_str):
    rs = build_root_system(type_str)
    flips = [a for a in diagram_automorphisms(rs) if a.order == 2]
    assert flips
    for aut in flips:
        folded = _folded_subgroup_images(rs, folded_generators(rs, aut.perm))
        assert folded == _commuting_chamber_images(rs, aut)


def test_folded_subgroup_order_e6():
    # flip-commuting subgroup of W(E6) has order 1152; BFS replaces a scan of 51840 chambers
    rs = build_root_system("E6")
    folded = _folded_subgroup_images(rs, folded_generators(rs, (6, 2, 5, 4, 3, 1)))
    assert len(folded) == 1152


def test_guards_survive_optimized_mode():
    # python -O strips assert statements; the guards must raise all the same
    script = """
from quasisplit.rootdata import build_root_system
from quasisplit.weyl import WeylError, all_chambers, folded_generators, identity_chamber, random_chambers
calls = [
    lambda: all_chambers(build_root_system("A8")),
    lambda: random_chambers(build_root_system("D12"), 1, 0),
    lambda: identity_chamber(build_root_system("D12")),
    lambda: folded_generators(build_root_system("D4"), (3, 2, 4, 1)),
]
for call in calls:
    try:
        call()
    except WeylError:
        continue
    raise SystemExit("guard did not raise")
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
