import itertools

import pytest

from weylchow.errors import ResourceLimitError
from weylchow.rootdata import build_root_system
from weylchow.weyl import (
    CosetTable,
    WeylElement,
    all_reduced_words,
    coset_reps,
    enumerate_group,
    hasse_diagram,
    hasse_to_dot,
    hasse_to_json,
    longest_element,
)


def exhaustive_elements(rs):
    """Brute-force all group elements by closing words under right multiplication."""
    seen = {WeylElement.identity(rs)}
    frontier = [WeylElement.identity(rs)]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(1, rs.rank + 1):
                u = w * WeylElement.from_word(rs, [i])
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return seen


def test_multiply_involution():
    rs = build_root_system("A2")
    s1 = WeylElement.from_word(rs, [1])
    assert s1 * s1 == WeylElement.identity(rs)


def test_multiply_a2_canonical_lex_least():
    rs = build_root_system("A2")
    a = WeylElement.from_word(rs, [1, 2])
    b = WeylElement.from_word(rs, [1])
    prod = a * b
    assert prod.length == 3
    assert prod.word == (1, 2, 1)  # lex-least among {[1,2,1],[2,1,2]}
    assert WeylElement.from_word(rs, [2, 1, 2]) == prod


def test_multiply_b2_reaches_w0():
    rs = build_root_system("B2")
    a = WeylElement.from_word(rs, [1, 2, 1])
    b = WeylElement.from_word(rs, [2])
    prod = a * b
    assert prod.length == 4
    assert prod == longest_element(rs, [1, 2])


def test_group_orders_small_ranks():
    for name, order in [("A1", 2), ("A2", 6), ("B2", 8), ("G2", 12), ("A3", 24), ("B3", 48)]:
        rs = build_root_system(name)
        assert len(exhaustive_elements(rs)) == order
        assert len(enumerate_group(rs)) == order


def test_longest_element_examples():
    a1 = build_root_system("A1")
    assert longest_element(a1, [1]).word == (1,)
    b2 = build_root_system("B2")
    assert longest_element(b2, [1, 2]).length == 4 == b2.num_positive_roots()
    e7 = build_root_system("E7")
    assert longest_element(e7, range(1, 8)).length == 63


def test_longest_element_of_parabolic():
    b3 = build_root_system("B3")
    # W_{2,3} is of type B2: longest element has length 4
    assert longest_element(b3, [2, 3]).length == 4


def test_canonical_words_stable():
    rs = build_root_system("B2")
    for w in exhaustive_elements(rs):
        for word in all_reduced_words(rs, w):
            assert WeylElement.from_word(rs, word).word == w.word
            assert len(word) == w.length


def test_coset_reps_b2():
    rs = build_root_system("B2")
    ct = coset_reps(rs, [2])
    assert len(ct) == 4
    assert [w.length for w in ct.reps] == [0, 1, 2, 3]
    # minimality: l(w s) = l(w) + 1 for s in theta
    s2 = WeylElement.from_word(rs, [2])
    for w in ct.reps:
        assert (w * s2).length == w.length + 1


def test_coset_reps_e7_p1():
    rs = build_root_system("E7")
    ct = coset_reps(rs, [2, 3, 4, 5, 6, 7])
    assert len(ct) == 126
    assert ct.max_length == 33
    assert ct.w_theta.length == build_root_system("D6").num_positive_roots()


def test_coset_reps_full_theta_gives_identity():
    rs = build_root_system("B3")
    ct = coset_reps(rs, [1, 2, 3])
    assert len(ct) == 1
    assert ct.reps[0].length == 0


def test_coset_minimality_exhaustive_rank_le_3():
    for name in ("A2", "B2", "A3", "B3"):
        rs = build_root_system(name)
        full = exhaustive_elements(rs)
        for r in range(rs.rank + 1):
            for theta in itertools.combinations(range(1, rs.rank + 1), r):
                ct = coset_reps(rs, theta)
                members = {w for w in full}
                # |W^Theta| = |W| / |W_Theta|
                sub = coset_reps(rs, ())  # full group table for W order
                w_theta_order = 1
                if theta:
                    w_theta_order = len(
                        {u for u in full if set(u.word) <= set(theta)}
                    )
                assert len(ct) * w_theta_order == len(full)
                for w in ct.reps:
                    assert w in members
                    for s in theta:
                        assert (w * WeylElement.from_word(rs, [s])).length == w.length + 1


def test_resource_cap():
    rs = build_root_system("E6")
    with pytest.raises(ResourceLimitError):
        CosetTable(rs, (), cap=100)


def test_hasse_a1():
    rs = build_root_system("A1")
    h = hasse_diagram(coset_reps(rs, ()))
    assert len(h.vertices) == 2
    assert h.edges == ((0, 1, 1),)


def test_hasse_a2_weak_order_edge_count():
    # Brute force over all (w, i) pairs with s_i w longer and both in W: the
    # left weak order on S3 is a hexagon with 6 edges.
    rs = build_root_system("A2")
    ct = coset_reps(rs, ())
    h = hasse_diagram(ct)
    assert len(h.vertices) == 6
    count = 0
    for w in exhaustive_elements(rs):
        for i in range(1, 3):
            u = WeylElement.from_word(rs, [i]) * w
            if u.length == w.length + 1:
                count += 1
    assert len(h.edges) == count == 6
    for a, b, i in h.edges:
        assert ct.reps[b] == WeylElement.from_word(rs, [i]) * ct.reps[a]


def test_hasse_edges_increase_length_by_one():
    rs = build_root_system("B3")
    for theta in [(), (1,), (2, 3)]:
        ct = coset_reps(rs, theta)
        h = hasse_diagram(ct)
        for a, b, i in h.edges:
            assert ct.reps[b].length == ct.reps[a].length + 1
            assert WeylElement.from_word(rs, [i]) * ct.reps[a] == ct.reps[b]


def test_hasse_unique_min_max():
    rs = build_root_system("B2")
    ct = coset_reps(rs, (2,))
    h = hasse_diagram(ct)
    indeg = {v: 0 for v in h.vertices}
    outdeg = {v: 0 for v in h.vertices}
    for a, b, _ in h.edges:
        outdeg[a] += 1
        indeg[b] += 1
    assert sum(1 for v in h.vertices if indeg[v] == 0) == 1
    assert sum(1 for v in h.vertices if outdeg[v] == 0) == 1


def test_hasse_export_formats():
    rs = build_root_system("A2")
    h = hasse_diagram(coset_reps(rs, ()))
    dot = hasse_to_dot(h)
    assert dot.startswith("digraph") and '"1"' in dot
    js = hasse_to_json(h)
    assert '"edges"' in js and '"type": "A2"' in js


def test_dual_index_involution():
    for name, theta in [("B2", ()), ("B2", (2,)), ("A3", (1, 2)), ("B3", ())]:
        rs = build_root_system(name)
        ct = coset_reps(rs, theta)
        for k in range(len(ct)):
            d = ct.dual_index(k)
            assert ct.dual_index(d) == k
            assert ct.codim(k) + ct.codim(d) == ct.max_length


def test_w0_squared_is_identity():
    for name in ("A2", "B2", "B3", "G2"):
        rs = build_root_system(name)
        w0 = longest_element(rs, range(1, rs.rank + 1))
        assert (w0 * w0).length == 0


def test_e7_p1_graded_counts_symmetric():
    rs = build_root_system("E7")
    ct = coset_reps(rs, [2, 3, 4, 5, 6, 7])
    counts = ct.graded_counts()
    assert sum(counts) == 126
    assert counts == tuple(reversed(counts))
    # cross-module: the length-generating function is the Solomon ratio
    from weylchow.schubert import poincare_polynomial

    assert counts == poincare_polynomial(rs, (2, 3, 4, 5, 6, 7))


def test_e7_minimality_sampled():
    # l(w s) = l(w) + 1 for all s in theta, sampled across the table
    rs = build_root_system("E7")
    theta = (2, 3, 4, 5, 6, 7)
    ct = coset_reps(rs, theta)
    gens = {s: WeylElement.from_word(rs, [s]) for s in theta}
    for k in range(0, len(ct), 7):
        w = ct.reps[k]
        for s in theta:
            assert (w * gens[s]).length == w.length + 1


def test_weyl_order_matches_degree_product_rank_le_4():
    import math

    from weylchow.rootdata import weyl_degrees

    for name in ("A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4", "D4", "F4"):
        rs = build_root_system(name)
        assert len(enumerate_group(rs)) == math.prod(weyl_degrees(name))
