import itertools
import json

import pytest

from weylchow.errors import InternalComputationError, ResourceLimitError
from weylchow.rootdata import build_root_system
from weylchow.weyl import (
    CosetTable,
    WeylElement,
    apply_word,
    coset_reps,
    hasse_edges,
    hasse_to_dot,
    hasse_to_json,
    longest_element,
    poincare_polynomial,
)

from oracles import (
    all_reduced_words,
    coset_bfs_by_tuples,
    coset_table_by_membership_probe,
    dual_table_by_tuples,
    hasse_edges_by_tuples,
    words_by_greedy_descent,
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


def test_equal_elements_have_equal_hashes():
    rs = build_root_system("A2")
    a = WeylElement.from_word(rs, [1, 2, 1])
    b = WeylElement.from_word(rs, [2, 1, 2])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


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
        assert len(coset_reps(rs, ())) == order


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


def test_resource_cap(monkeypatch):
    rs = build_root_system("E6")
    monkeypatch.setattr("weylchow.weyl.DEFAULT_COSET_CAP", 100)
    with pytest.raises(ResourceLimitError):
        CosetTable(rs, ())


def _edges(ct):
    """hasse_edges chained, after checking its runs: one per length l, each holding only
    edges whose source has length l."""
    runs = list(hasse_edges(ct))
    assert len(runs) == ct.max_length + 1
    for l, run in enumerate(runs):
        assert all(a in ct.of_length(l) for a, _, _ in run)
    return tuple(itertools.chain.from_iterable(runs))


def test_hasse_a1():
    rs = build_root_system("A1")
    assert list(hasse_edges(coset_reps(rs, ()))) == [[(0, 1, 1)], []]


def test_hasse_a2_weak_order_edge_count():
    # Brute force over all (w, i) pairs with s_i w longer and both in W: the
    # left weak order on S3 is a hexagon with 6 edges.
    rs = build_root_system("A2")
    ct = coset_reps(rs, ())
    edges = _edges(ct)
    assert len(ct) == 6
    count = 0
    for w in exhaustive_elements(rs):
        for i in range(1, 3):
            u = WeylElement.from_word(rs, [i]) * w
            if u.length == w.length + 1:
                count += 1
    assert len(edges) == count == 6
    for a, b, i in edges:
        assert ct.reps[b] == WeylElement.from_word(rs, [i]) * ct.reps[a]


def test_hasse_edges_increase_length_by_one():
    rs = build_root_system("B3")
    for theta in [(), (1,), (2, 3)]:
        ct = coset_reps(rs, theta)
        for a, b, i in _edges(ct):
            assert ct.reps[b].length == ct.reps[a].length + 1
            assert WeylElement.from_word(rs, [i]) * ct.reps[a] == ct.reps[b]


def test_hasse_unique_min_max():
    rs = build_root_system("B2")
    ct = coset_reps(rs, (2,))
    indeg = [0] * len(ct)
    outdeg = [0] * len(ct)
    for a, b, _ in _edges(ct):
        outdeg[a] += 1
        indeg[b] += 1
    assert indeg.count(0) == 1
    assert outdeg.count(0) == 1


def test_hasse_export_formats():
    rs = build_root_system("A2")
    ct = coset_reps(rs, ())
    dot = "".join(hasse_to_dot(ct))
    assert dot.startswith("digraph") and '"1"' in dot
    js = "".join(hasse_to_json(ct))
    assert '"edges"' in js and '"type": "A2"' in js


def test_a_repeated_point_is_refused_on_the_call(monkeypatch):
    # one position per point, with the layer counts, certifies that the table is the
    # whole orbit; a table whose points repeat is refused before any piece is taken
    from weylchow import motive

    rs = build_root_system("B3")
    ct = CosetTable(rs, ())
    ct._order = ct._order[:-1] + ct._order[-2:-1]
    monkeypatch.setattr(motive, "coset_reps", lambda *_: ct)
    calls = [hasse_to_json, hasse_to_dot, lambda t: t.dual_index(0),
             lambda t: motive.decomposition_to_dot(rs, (), (1,))]
    for call in calls:
        with pytest.raises(InternalComputationError, match="repeats"):
            call(ct)


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
    # the length-generating function is the Solomon ratio
    assert counts == poincare_polynomial(rs, (2, 3, 4, 5, 6, 7))


@pytest.mark.parametrize(
    "name,theta",
    [("A3", ()), ("B3", (1, 2)), ("E6", (2, 3, 4, 5, 6)), ("E7", (2, 3, 4, 5, 6, 7))],
    ids=["A3", "B3/P3", "E6/P1", "E7/P1"],
)
def test_layers_match_the_codim_filter_scan(name, theta):
    ct = CosetTable(build_root_system(name), theta)
    dim = ct.max_length
    for d in range(-1, dim + 2):  # -1 and dim + 1 are outside the grading: empty ranges
        want = [k for k in range(len(ct)) if ct.codim(k) == d]
        assert list(ct.of_codim(d)) == want, d
        assert list(ct.of_length(dim - d)) == want, d
    assert ct.graded_counts() == tuple(len(ct.of_length(l)) for l in range(dim + 1))
    assert "_dual" not in vars(ct)  # the dual table is built on first use only
    ct.dual_index(0)
    assert "_dual" in vars(ct)


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
        assert len(coset_reps(rs, ())) == math.prod(weyl_degrees(name))


def _every_theta(rs):
    for r in range(rs.rank + 1):
        yield from itertools.combinations(range(1, rs.rank + 1), r)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "D4", "F4"])
def test_coset_table_matches_definitions(name):
    # every fact the table derives from the BFS, against its definition
    rs = build_root_system(name)
    thetas = [(2, 3, 4), (1, 2, 3), (2, 3), (1, 2, 4), (1, 3, 4)] if name == "F4" else _every_theta(rs)
    for theta in thetas:
        ct = coset_reps(rs, theta)
        lam = tuple(0 if j + 1 in theta else 1 for j in range(rs.rank))
        points = [apply_word(rs, w.word, lam) for w in ct.reps]
        assert len(set(points)) == len(ct)
        pos = {p: k for k, p in enumerate(points)}
        edges = set()
        for k, w in enumerate(ct.reps):
            assert w.word == min(all_reduced_words(rs, w))
            if k:
                assert w.word == (ct.parent_label[k],) + ct.reps[ct.parent[k]].word
            dual = (ct.w0 * w) * ct.w_theta
            assert ct.dual_index(k) == ct.index[dual.word]
            for i in range(rs.rank):
                m = pos.get(rs.reflect_weight(i, points[k]))
                if m is not None and ct.reps[m].length == w.length + 1:
                    edges.add((k, m, i + 1))
        assert set(_edges(ct)) == edges


def test_e6_full_flag_table():
    ct = coset_reps(build_root_system("E6"), ())
    assert len(ct) == 51840
    assert ct.graded_counts() == (
        1, 6, 20, 50, 105, 195, 329, 514, 754, 1048, 1389, 1765, 2159, 2549, 2911, 3222, 3461,
        3611, 3662, 3611, 3461, 3222, 2911, 2549, 2159, 1765, 1389, 1048, 754, 514, 329, 195,
        105, 50, 20, 6, 1,
    )


@pytest.mark.parametrize(
    "name,theta",
    [("A1", ()), ("A3", ()), ("B3", ()), ("C3", ()), ("D4", ()), ("G2", ()),
     ("F4", (2, 3, 4)), ("E6", (2, 3, 4, 5, 6)), ("D5", ()), ("A2xB2", (3,))],
    ids=["A1", "A3", "B3", "C3", "D4", "G2", "F4/P1", "E6/P1", "D5", "A2xB2/P4"],
)
def test_packed_table_matches_the_tuple_oracle(name, theta):
    rs = build_root_system(name)
    ct = CosetTable(rs, theta)
    order, parent, parent_label, counts = coset_bfs_by_tuples(rs, theta)
    assert ct.parent == parent
    assert ct.parent_label == parent_label
    assert ct.graded_counts() == counts
    assert len(ct) == len(order)
    words = words_by_greedy_descent(rs, order)
    assert not {"words", "word_text", "reps", "index"} & vars(ct).keys()  # views are built on use
    assert ct.words == words
    assert ct.word_text == tuple(json.dumps(list(w)) for w in words)
    assert ct.reps == tuple(WeylElement.from_word(rs, w) for w in words)  # canonical: from rho
    assert ct.index == {w: k for k, w in enumerate(words)}
    assert ct.max_length == len(words[-1])
    assert [ct.codim(k) for k in range(len(ct))] == [ct.max_length - len(w) for w in words]
    assert _edges(ct) == hasse_edges_by_tuples(rs, order)
    assert tuple(ct.dual_index(k) for k in range(len(ct))) == dual_table_by_tuples(rs, order, ct.w0)


def _types_of_rank_at_most_4():
    simple = ["A1", "A2", "A3", "A4", "B2", "C2", "B3", "C3", "B4", "C4", "D4", "G2", "F4"]
    rank = {name: int(name[1:]) for name in simple}
    for n in range(1, 5):
        for parts in itertools.combinations_with_replacement(simple, n):
            if sum(rank[p] for p in parts) <= 4:
                yield "x".join(parts)


def _assert_canonical_parent_bfs_matches_the_probe_bfs(rs, theta):
    ct = CosetTable(rs, theta)
    probe = coset_table_by_membership_probe(rs, theta)
    assert ct.parent == probe.parent
    assert ct.parent_label == probe.parent_label
    assert ct._layers == probe._layers
    assert ct._order == probe._order
    assert "_points" not in vars(ct)  # the point index is built on first lookup
    assert ct._dual == probe._dual
    assert list(ct._points.items()) == list(probe._points.items())
    assert _edges(ct) == _edges(probe)
    last = ct.of_length(min(ct.max_length, 10))[-1]
    word = ct.words[last]
    assert ct.subword_positions(word, len(word)) == probe.subword_positions(word, len(word))


def test_canonical_parent_bfs_matches_the_probe_bfs_rank_le_4():
    names = list(_types_of_rank_at_most_4())
    assert len(names) == 37  # 1 + 5 + 8 + 23 of ranks 1, 2, 3 and 4
    for name in names:
        rs = build_root_system(name)
        for theta in _every_theta(rs):
            _assert_canonical_parent_bfs_matches_the_probe_bfs(rs, theta)


@pytest.mark.parametrize(
    "name,theta", [("E6", ()), ("E6", (2, 3, 4, 5, 6)), ("E7", (1, 2, 3, 4, 5, 6))],
    ids=["E6", "E6/P1", "E7/P7"],
)
def test_canonical_parent_bfs_matches_the_probe_bfs(name, theta):
    _assert_canonical_parent_bfs_matches_the_probe_bfs(build_root_system(name), theta)


def test_word_index_is_built_on_first_lookup(monkeypatch):
    import functools

    import weylchow.weyl as weyl
    from weylchow.cli import run
    from weylchow.schubert import class_from_json

    # a table cache of this test's own, so no other test has built a view yet
    monkeypatch.setattr(weyl, "_coset_table", functools.cache(CosetTable))
    ct = coset_reps(build_root_system("A1xG2"), (2,))
    for argv in (["cosets", "--type", "A1xG2", "--theta", "2"],
                 ["decompose", "--type", "A1xG2", "--theta", "2", "--circled", "1"]):
        assert run(argv)[0] == 0
    assert "index" not in ct.__dict__
    for k, w in enumerate(ct.words):
        cls = class_from_json(
            '{"type": "A1xG2", "theta": [2], "ring": "Z", "terms": [{"word": %s}]}' % list(w))
        assert cls.coeffs == {k: 1}
    assert "index" in ct.__dict__

    # printing a table reads its word text only: no word tuple, WeylElement or index
    e6p1 = coset_reps(build_root_system("E6"), (2, 3, 4, 5, 6))
    base = ["--type", "E6", "--theta", "2,3,4,5,6"]
    for argv in (["cosets", *base], ["hasse", *base, "--format", "json"],
                 ["hasse", *base, "--format", "dot"],
                 ["decompose", *base, "--circled", "2,4", "--format", "json"],
                 ["decompose", *base, "--circled", "2,4", "--format", "dot"]):
        assert run(argv)[0] == 0
    assert "word_text" in vars(e6p1)
    assert not {"words", "reps", "index"} & vars(e6p1).keys()


def test_packing_bound_fits_every_accepted_type():
    # the bound with theta empty is the height of the highest coroot, h - 1;
    # these are the largest types under rootdata.MAX_POSITIVE_ROOTS of each family
    from weylchow.weyl import orbit_bound

    for name, bound in (("A44", 44), ("B31", 61), ("C31", 61), ("D32", 61), ("E8", 29)):
        assert orbit_bound(build_root_system(name), ()) == bound < 128, name


def test_packing_bound_is_checked_before_the_bfs(monkeypatch):
    import weylchow.weyl as weyl

    monkeypatch.setattr(weyl, "orbit_bound", lambda rs, theta: 128)
    with pytest.raises(InternalComputationError):
        CosetTable(build_root_system("A2"), ())


def test_layer_counts_are_checked_against_the_poincare_polynomial(monkeypatch):
    # BFS layers that disagree with g(X) are an internal error; the forged g(1) passes the cap
    import weylchow.weyl as weyl

    rs = build_root_system("A2")
    assert CosetTable(rs, ()).graded_counts() == poincare_polynomial(rs, ()) == (1, 2, 2, 1)
    monkeypatch.setattr(weyl, "poincare_polynomial", lambda rs, theta: (1, 1, 3, 1))
    with pytest.raises(InternalComputationError):
        CosetTable(rs, ())
