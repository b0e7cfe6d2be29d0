import itertools

import pytest

from weylchow import univar
from weylchow.errors import UsageError
from weylchow.motive import (
    Correspondence,
    compose,
    decompose,
    decomposition_profile_sum,
    decomposition_to_dot,
    decomposition_to_json,
    diagonal,
    idempotent_power,
    projector_rank,
    refine_rost,
    singleton_components,
)
from weylchow.rootdata import build_root_system
from weylchow.schubert import ChowClass
from weylchow.weyl import coset_reps, poincare_polynomial

from oracles import decompose_by_hasse_dfs


def test_no_circles_one_component():
    rs = build_root_system("B2")
    out = decompose(rs, (), [])
    assert len(out) == 1
    assert out[0].twist == 0
    assert univar.tpoly(out[0].profile) == poincare_polynomial(rs, ())


def test_all_circled_gives_lefschetz_pieces():
    rs = build_root_system("B2")
    theta = (2,)
    out = decompose(rs, theta, [1, 2])
    g = poincare_polynomial(rs, theta)
    assert all(s.is_lefschetz for s in out)
    twists = sorted(s.twist for s in out)
    want = [i for i, c in enumerate(g) for _ in range(c)]
    assert twists == want


def test_profile_sums_all_subsets_small_types():
    for name in ("B2", "B3", "F4"):
        rs = build_root_system(name)
        thetas = [()] + [tuple(sorted(set(range(1, rs.rank + 1)) - {i})) for i in range(1, rs.rank + 1)]
        for theta in thetas:
            g = poincare_polynomial(rs, theta)
            for r in range(rs.rank + 1):
                for circled in itertools.combinations(range(1, rs.rank + 1), r):
                    summands = decompose(rs, theta, circled)
                    assert decomposition_profile_sum(summands) == g


def _subsets(n):
    return [c for r in range(n + 1) for c in itertools.combinations(range(1, n + 1), r)]


def _maximal(rank, k):
    return tuple(i for i in range(1, rank + 1) if i != k)


@pytest.mark.parametrize(
    "name,thetas,circled_sets",
    [
        ("B3", _subsets(3), _subsets(3)),
        ("C3", _subsets(3), _subsets(3)),
        ("G2", _subsets(2), _subsets(2)),
        ("F4", [_maximal(4, 1), _maximal(4, 4)], _subsets(4)),
        ("D5", [()], _subsets(5)),
        ("A2xB2", [_maximal(4, 4)], _subsets(4)),
        ("E6", [_maximal(6, 1)], _subsets(6)),
        ("E6", [(1,)], [(2,), (2, 4), (1, 6), (2, 4, 6)]),
        ("E7", [_maximal(7, 7)], [(1, 6, 7), (1,)]),
    ],
    ids=["B3", "C3", "G2", "F4/P1,P4", "D5", "A2xB2/P4", "E6/P1", "E6/{1}", "E7/P7"],
)
def test_descent_cut_matches_the_hasse_dfs(name, thetas, circled_sets):
    rs = build_root_system(name)
    for theta in thetas:
        for circled in circled_sets:
            assert decompose(rs, theta, circled) == decompose_by_hasse_dfs(rs, theta, circled), (
                theta, circled)


def test_decompose_monotone_refinement():
    rs = build_root_system("B3")
    base = decompose(rs, (), [1])
    finer = decompose(rs, (), [1, 2])
    # every finer component sits inside one coarser component
    for f in finer:
        holders = [c for c in base if set(f.vertices) <= set(c.vertices)]
        assert len(holders) == 1


def test_e7_p7_rost_example():
    rs = build_root_system("E7")
    theta = (1, 2, 3, 4, 5, 6)
    summands = decompose(rs, theta, [1, 6, 7])
    singles = [s for s in summands if s.is_lefschetz]
    big = [s for s in summands if not s.is_lefschetz]
    assert len(summands) == 14
    assert len(singles) == 8 and len(big) == 6
    # the isolated vertices, identified by their lengths
    ct = coset_reps(rs, theta)
    lengths = sorted(ct.reps[s.vertices[0]].length for s in singles)
    assert lengths == [0, 1, 9, 10, 17, 18, 26, 27]
    twists = sorted(s.twist for s in singles)
    assert twists == [0, 1, 9, 10, 17, 18, 26, 27]  # palindromic, same set
    assert all(s.kernel_type.name() == "D4" for s in big)
    rost = refine_rost(summands)
    assert rost == sorted(list(range(2, 23)) + [11, 12, 13])
    # total rank check: 8 + 2 * 24 = 56
    assert 8 + 2 * len(rost) == 56
    # reassembled Poincaré identity
    total = univar.ZERO
    for s in singles:
        total = univar.add(total, univar.shift((1,), s.twist))
    for i in rost:
        total = univar.add(total, univar.shift((1, 0, 0, 1), i))
    assert total == poincare_polynomial(rs, theta)


def test_e7_p7_d6_kernel_quadric_decomposition():
    rs = build_root_system("E7")
    theta = (1, 2, 3, 4, 5, 6)
    summands = decompose(rs, theta, [1])
    assert len(summands) == 3
    d6 = build_root_system("D6")
    g_quadric = poincare_polynomial(d6, (2, 3, 4, 5, 6))      # 10-dim quadric
    g_grass = poincare_polynomial(d6, (1, 2, 3, 4, 5))        # max orthogonal Grassmannian
    profiles = sorted((s.twist, univar.tpoly(s.profile)) for s in summands)
    # palindromic profiles: reversal does not matter
    assert profiles[0] == (0, g_quadric)
    assert profiles[1][0] == 6
    assert sorted(profiles[1][1]) == sorted(g_grass)
    assert sum(profiles[1][1]) == sum(g_grass) == 32
    assert profiles[2] == (17, g_quadric)


def test_e7_p1_f_vertex_splits_away():
    # the codim-17 vertex named by f's word is a singleton for circled {1,6,7}
    rs = build_root_system("E7")
    theta = (2, 3, 4, 5, 6, 7)
    singles = singleton_components(rs, theta, [1, 6, 7])
    ct = coset_reps(rs, theta)
    from weylchow.weyl import WeylElement

    f_dual_word = (7, 6, 5, 4, 3, 2, 4, 5, 6, 1, 3, 4, 5, 2, 4, 3, 1)
    w = WeylElement.from_word(rs, f_dual_word)
    f_index = ct.dual_index(ct.index[w.word])
    f_word = ct.reps[f_index].word
    assert ct.codim(f_index) == 17
    assert (f_word, 17) in singles


def test_singletons_trivial_cases():
    rs = build_root_system("A1")
    assert singleton_components(rs, (), []) == []
    out = singleton_components(rs, (), [1])
    assert len(out) == 2


def test_refine_rost_single_component():
    rs = build_root_system("B3")
    # circled {1}: kernel B2... construct a synthetic profile check instead
    from weylchow.motive import MotiveSummand
    from weylchow.rootdata import DynkinType

    s = MotiveSummand(vertices=(0, 1), twist=5, profile=(1, 0, 0, 1), kernel_type=DynkinType.parse("D4"))
    assert refine_rost([s]) == [5]
    bad = MotiveSummand(vertices=(0, 1), twist=0, profile=(1, 1), kernel_type=DynkinType.parse("D4"))
    with pytest.raises(UsageError):
        refine_rost([bad])


def test_exports():
    rs = build_root_system("B2")
    js = "".join(decomposition_to_json(rs, (), [1]))
    assert '"summands"' in js
    dot = "".join(decomposition_to_dot(rs, (), [1]))
    assert dot.startswith("digraph")


def mk(type_name, theta, pairs):
    return Correspondence(type_name, theta, "Z/2", tuple(pairs))


def test_diagonal_is_identity():
    rs = build_root_system("B2")
    ct = coset_reps(rs, ())
    delta = diagonal("B2", ())
    # against a bunch of single product cycles of complementary codims
    for i in range(len(ct)):
        j = ct.dual_index(i)
        q = mk("B2", (), [(ChowClass("B2", (), "Z/2", {i: 1}), ChowClass("B2", (), "Z/2", {j: 1}))])
        assert compose(delta, q).normalized() == q.normalized()
        assert compose(q, delta).normalized() == q.normalized()


def test_compose_associative_random():
    import random

    rng = random.Random(3)
    rs = build_root_system("B2")
    ct = coset_reps(rs, ())
    n = len(ct)

    def rand_q():
        pairs = []
        for _ in range(2):
            i, j = rng.randrange(n), rng.randrange(n)
            pairs.append(
                (ChowClass("B2", (), "Z/2", {i: 1}), ChowClass("B2", (), "Z/2", {j: 1}))
            )
        return mk("B2", (), pairs)

    for _ in range(25):
        a, b, c = rand_q(), rand_q(), rand_q()
        lhs = compose(compose(a, b), c).normalized()
        rhs = compose(a, compose(b, c)).normalized()
        assert lhs == rhs


def test_idempotent_power_trivial_cases():
    rs = build_root_system("B2")
    ct = coset_reps(rs, ())
    # 1 x pt is idempotent: deg(pt . 1) pairing gives itself
    one = ChowClass("B2", (), "Z/2", {len(ct) - 1: 1})
    pt = ChowClass("B2", (), "Z/2", {0: 1})
    q = mk("B2", (), [(one, pt)])
    n, qn = idempotent_power(q)
    assert n == 1
    assert qn.normalized() == q.normalized()
    # nilpotent: pt x pt squares to zero
    q2 = mk("B2", (), [(pt, pt)])
    n2, q2n = idempotent_power(q2)
    assert q2n.normalized() == {}
    assert compose(q2n, q2n).normalized() == q2n.normalized()


def test_idempotent_power_terminates_exhaustively():
    # all correspondences made of <= 2 product cycles over middle codims on B2
    rs = build_root_system("B2")
    ct = coset_reps(rs, ())
    dim = ct.max_length
    mids = [
        (i, j)
        for i in range(len(ct))
        for j in range(len(ct))
        if ct.codim(i) + ct.codim(j) == dim
    ]
    periods = set()
    for (i1, j1), (i2, j2) in itertools.combinations(mids, 2):
        q = mk(
            "B2",
            (),
            [
                (ChowClass("B2", (), "Z/2", {i1: 1}), ChowClass("B2", (), "Z/2", {j1: 1})),
                (ChowClass("B2", (), "Z/2", {i2: 1}), ChowClass("B2", (), "Z/2", {j2: 1})),
            ],
        )
        n, qn = idempotent_power(q)
        m = compose(qn, qn).normalized()
        assert m == qn.normalized()
        periods.add(n)
    assert 1 in periods


def test_idempotent_power_period_three_example():
    # found by brute force over small middle-codimension correspondences:
    # two-cycle sums only reach n in {1, 2}; this three-cycle sum needs n = 3
    pairs = ((1, 5), (1, 6), (2, 6))
    q = mk(
        "B2",
        (),
        [
            (ChowClass("B2", (), "Z/2", {i: 1}), ChowClass("B2", (), "Z/2", {j: 1}))
            for i, j in pairs
        ],
    )
    n, qn = idempotent_power(q)
    assert n == 3
    assert compose(qn, qn).normalized() == qn.normalized()
    assert qn.normalized()  # non-trivial projector


def test_projector_rank():
    rs = build_root_system("B2")
    ct = coset_reps(rs, ())
    delta = diagonal("B2", ())
    # rank of the diagonal = total Betti sum mod 2
    assert projector_rank(delta) == sum(poincare_polynomial(rs, ())) % 2
    one = ChowClass("B2", (), "Z/2", {len(ct) - 1: 1})
    pt = ChowClass("B2", (), "Z/2", {0: 1})
    assert projector_rank(mk("B2", (), [(one, pt)])) == 1
    assert projector_rank(mk("B2", (), [])) == 0
