import itertools
import random
from fractions import Fraction

import pytest

from weylchow import univar
from weylchow.errors import ResourceLimitError, UsageError
from weylchow.polynomial import Polynomial
from weylchow.rootdata import build_root_system
from weylchow.schubert import (
    ChowClass,
    _FlagContext,
    char_map,
    chern_tangent,
    class_from_json,
    class_to_json,
    divided_difference,
    dual,
    duality_product,
    flag_context,
    invariant_generators,
    multiply,
    pieri_multiply,
    poincare_polynomial,
    preimage,
    pullback_to_flags,
)
from weylchow.weyl import WeylElement, all_reduced_words, coset_reps


def basis_class(rs, theta, k, ring="Z"):
    return ChowClass(rs.type.name(), tuple(sorted(theta)), ring, {k: 1})


def test_poincare_a2():
    rs = build_root_system("A2")
    assert poincare_polynomial(rs, ()) == (1, 2, 2, 1)
    assert univar.to_string(poincare_polynomial(rs, ())) == "1+2t+2t^2+t^3"


def test_poincare_e7_maximal_parabolics():
    rs = build_root_system("E7")
    g1 = poincare_polynomial(rs, (2, 3, 4, 5, 6, 7))
    assert univar.deg(g1) == 33
    assert sum(g1) == 126
    g7 = poincare_polynomial(rs, (1, 2, 3, 4, 5, 6))
    assert univar.deg(g7) == 27
    assert sum(g7) == 56


def test_poincare_matches_graded_counts():
    for name, theta in [("A2", ()), ("B2", (2,)), ("B3", (1, 3)), ("A3", (2,))]:
        rs = build_root_system(name)
        ct = coset_reps(rs, theta)
        g = poincare_polynomial(rs, theta)
        assert tuple(reversed(ct.graded_counts())) == g  # codim grading


def test_dual_examples():
    rs = build_root_system("B2")
    ct = coset_reps(rs, ())
    # identity (point class) <-> longest element (fundamental class)
    assert dual(ct, 0) == len(ct) - 1
    for k in range(len(ct)):
        assert dual(ct, dual(ct, k)) == k


def test_duality_product():
    rs = build_root_system("B2")
    ct = coset_reps(rs, ())
    for a in range(len(ct)):
        b = ct.dual_index(a)
        assert duality_product(ct, a, b) == 1
        for c in range(len(ct)):
            if ct.codim(c) == ct.codim(b) and c != b:
                assert duality_product(ct, a, c) == 0
    with pytest.raises(UsageError):
        duality_product(ct, 0, 0)


def test_pieri_a1():
    rs = build_root_system("A1")
    w0 = WeylElement.from_word(rs, [1])
    out = pieri_multiply(rs, 1, w0)
    assert out.coeffs == {0: 1}  # [X_e]


def test_pieri_rejects_outside_gb():
    # the operation is only defined on the full flag variety; a class on a
    # proper parabolic has to go through multiply
    rs = build_root_system("B2")
    with pytest.raises(UsageError):
        pieri_multiply(rs, 3, WeylElement.identity(rs))


def test_divided_difference_word_independence_rank_le_3():
    for name in ("A2", "B2", "A3"):
        rs = build_root_system(name)
        ct = coset_reps(rs, ())
        x = Polynomial.variable(rs, 1)
        y = Polynomial.variable(rs, rs.rank)
        u = x * x * y + y * y * x
        for w in ct.reps:
            words = all_reduced_words(rs, w)
            results = {divided_difference(rs, word, u) for word in words}
            assert len(results) == 1


def test_char_map_examples_a2():
    rs = build_root_system("A2")
    ct = coset_reps(rs, ())
    x = Polynomial.variable(rs, 1)
    # c(w1) = [X_{w0 s1}]
    cls = char_map(rs, (), x)
    w0s1 = (ct.w0 * WeylElement.from_word(rs, [1])).word
    assert cls.coeffs == {ct.index[w0s1]: 1}
    # c(w1^2) = [X_{w0 s2 s1}]
    cls2 = char_map(rs, (), x * x)
    w0s2s1 = (ct.w0 * WeylElement.from_word(rs, [2, 1])).word
    assert cls2.coeffs == {ct.index[w0s2s1]: 1}
    # c(1) = fundamental class
    assert char_map(rs, (), Polynomial.one(rs)).coeffs == {len(ct) - 1: 1}


def test_char_map_rejects_bad_input():
    rs = build_root_system("A2")
    x = Polynomial.variable(rs, 1)
    with pytest.raises(UsageError):
        char_map(rs, (), x + x * x)  # inhomogeneous
    with pytest.raises(UsageError):
        char_map(rs, (1,), x)  # not W_theta-invariant


def test_invariant_generators_structure():
    rs = build_root_system("A2")
    gens = invariant_generators(rs, ())
    assert [g.degree() for g in gens] == [1, 1]
    gens = invariant_generators(rs, (1,))
    assert sorted(g.degree() for g in gens) == [1, 2]
    e7 = build_root_system("E7")
    gens = invariant_generators(e7, (2, 3, 4, 5, 6, 7))
    assert sorted(g.degree() for g in gens) == [1, 2, 4, 6, 6, 8, 10]
    for g in gens:
        assert g.is_invariant_under((2, 3, 4, 5, 6, 7))


def test_preimage_small():
    rs = build_root_system("A2")
    ct = coset_reps(rs, ())
    x = Polynomial.variable(rs, 1)
    w0s1 = (ct.w0 * WeylElement.from_word(rs, [1])).word
    cls = basis_class(rs, (), ct.index[w0s1])
    assert preimage(cls) == x
    # fundamental class -> 1
    fund = basis_class(rs, (), len(ct) - 1)
    assert preimage(fund) == Polynomial.one(rs)
    # c(preimage) = cls for every basis class on B2/B
    b2 = build_root_system("B2")
    bct = coset_reps(b2, ())
    for k in range(len(bct)):
        cls = basis_class(b2, (), k)
        u = preimage(cls)
        back = char_map(b2, (), u, check=False)
        assert {i: Fraction(c) for i, c in back.coeffs.items()} == {k: Fraction(1)}


def test_multiply_unit_and_grading():
    rs = build_root_system("B2")
    ct = coset_reps(rs, ())
    fund = basis_class(rs, (), len(ct) - 1)
    for k in range(len(ct)):
        a = basis_class(rs, (), k)
        assert multiply(a, fund) == a
    # product exceeding dim is zero
    pt = basis_class(rs, (), 0)
    assert multiply(pt, pt).is_zero()


def test_multiply_a2_square_of_divisor():
    rs = build_root_system("A2")
    ct = coset_reps(rs, ())
    w0s1 = (ct.w0 * WeylElement.from_word(rs, [1])).word
    w0s2s1 = (ct.w0 * WeylElement.from_word(rs, [2, 1])).word
    h = basis_class(rs, (), ct.index[w0s1])
    sq = multiply(h, h)
    assert sq.coeffs == {ct.index[w0s2s1]: 1}


def test_pieri_agrees_with_char_map_route():
    # every codim-1 product on G/B of A2, B2, A3
    for name in ("A2", "B2", "A3"):
        rs = build_root_system(name)
        ct = coset_reps(rs, ())
        for alpha in range(1, rs.rank + 1):
            w0salpha = (ct.w0 * WeylElement.from_word(rs, [alpha])).word
            hcls = basis_class(rs, (), ct.index[w0salpha])
            for k in range(len(ct)):
                wk = ct.reps[k]
                via_pieri = pieri_multiply(rs, alpha, wk)
                via_char = multiply(hcls, basis_class(rs, (), k))
                assert via_pieri.coeffs == via_char.coeffs, (name, alpha, wk.word)


def test_multiply_complementary_reproduces_duality():
    for name in ("A2", "B2"):
        rs = build_root_system(name)
        ct = coset_reps(rs, ())
        for a in range(len(ct)):
            for b in range(len(ct)):
                if ct.codim(a) + ct.codim(b) == ct.max_length:
                    out = multiply(basis_class(rs, (), a), basis_class(rs, (), b))
                    want = duality_product(ct, a, b)
                    assert out.coeffs == ({0: 1} if want else {})


def test_b2_pieri_coefficient_two():
    # the short/long coroot pairing <(a1+a2)^vee, w1> = 2 puts a coefficient 2
    # into the square of the divisor dual to the long root
    rs = build_root_system("B2")
    ct = coset_reps(rs, ())
    w0s1 = ct.w0 * WeylElement.from_word(rs, [1])
    out = pieri_multiply(rs, 1, w0s1)
    assert sorted(out.coeffs.values()) == [2]
    via_char = multiply(
        basis_class(rs, (), ct.index[w0s1.word]), basis_class(rs, (), ct.index[w0s1.word])
    )
    assert via_char.coeffs == out.coeffs
    # both divisor squares agree between the two routes
    w0s2 = ct.w0 * WeylElement.from_word(rs, [2])
    out2 = pieri_multiply(rs, 2, w0s2)
    via_char2 = multiply(
        basis_class(rs, (), ct.index[w0s2.word]), basis_class(rs, (), ct.index[w0s2.word])
    )
    assert via_char2.coeffs == out2.coeffs


def test_multiply_commutative_associative_random():
    rng = random.Random(7)
    for name, theta in [("B2", ()), ("A3", ())]:
        rs = build_root_system(name)
        ct = coset_reps(rs, theta)
        n = len(ct)
        for _ in range(12):
            ka, kb, kc = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            a, b, c = (basis_class(rs, theta, k) for k in (ka, kb, kc))
            assert multiply(a, b) == multiply(b, a)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_char_map_is_ring_hom_on_invariants():
    rng = random.Random(11)
    rs = build_root_system("B2")
    gens = invariant_generators(rs, ())
    for _ in range(10):
        u = gens[0].scale(rng.randrange(1, 4)) * gens[1] + gens[1] * gens[1].scale(rng.randrange(1, 3))
        v = gens[0] * gens[0]
        lhs = char_map(rs, (), u * v, check=False)
        rhs = multiply(char_map(rs, (), u, check=False), char_map(rs, (), v, check=False))
        la = {k: Fraction(c) for k, c in lhs.coeffs.items()}
        ra = {k: Fraction(c) for k, c in rhs.coeffs.items()}
        assert la == ra


def test_pullback_to_flags():
    rs = build_root_system("B2")
    theta = (2,)
    ct = coset_reps(rs, theta)
    flags = coset_reps(rs, ())
    # fundamental class -> [X_{w_theta}]
    fund = basis_class(rs, theta, len(ct) - 1)
    up = pullback_to_flags(fund)
    # [X_w] -> [X_{w w_theta}]: the fundamental rep is the longest in W^Theta
    expect = (ct.reps[-1] * ct.w_theta).word
    assert up.coeffs == {flags.index[expect]: 1}
    # all four classes map to words suffixed by w_theta = s2
    for k in range(len(ct)):
        cls = pullback_to_flags(basis_class(rs, theta, k))
        (idx,) = cls.coeffs
        assert flags.reps[idx] == ct.reps[k] * ct.w_theta
    # ring homomorphism: pull(a*b) = pull(a)*pull(b)
    for a in range(len(ct)):
        for b in range(len(ct)):
            pa = multiply(basis_class(rs, theta, a), basis_class(rs, theta, b))
            assert pullback_to_flags(pa) == multiply(
                pullback_to_flags(basis_class(rs, theta, a)),
                pullback_to_flags(basis_class(rs, theta, b)),
            )


def test_char_map_ring_hom_on_parabolic_invariants():
    # W_theta-invariants for a genuine parabolic: products map to products
    rng = random.Random(13)
    rs = build_root_system("B2")
    theta = (1,)
    gens = invariant_generators(rs, theta)
    assert sorted(g.degree() for g in gens) == [1, 2]
    for _ in range(8):
        u = gens[0].scale(rng.randrange(1, 4)) * gens[0] + gens[1].scale(rng.randrange(1, 3))
        v = gens[1] * gens[0]
        lhs = char_map(rs, theta, u * v, check=False)
        rhs = multiply(char_map(rs, theta, u, check=False), char_map(rs, theta, v, check=False))
        assert {k: Fraction(c) for k, c in lhs.coeffs.items()} == {
            k: Fraction(c) for k, c in rhs.coeffs.items()
        }


def test_pullback_identity_on_gb():
    rs = build_root_system("A2")
    cls = basis_class(rs, (), 2)
    assert pullback_to_flags(cls) == cls


def test_chern_projective_line():
    rs = build_root_system("A1")
    classes = chern_tangent(rs, ())
    # c(T_P1) = 1 + 2 [X_e]
    assert classes[0].coeffs == {1: 1}
    assert classes[1].coeffs == {0: 2}


def test_chern_c1_is_twice_sum_of_divisors():
    for name in ("A2", "B2"):
        rs = build_root_system(name)
        ct = coset_reps(rs, ())
        c1 = chern_tangent(rs, (), max_codim=1)[1]
        want = {}
        for j in range(1, rs.rank + 1):
            w0sj = (ct.w0 * WeylElement.from_word(rs, [j])).word
            want[ct.index[w0sj]] = 2
        assert c1.coeffs == want


def test_chern_top_is_euler_characteristic():
    # c_top integrates to chi(G/B) = |W|
    for name, chi in [("A2", 6), ("B2", 8)]:
        rs = build_root_system(name)
        ct = coset_reps(rs, ())
        top = chern_tangent(rs, ())[ct.max_length]
        assert top.coeffs == {0: chi}


def test_chern_memo_serves_smaller_and_larger_requests():
    rs = build_root_system("B3")
    theta = (2, 3)
    fresh = {m: _FlagContext(rs, theta).chern_classes(max_codim=m, ring="Z/2") for m in (2, 4)}
    down = _FlagContext(rs, theta)
    down.chern_classes(max_codim=4, ring="Z/2")
    assert down.chern_classes(max_codim=2, ring="Z/2") == fresh[2]
    up = _FlagContext(rs, theta)
    up.chern_classes(max_codim=2, ring="Z/2")
    assert up.chern_classes(max_codim=4, ring="Z/2") == fresh[4]
    with pytest.raises(UsageError):
        chern_tangent(rs, theta, max_codim=-1)


def test_theta_orderings_share_cache_entries():
    rs = build_root_system("A3")
    assert coset_reps(rs, [2, 1]) is coset_reps(rs, (1, 2))
    assert flag_context(rs, [2, 1]) is flag_context(rs, (1, 2))


def test_grid_limit_is_a_resource_error(monkeypatch):
    monkeypatch.setattr(_FlagContext, "GRID_LIMIT", 1)
    ctx = _FlagContext(build_root_system("B3"), (2, 3))  # degree 2: omega_1^2 and one quadric
    with pytest.raises(ResourceLimitError):
        ctx.grid(2)


def test_grading_rank_profile_matches_poincare():
    rs = build_root_system("B3")
    theta = (1, 2)
    ct = coset_reps(rs, theta)
    g = poincare_polynomial(rs, theta)
    counts = [0] * (univar.deg(g) + 1)
    for k in range(len(ct)):
        counts[ct.codim(k)] += 1
    assert tuple(counts) == g


def test_class_json_roundtrip():
    rs = build_root_system("B2")
    ct = coset_reps(rs, (2,))
    cls = ChowClass("B2", (2,), "Z/2", {0: 1, 2: 1})
    js = class_to_json(cls, ct)
    back = class_from_json(js)
    assert back == cls
    # dual flag resolves through the duality involution
    w = ct.reps[1]
    js2 = (
        '{"type": "B2", "theta": [2], "ring": "Z", '
        '"terms": [{"word": %s, "coeff": 1, "dual": true}]}' % list(w.word)
    )
    got = class_from_json(js2)
    assert got.coeffs == {ct.dual_index(1): 1}
