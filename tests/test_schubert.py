import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weylchow import univar
from weylchow.errors import InternalComputationError, UsageError
from weylchow.polynomial import (
    Polynomial,
    _Echelon,
    _invariant_generators,
    _orbit,
    _power_sum,
    _power_sum_row,
)
from weylchow.rootdata import build_root_system, root_subsystem, weyl_degrees
from weylchow.schubert import (
    ChowClass,
    _FlagContext,
    chern_tangent,
    class_from_json,
    class_to_json,
    dual,
    duality_product,
    flag_context,
    invariant_generators,
    multiply,
    pullback_to_flags,
)
from weylchow.steenrod import steenrod_total
from weylchow.weyl import WeylElement, coset_reps, poincare_polynomial

from oracles import (
    _grid_products,
    all_reduced_words,
    borel_memos,
    char_map,
    divided_difference,
    grid,
    invariant_generators_by_polynomials,
    pieri_multiply,
    preimage,
    preimage_of,
)


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


def test_divided_difference_word_letters_checked():
    rs = build_root_system("A2")
    x = Polynomial.variable(rs, 1)
    for word in ((0,), (3,), (1.5,), (True,), (2.0,)):
        with pytest.raises(UsageError):
            divided_difference(rs, word, x * x)


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


@pytest.mark.parametrize("name,theta", [
    ("A9", range(1, 9)), ("A9", range(2, 10)), ("A11", range(1, 11)), ("B10", range(1, 10)),
    ("C9", range(1, 9)), ("D10", range(1, 10)),
])
def test_invariant_generators_above_rank_8(name, theta):
    # the test points have a coordinate per variable: cut to 8, they failed the row re-check
    rs = build_root_system(name)
    theta = tuple(theta)
    gens = invariant_generators(rs, theta)
    assert sorted(g.degree() for g in gens) == sorted((1,) + weyl_degrees(root_subsystem(rs, theta)))


def test_product_on_p9():
    theta = list(range(1, 9))

    def cls(word):
        return class_from_json(json.dumps({"type": "A9", "theta": theta, "terms": [{"word": word}]}))

    ct = coset_reps(build_root_system("A9"), theta)
    product = multiply(cls([7, 8, 9]), cls([3, 4, 5, 6, 7, 8, 9]))
    assert class_to_json(product, ct) == class_to_json(cls([9]), ct)


def _all_thetas(name):
    n = build_root_system(name).rank
    return [(name, t) for k in range(n + 1) for t in itertools.combinations(range(1, n + 1), k)]


_GENERATOR_CASES = [case for name in ("B3", "C3", "G2", "F4", "D4") for case in _all_thetas(name)] + [
    ("E6", (2, 3, 4, 5, 6)), ("E6", (1, 2, 3, 4, 5)), ("E7", (2, 3, 4, 5, 6, 7))
]


@pytest.mark.parametrize(
    "name,theta", _GENERATOR_CASES, ids=[f"{n}-theta{''.join(map(str, t))}" for n, t in _GENERATOR_CASES]
)
def test_invariant_generators_match_the_polynomial_jacobian_oracle(name, theta):
    rs = build_root_system(name)
    got = _invariant_generators(rs, theta)
    want = invariant_generators_by_polynomials(rs, theta)
    assert [g.terms for g in got] == [g.terms for g in want]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_power_sum_row_is_the_polynomial_jacobian_row(data):
    rs = build_root_system(data.draw(st.sampled_from(["A3", "B3", "C3", "G2", "D4", "A2xA2"])))
    n = rs.rank
    theta = tuple(data.draw(st.sets(st.integers(1, n))))
    seed = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    pt = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    d = data.draw(st.integers(1, 7))
    orbit = _orbit(rs, theta, seed)
    values = [sum(m * x for m, x in zip(mu, pt)) for mu in orbit]
    p = _power_sum(rs, orbit, d)
    assert _power_sum_row(orbit, values, d) == [p.derivative(j).evaluate(pt) for j in range(n)]


def test_generator_row_recheck_catches_a_wrong_expansion(monkeypatch):
    import weylchow.polynomial as polynomial

    # twice the power sum is still invariant, so only the row re-check can see it
    monkeypatch.setattr(polynomial, "_power_sum", lambda rs, orbit, d: _power_sum(rs, orbit, d).scale(2))
    with pytest.raises(InternalComputationError, match="Jacobian row"):
        _invariant_generators(build_root_system("B3"), (2, 3))


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
        back = char_map(b2, (), u)
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
    # E6/P1: a codimension-0 factor takes the ordinary routes, either side
    e6 = build_root_system("E6")
    ct = coset_reps(e6, (2, 3, 4, 5, 6))
    for ring in ("Z", "Z/3"):
        three_fund = ChowClass("E6", ct.theta, ring, {len(ct) - 1: 3})
        for k in range(len(ct)):
            a = basis_class(e6, ct.theta, k, ring)
            want = ChowClass("E6", ct.theta, ring, {k: 3})
            assert multiply(three_fund, a) == want == multiply(a, three_fund), (ring, k)


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
    # A2 and B2 flags, F4/P4 and E6/P1 (theta (1, 2, 3) and (2, 3, 4, 5, 6))
    for name, theta in (("A2", ()), ("B2", ()), ("F4", (1, 2, 3)), ("E6", (2, 3, 4, 5, 6))):
        rs = build_root_system(name)
        ct = coset_reps(rs, theta)
        for ring in ("Z", "Z/2"):
            for a in range(len(ct)):
                for b in range(len(ct)):
                    if ct.codim(a) + ct.codim(b) == ct.max_length:
                        out = multiply(basis_class(rs, theta, a, ring),
                                       basis_class(rs, theta, b, ring))
                        want = duality_product(ct, a, b)
                        assert out.coeffs == ({0: 1} if want else {}), (name, ring, a, b)


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
        lhs = char_map(rs, (), u * v)
        rhs = multiply(char_map(rs, (), u), char_map(rs, (), v))
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
        lhs = char_map(rs, theta, u * v)
        rhs = multiply(char_map(rs, theta, u), char_map(rs, theta, v))
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
    # c_top integrates to chi(G/P) = |W^Theta|: on A2 and B2 flags, E7/P1 and E8/P8
    for name, theta, chi in [("A2", (), 6), ("B2", (), 8), ("E7", (2, 3, 4, 5, 6, 7), 126),
                             ("E8", (1, 2, 3, 4, 5, 6, 7), 240)]:
        rs = build_root_system(name)
        ct = coset_reps(rs, theta)
        top = chern_tangent(rs, theta)[ct.max_length]
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


def test_grading_rank_profile_matches_poincare():
    rs = build_root_system("B3")
    theta = (1, 2)
    ct = coset_reps(rs, theta)
    g = poincare_polynomial(rs, theta)
    counts = [0] * (univar.deg(g) + 1)
    for k in range(len(ct)):
        counts[ct.codim(k)] += 1
    assert tuple(counts) == g


def test_chow_class_value_contract():
    cls = ChowClass("A2", (), "Z/2", {0: 3, 1: 0})
    assert cls.coeffs == {0: 1}
    with pytest.raises(AttributeError):
        cls.ring = "Z"
    with pytest.raises(AttributeError):
        cls.coeffs = {}
    assert ChowClass("A2", (), "Z/3", {0: Fraction(1, 2)}).coeffs == {0: 2}
    z = ChowClass("A2", (), "Z", {0: Fraction(4, 2)})
    assert z.coeffs == {0: 2} and type(z.coeffs[0]) is int
    for ring in ("Z", "Z/2"):
        with pytest.raises(InternalComputationError):
            ChowClass("A2", (), ring, {0: Fraction(1, 2)})
    q = ChowClass("A2", (), "Q", {0: Fraction(2, 1)})
    assert type(q.coeffs[0]) is Fraction


def test_chow_classes_hash_by_value():
    a = ChowClass("A2", (), "Z/2", {0: 3, 1: 0, 4: 1})
    b = ChowClass("A2", (), "Z/2", {4: 1, 0: 1})
    assert a == b and hash(a) == hash(b)
    q, q2 = ChowClass("A2", (), "Q", {1: 2}), ChowClass("A2", (), "Q", {1: Fraction(4, 2)})
    assert q == q2 and hash(q) == hash(q2)
    others = [ChowClass("A2", (), "Z/3", {0: 1, 4: 1}), ChowClass("A2", (1,), "Z/2", {0: 1}),
              ChowClass("A3", (), "Z/2", {0: 1, 4: 1}), ChowClass("A2", (), "Z/2", {0: 1})]
    assert len({a, b, q, q2, *others}) == 2 + len(others)
    assert b in {a} and q2 in {q: 1} and not set(others) & {a}


@pytest.mark.parametrize("key", [99, 6, -1, True, "0", 1.0, None])
def test_multiply_refuses_positions_outside_the_table(key):
    # A2 full flags: positions 0..5; the pullback and the total square read a
    # class's keys through the same check
    good = ChowClass("A2", (), "Z", {2: 1})
    bad = ChowClass("A2", (), "Z", {0: 1, key: 1})
    outside = r"basis position .* must be an integer in 0\.\.5"
    for a, b in ((bad, good), (good, bad)):
        with pytest.raises(UsageError, match=outside):
            multiply(a, b)
    with pytest.raises(UsageError, match=outside):
        pullback_to_flags(bad)
    with pytest.raises(UsageError, match=outside):
        steenrod_total(ChowClass("A2", (), "Z/2", {0: 1, key: 1}))
    # B3/P1: positions 0..23, where 6 is one and 24 the first past the table
    with pytest.raises(UsageError, match=r"basis position .* must be an integer in 0\.\.23"):
        pullback_to_flags(ChowClass("B3", (1,), "Z", {24 if key == 6 else key: 1}))
    assert multiply(good, ChowClass("A2", (), "Z", {5: 1, 0: 1})) == good
    assert pullback_to_flags(good) == good
    assert steenrod_total(ChowClass("A2", (), "Z/2", {2: 1}))[0].coeffs == {2: 1}


@pytest.mark.parametrize("up_to", [-1, 1.5, 2.0, True, False, "1"])
def test_steenrod_total_refuses_a_bound_that_is_not_a_nonnegative_int(up_to):
    cls = ChowClass("A2", (), "Z/2", {0: 1})
    with pytest.raises(UsageError, match="Steenrod degree must be a nonnegative integer"):
        steenrod_total(cls, up_to=up_to)
    assert len(steenrod_total(cls, up_to=1)) == 2


def test_each_product_takes_the_lower_degree_route(monkeypatch):
    # the polynomial route reads images of degree da + db, the pairing route
    # images of degree dim - max(da, db); the lower one wins, a tie goes to
    # the polynomial route, and codimension 0 or complementary pairs are no
    # special case
    import types

    import oracles

    routed = []
    monkeypatch.setattr(oracles, "_multiply_poly_route",
                        lambda ctx, a, b: routed.append("poly"))
    monkeypatch.setattr(oracles, "_multiply_by_pairings",
                        lambda ctx, a, b, da, db: routed.append("pairing"))
    cls = ChowClass("A1", (), "Z", {})
    for dim in range(1, 71):
        ctx = types.SimpleNamespace(dim=dim)
        for da in range(dim + 1):
            for db in range(dim - da + 1):
                oracles._multiply_homogeneous(ctx, cls, cls, da, db)
                want = "poly" if da + db <= dim - max(da, db) else "pairing"
                assert routed.pop() == want and not routed, (dim, da, db)


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
    # a reduced word that is not the canonical one is canonicalized before the lookup;
    # a word that is not reduced names no Schubert class and is refused
    ct = coset_reps(build_root_system("A2"), ())
    for word in ([2, 1, 2], [2, 1]):
        got = class_from_json('{"type": "A2", "ring": "Z", "terms": [{"word": %s}]}' % word)
        assert got.coeffs == {ct.index[WeylElement.from_word(ct.rs, word).word]: 1}
    for word in ([1, 1], [1, 2, 1, 2], [1, 1, 2, 1, 2]):
        with pytest.raises(UsageError, match="not reduced"):
            class_from_json('{"type": "A2", "ring": "Z", "terms": [{"word": %s}]}' % word)


@pytest.mark.parametrize(
    "name,theta",
    [("F4", (1, 2, 3)), ("F4", (2, 3, 4)), ("E6", (2, 3, 4, 5, 6)), ("E6", (1, 2, 3, 4, 5))],
    ids=["F4/P4", "F4/P1", "E6/P1", "E6/P6"],
)
def test_poly_and_pairing_routes_agree(name, theta):
    # the pairing route pairs against the dual class [Z_v] of every v through
    # dual_index; the polynomial route reads the product off the delta sweep,
    # so a wrong dual shows up as a mismatch
    from oracles import _multiply_by_pairings, _multiply_poly_route

    rs = build_root_system(name)
    ctx = flag_context(rs, theta)
    by_codim = {}
    for k in range(len(ctx.ct)):
        by_codim.setdefault(ctx.ct.codim(k), []).append(k)
    rng = random.Random(5)
    for ring in ("Z", "Z/2"):
        for da in range(1, ctx.dim):
            for db in range(da, ctx.dim - da):
                a = ChowClass(rs.type.name(), ctx.theta, ring, {rng.choice(by_codim[da]): 1})
                b = ChowClass(rs.type.name(), ctx.theta, ring, {rng.choice(by_codim[db]): 1})
                poly = _multiply_poly_route(ctx, a, b)
                pairs = _multiply_by_pairings(ctx, a, b, da, db)
                assert poly.coeffs == pairs.coeffs, (ring, da, db)


def test_pairing_route_solves_the_fixed_factor_once(monkeypatch):
    # E6/P1 (dim 16): codim 7 x codim 3 needs images of degree 10 on the
    # polynomial route but only 16 - 7 = 9 on the pairing route, so the Borel
    # product pairs a against b * [Z_v] for every v of codim 10; b's pivot
    # coordinates are solved once, then one solve per [Z_v] (codim 6)
    from oracles import _multiply_poly_route, multiply_by_borel

    rs = build_root_system("E6")
    ctx = flag_context(rs, (2, 3, 4, 5, 6))
    a = ChowClass("E6", ctx.theta, "Z", {k: 1 for k in ctx.ct.of_codim(7)[:2]})
    b = ChowClass("E6", ctx.theta, "Z", {ctx.ct.of_codim(3)[0]: 1})
    import oracles

    solved = []
    pivot_coords = oracles.pivot_coords

    def counting(context, cls):
        solved.append(cls.codim(context.ct))
        return pivot_coords(context, cls)

    monkeypatch.setattr(oracles, "pivot_coords", counting)
    got = multiply_by_borel(a, b)
    assert solved == [3] + [6] * len(ctx.ct.of_codim(10))
    assert got == _multiply_poly_route(ctx, a, b) == multiply(a, b)


def _det(m):
    """Exact determinant by Gaussian elimination over Q (an independent reference)."""
    a = [[Fraction(x) for x in row] for row in m]
    n, det = len(a), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
)))
def test_echelon_inverts_nonsingular_integer_matrices(case):
    m, c = case
    n = len(m)
    assume(_det(m) != 0)
    elim = _Echelon(n)
    for j, row in enumerate(m):
        # a combination of the rows already in is dependent, the next row is not
        combo = [sum(c[i] * m[i][s] for i in range(j)) for s in range(n)]
        assert not elim.add(combo)
        assert elim.add(row)
    assert not elim.add(c)
    D, A = elim.inverse()
    assert D > 0 and all(type(x) is int for row in A for x in row)
    for t in range(n):
        for s in range(n):
            assert sum(A[t][j] * m[j][s] for j in range(n)) == (D if s == t else 0)
    short = _Echelon(n)
    for row in m[:-1]:
        short.add(row)
    with pytest.raises(InternalComputationError, match="singular matrix"):
        short.inverse()


def test_grid_verification_catches_a_wrong_inverse(monkeypatch):
    inverse = _Echelon.inverse

    def wrong(self):
        D, A = inverse(self)
        A[-1][0] += 1
        return D, A

    monkeypatch.setattr(_Echelon, "inverse", wrong)
    ctx = _FlagContext(build_root_system("B3"), (1, 2))
    with pytest.raises(InternalComputationError, match="preimage verification failed"):
        grid(ctx, 2)


@pytest.mark.parametrize(
    "name,theta,top",
    [("B3", (1, 2), 5), ("F4", (1, 2, 3), 8), ("E6", (2, 3, 4, 5, 6), 8)],
    ids=["B3/P3", "F4/P4", "E6/P1"],
)
def test_preimages_are_integer_polynomials_over_one_denominator(name, theta, top):
    rs = build_root_system(name)
    ctx = flag_context(rs, theta)
    by_codim = {}
    for k in range(len(ctx.ct)):
        by_codim.setdefault(ctx.ct.codim(k), []).append(k)
    for d in range(1, top + 1):
        ks = by_codim[d]
        for ring, coeffs in (
            ("Z", {k: (-1) ** j * (j + 2) for j, k in enumerate(ks)}),
            ("Z/2", {k: Fraction(j + 1, 3) for j, k in enumerate(ks)}),
            ("Q", {k: Fraction(j + 1, j + 2) for j, k in enumerate(ks)}),
        ):
            cls = ChowClass(name, ctx.theta, ring, coeffs)
            den, U = preimage_of(ctx, cls)
            assert den > 0 and all(type(c) is int for c in U.terms.values())
            assert math.gcd(den, *U.terms.values()) == 1
            u = preimage(cls)
            assert u == U.scale(Fraction(1, den))
            back = char_map(rs, theta, u)
            assert ChowClass(name, ctx.theta, ring, back.coeffs) == cls, (ring, d)


_ROUTE_SPACES = [("B3", (1, 2)), ("F4", (1, 2, 3)), ("E6", (2, 3, 4, 5, 6))]
_ROUTE_IDS = ["B3/P3", "F4/P4", "E6/P1"]


@pytest.mark.parametrize("name,theta", _ROUTE_SPACES, ids=_ROUTE_IDS)
def test_grid_products_are_full_length_of_weighted_degree(name, theta):
    ctx = flag_context(build_root_system(name), theta)
    degs = [g.degree() for g in invariant_generators(ctx.rs, ctx.theta)]
    for d in range(1, ctx.dim + 1):
        products = _grid_products(ctx, d)
        assert products and len(set(products)) == len(products)
        for exps in products:
            assert len(exps) == len(degs), (d, exps)
            assert sum(e * g for e, g in zip(exps, degs)) == d, (d, exps)


@pytest.mark.parametrize("name,theta", _ROUTE_SPACES, ids=_ROUTE_IDS)
def test_grid_candidates_are_lower_pivots_times_one_generator(name, theta):
    ctx = _FlagContext(build_root_system(name), theta)
    degs = [g.degree() for g in invariant_generators(ctx.rs, ctx.theta)]
    assert _grid_products(ctx, 0) == [(0,) * len(degs)]
    for d in range(1, ctx.dim + 1):
        products = _grid_products(ctx, d)
        lower = {j: set(grid(ctx, d - g)[0]) for j, g in enumerate(degs) if g <= d}
        for exps in products:
            assert any(exps[j] and exps[:j] + (exps[j] - 1,) + exps[j + 1:] in pivots
                       for j, pivots in lower.items()), (d, exps)
        assert len(products) <= sum(len(ctx.ct.of_codim(d - degs[j])) for j in lower), d


@pytest.mark.parametrize("name,theta", _ROUTE_SPACES, ids=_ROUTE_IDS)
def test_grids_built_top_down_match_grids_built_bottom_up(name, theta):
    rs = build_root_system(name)
    up = _FlagContext(rs, theta)
    bottom_up = [grid(up, d) for d in range(up.dim + 1)]
    down = _FlagContext(rs, theta)
    grid(down, down.dim)
    grids = borel_memos(down)[0]
    assert sorted(grids) == list(range(down.dim + 1))  # the top grid built every lower one
    assert [grid(down, d) for d in range(down.dim + 1)] == bottom_up


def test_e6p1_grids_sweep_fewer_images_than_the_weighted_degree_enumeration():
    ctx = _FlagContext(build_root_system("E6"), (2, 3, 4, 5, 6))
    for d in range(ctx.dim + 1):
        grid(ctx, d)
    # every weighted composition of each degree, sparse first, swept 42 images for these 27 pivots
    assert sum(len(grid(ctx, d)[0]) for d in range(ctx.dim + 1)) == 27
    assert len(borel_memos(ctx)[1]) < 42


_FRACTIONS = {  # coefficient j of a test class, fractional where the ring allows it
    "Z": lambda j: (-1) ** j * (j + 2),
    "Z/2": lambda j: Fraction(j + 1, 3),
    "Z/3": lambda j: Fraction(2 * j + 1, 2 ** (j + 1)),
    "Q": lambda j: Fraction(j + 1, j + 2),
}


@pytest.mark.parametrize("name,theta", _ROUTE_SPACES, ids=_ROUTE_IDS)
def test_poly_route_matches_the_preimage_product_oracle(name, theta):
    from oracles import _multiply_poly_route, multiply_by_preimage_product

    rs = build_root_system(name)
    ctx = flag_context(rs, theta)
    by_codim = {}
    for k in range(len(ctx.ct)):
        by_codim.setdefault(ctx.ct.codim(k), []).append(k)
    rng = random.Random(11)

    def sample(ring, d):
        ks = rng.sample(by_codim[d], min(3, len(by_codim[d])))
        return ChowClass(name, ctx.theta, ring, {k: _FRACTIONS[ring](j) for j, k in enumerate(ks)})

    for ring in _FRACTIONS:
        for da in range(1, ctx.dim):
            for db in range(da, ctx.dim - da):
                k = da + db
                if k > ctx.dim - max(da, db):  # products the dispatcher routes elsewhere
                    continue
                a, b = sample(ring, da), sample(ring, db)
                want = multiply_by_preimage_product(ctx, a, b, k, ring)
                assert _multiply_poly_route(ctx, a, b) == want, (ring, da, db)


def test_monomial_images_are_swept_once(monkeypatch):
    import oracles
    from oracles import _multiply_poly_route

    rs = build_root_system("E6")
    ctx = _FlagContext(rs, (2, 3, 4, 5, 6))
    swept = []
    sweep = oracles.delta_scalars

    def counting(context, P, max_len=None):
        swept.append(frozenset(P.terms.items()))
        return sweep(context, P, max_len)

    monkeypatch.setattr(oracles, "delta_scalars", counting)
    d = 4
    basis = [k for k in range(len(ctx.ct)) if ctx.ct.codim(k) == d]
    assert len(basis) > 1

    def products(ring):
        return {(ka, kb): _multiply_poly_route(ctx, basis_class(rs, ctx.theta, ka, ring),
                                               basis_class(rs, ctx.theta, kb, ring))
                for ka in basis for kb in basis}

    mod2 = products("Z/2")
    after_mod2 = len(swept)
    integral = products("Z")
    assert len(swept) == after_mod2  # the Z pass reuses every image
    for pair, cls in integral.items():
        assert mod2[pair] == ChowClass("E6", ctx.theta, "Z/2", cls.coeffs)
    images = borel_memos(ctx)[1]
    imaged = set(images)
    pivots = grid(ctx, 2 * d)[0]
    assert imaged & set(pivots)  # the grid reads images the products already swept
    assert len(swept) == len(set(swept)) == len(images)  # no monomial swept twice
