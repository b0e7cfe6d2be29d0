"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria 4 and 5 carry
the `heavy` marker (E7-scale computations, about 10 s together on a 2-core
VM); the rest complete in seconds.  All assertions are exact.
"""

import itertools
import random
import time

import pytest

from weylchow import univar
from weylchow.motive import compose, decompose, decomposition_profile_sum, idempotent_power, refine_rost
from weylchow.polynomial import Polynomial
from weylchow.rootdata import build_root_system
from weylchow.schubert import (
    ChowClass,
    char_map,
    duality_product,
    flag_context,
    invariant_generators,
    multiply,
    pieri_multiply,
)
from weylchow.steenrod import (
    _direct_steenrod_pieces,
    _oracle_steenrod_divisor_generated,
    steenrod_basis_element,
    steenrod_total,
    wu_convention,
)
from weylchow.titsjinv import (
    HigherIndexSet,
    JProfile,
    automaton,
    higher_index_table,
    is_generically_split,
    kac_entry,
    kac_poincare,
    predicted_rational_poincare,
    profile_factor,
)
from weylchow.weyl import WeylElement, coset_reps, poincare_polynomial

from oracles import all_reduced_words

E7_THETA_P1 = (2, 3, 4, 5, 6, 7)
E7_THETA_P7 = (1, 2, 3, 4, 5, 6)

F_DUAL_WORD = (7, 6, 5, 4, 3, 2, 4, 5, 6, 1, 3, 4, 5, 2, 4, 3, 1)
C16_DUAL_WORDS = (
    (6, 5, 4, 2, 3, 1, 4, 3, 5, 4, 2, 6, 5, 4, 3, 1),
    (4, 2, 3, 1, 4, 3, 6, 5, 4, 2, 7, 6, 5, 4, 3, 1),
    (4, 3, 1, 5, 4, 3, 6, 5, 4, 2, 7, 6, 5, 4, 3, 1),
)


def report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def basis(rs, theta, k, ring="Z"):
    return ChowClass(rs.type.name(), tuple(sorted(theta)), ring, {k: 1})


def z_class_index(ct, word):
    """Index of Z_{word} = [X_{w0 . word . w_theta}]."""
    w = WeylElement.from_word(ct.rs, word)
    return ct.dual_index(ct.index[w.word])


def test_criterion_1_solomon_poincare():
    t0 = time.time()
    rs = build_root_system("E7")
    g1 = poincare_polynomial(rs, E7_THETA_P1)
    assert univar.deg(g1) == 33
    assert sum(g1) == 126
    g7 = poincare_polynomial(rs, E7_THETA_P7)
    assert univar.deg(g7) == 27
    assert sum(g7) == 56
    assert time.time() - t0 < 1.0
    report(1, "g(E7/P1) deg 33 sum 126; g(E7/P7) deg 27 sum 56")


def test_criterion_2_duality():
    # exhaustive on G/B of A2, B2, A3, B3: the general product of every
    # complementary pair reproduces the duality delta
    for name in ("A2", "B2", "A3", "B3"):
        rs = build_root_system(name)
        ct = coset_reps(rs, ())
        for a in range(len(ct)):
            for b in range(len(ct)):
                if ct.codim(a) + ct.codim(b) != ct.max_length:
                    continue
                want = duality_product(ct, a, b)
                got = multiply(basis(rs, (), a), basis(rs, (), b))
                assert got.coeffs == ({0: 1} if want else {}), (name, a, b)
    # E7/P7 sampled pairs: involution/codim structure of the duality formula
    rs = build_root_system("E7")
    ct = coset_reps(rs, E7_THETA_P7)
    rng = random.Random(2)
    checked = 0
    while checked < 220:
        a = rng.randrange(len(ct))
        d = ct.dual_index(a)
        assert ct.codim(a) + ct.codim(d) == ct.max_length
        assert ct.dual_index(d) == a
        assert duality_product(ct, a, d) == 1
        b = rng.randrange(len(ct))
        if ct.codim(b) == ct.codim(d) and b != d:
            assert duality_product(ct, a, b) == 0
        checked += 1
    report(2, "duality formula exhaustive on A2/B2/A3/B3 flags; 220 sampled pairs on E7/P7")


def test_criterion_3_pieri_vs_char_map():
    t0 = time.time()
    for name in ("A2", "B2", "A3"):
        rs = build_root_system(name)
        ct = coset_reps(rs, ())
        for alpha in range(1, rs.rank + 1):
            w0sa = (ct.w0 * WeylElement.from_word(rs, [alpha])).word
            h = basis(rs, (), ct.index[w0sa])
            for k in range(len(ct)):
                via_pieri = pieri_multiply(rs, alpha, ct.reps[k])
                via_char = multiply(h, basis(rs, (), k))
                assert via_pieri.coeffs == via_char.coeffs, (name, alpha, k)
    assert time.time() - t0 < 60
    report(3, "Pieri == characteristic-map route for all codim-1 products on A2/B2/A3")


@pytest.mark.heavy
def test_criterion_4_chern_golden():
    t0 = time.time()
    rs = build_root_system("E7")
    ctx = flag_context(rs, E7_THETA_P1)
    c16 = ctx.chern_classes(max_codim=16, ring="Z/2")[16]
    want = {z_class_index(ctx.ct, w): 1 for w in C16_DUAL_WORDS}
    assert c16.coeffs == want
    assert time.time() - t0 < 60
    report(4, "c16(T_{E7/P1}) mod 2 equals the known three-term sum")


@pytest.mark.heavy
def test_criterion_5_steenrod_golden():
    t0 = time.time()
    rs = build_root_system("E7")
    theta = E7_THETA_P1
    ctx = flag_context(rs, theta)
    ct = ctx.ct
    dim = ct.max_length
    c16 = ctx.chern_classes(max_codim=16, ring="Z/2")[16]

    def pair(a, b):
        total = 0
        for k, ca in a.coeffs.items():
            cb = b.coeffs.get(ct.dual_index(k))
            if cb:
                total += ca * cb
        return total % 2

    # (a) S^16(f) = pt
    f_idx = z_class_index(ct, F_DUAL_WORD)
    assert ct.codim(f_idx) == 17
    f = ChowClass("E7", theta, "Z/2", {f_idx: 1})
    graded_f = steenrod_total(f)
    assert graded_f[16].coeffs == {0: 1}

    ch8 = [k for k in range(len(ct)) if ct.codim(k) == 8]
    ch9 = [k for k in range(len(ct)) if ct.codim(k) == 9]

    # (e) S^8(Ch^8) = {0, c} with c attained (S^8 is additive, so checking
    # the basis determines the whole image)
    images = []
    for k in ch8:
        out = steenrod_basis_element(rs, theta, k, up_to=8)
        s8 = out.get(8)
        coeffs = s8.coeffs if s8 else {}
        assert coeffs in ({}, c16.coeffs), k
        images.append(coeffs)
    assert c16.coeffs in images

    # (c) S^8(g) S^8(h) = c g h for ALL basis g in Ch^9, h in Ch^8
    s8_h = {k: steenrod_basis_element(rs, theta, k, up_to=8).get(8) for k in ch8}
    s8_g = {k: steenrod_basis_element(rs, theta, k, up_to=8).get(8) for k in ch9}
    zero = ChowClass("E7", theta, "Z/2", {})
    for g in ch9:
        for h in ch8:
            gh = multiply(
                ChowClass("E7", theta, "Z/2", {g: 1}), ChowClass("E7", theta, "Z/2", {h: 1})
            )
            rhs = pair(gh, c16)  # coefficient of pt in c g h
            lhs = pair(s8_g[g] or zero, s8_h[h] or zero)
            assert lhs == rhs, (g, h)

    # (d) c . Ch^6 = c . Ch^12 = 0, via the perfect pairing: c x = 0 iff
    # deg(c . x . [Z_v]) = 0 for every complementary basis v
    for cod in (6, 12):
        xs = [k for k in range(len(ct)) if ct.codim(k) == cod]
        partners = [k for k in range(len(ct)) if ct.codim(k) == dim - 16 - cod]
        for x in xs:
            for v in partners:
                xz = multiply(
                    ChowClass("E7", theta, "Z/2", {x: 1}),
                    ChowClass("E7", theta, "Z/2", {v: 1}),
                )
                assert pair(xz, c16) == 0, (cod, x, v)

    assert time.time() - t0 < 120
    report(5, "S^16(f) = pt; S^8(Ch^8) = {0,c}; S^8(g)S^8(h) = cgh; c.Ch^6 = c.Ch^12 = 0 on E7/P1")


def test_criterion_6_steenrod_calibration_and_axioms():
    t0 = time.time()
    conv = wu_convention()
    # oracle agreement on every basis class of the A2 and A3 flag varieties
    for name in ("A2", "A3"):
        rs = build_root_system(name)
        ct = coset_reps(rs, ())
        for idx in range(len(ct)):
            got = _direct_steenrod_pieces(rs, (), idx, conv)
            want = _oracle_steenrod_divisor_generated(rs, idx)
            assert got == want, (name, idx)
    # axioms exhaustively on A2/B2/A3
    for name in ("A2", "B2", "A3"):
        rs = build_root_system(name)
        ct = coset_reps(rs, ())
        dim = ct.max_length
        totals = {}
        for idx in range(len(ct)):
            cls = ChowClass(name, (), "Z/2", {idx: 1})
            graded = steenrod_total(cls)
            codim = ct.codim(idx)
            assert graded[0] == cls                      # S^0 = id
            for i, piece in enumerate(graded):
                if i > codim:
                    assert piece.is_zero()               # vanishing above codim
            if 2 * codim <= dim and codim < len(graded):
                sq = multiply(cls, cls)
                sq2 = ChowClass(name, (), "Z/2", {k: c % 2 for k, c in sq.coeffs.items() if c % 2})
                assert graded[codim] == sq2              # top squaring
            totals[idx] = graded
        # ring homomorphism on all basis pairs
        for a in range(len(ct)):
            for b in range(len(ct)):
                prod = multiply(
                    ChowClass(name, (), "Z/2", {a: 1}), ChowClass(name, (), "Z/2", {b: 1})
                )
                prod = ChowClass(name, (), "Z/2", {k: c % 2 for k, c in prod.coeffs.items() if c % 2})
                lhs = {}
                for piece in steenrod_total(prod):
                    for k, c in piece.coeffs.items():
                        lhs[k] = (lhs.get(k, 0) + c) % 2
                rhs = {}
                for pa in totals[a]:
                    for pb in totals[b]:
                        if pa.is_zero() or pb.is_zero():
                            continue
                        pp = multiply(pa, pb)
                        for k, c in pp.coeffs.items():
                            rhs[k] = (rhs.get(k, 0) + c) % 2
                assert {k: c for k, c in lhs.items() if c} == {k: c for k, c in rhs.items() if c}
    assert time.time() - t0 < 300
    report(6, f"Bott-Samelson route matches the divisor oracle (convention {conv}); axioms hold on A2/B2/A3")


def test_criterion_7_motivic_decompositions():
    t0 = time.time()
    rs = build_root_system("E7")
    # (i) E7/P7 with circled {1,6,7}
    summands = decompose(rs, E7_THETA_P7, [1, 6, 7])
    singles = sorted(s.twist for s in summands if s.is_lefschetz)
    assert singles == [0, 1, 9, 10, 17, 18, 26, 27]
    rost = refine_rost(summands)
    assert rost == sorted(list(range(2, 23)) + [11, 12, 13])
    # (ii) E7/P7 with circled {1}
    three = decompose(rs, E7_THETA_P7, [1])
    assert len(three) == 3
    d6 = build_root_system("D6")
    g_q = poincare_polynomial(d6, (2, 3, 4, 5, 6))
    g_z = poincare_polynomial(d6, (1, 2, 3, 4, 5))
    profs = sorted((s.twist, s.profile) for s in three)
    assert profs[0][0] == 0 and univar.tpoly(profs[0][1]) == g_q
    assert profs[1][0] == 6 and sorted(profs[1][1]) == sorted(g_z) and sum(profs[1][1]) == 32
    assert profs[2][0] == 17 and univar.tpoly(profs[2][1]) == g_q
    # (iii) profile sums over every circled subset on B2/B3/F4
    for name in ("B2", "B3", "F4"):
        rsx = build_root_system(name)
        thetas = [()] + [
            tuple(sorted(set(range(1, rsx.rank + 1)) - {i})) for i in range(1, rsx.rank + 1)
        ]
        for theta in thetas:
            g = poincare_polynomial(rsx, theta)
            for r in range(rsx.rank + 1):
                for circled in itertools.combinations(range(1, rsx.rank + 1), r):
                    ss = decompose(rsx, theta, circled)
                    assert decomposition_profile_sum(rsx, theta, ss) == g
    assert time.time() - t0 < 300
    report(7, "E7/P7 decompositions match the known ones; profile sums hold on all B2/B3/F4 cuts")


def test_criterion_8_tits_automata():
    t0 = time.time()
    from weylchow.rootdata import DynkinType
    from weylchow.titsjinv import height

    def graph(type_name, subsets):
        a = automaton(HigherIndexSet.build(DynkinType.parse(type_name), subsets))
        return {(a.labels[f], i): a.labels[t] for f, t, i in a.transitions}, height(a)

    e, h = graph("B2", [(), (1,), (1, 2)])
    assert e == {("B2", 1): "B1", ("B2", 2): "1", ("B1", 2): "1"} and h == 2
    e, h = graph("B3", [(), (1, 2, 3)])
    assert e == {("B3", 1): "1", ("B3", 2): "1", ("B3", 3): "1"} and h == 1
    e, h = graph("B3", [(), (1,), (1, 2), (1, 2, 3)])
    assert e == {
        ("B3", 1): "B2",
        ("B3", 2): "B1",
        ("B3", 3): "1",
        ("B2", 2): "B1",
        ("B2", 3): "1",
        ("B1", 3): "1",
    } and h == 3
    assert time.time() - t0 < 1.0
    report(8, "the three splitting graphs reproduced edge-for-edge; heights 2, 1, 3")


def test_criterion_9_table_coherence():
    t0 = time.time()
    cases = [
        ("F4", {"J2_trivial": False}, {2: (1,)}),
        ("F4", {"J2_trivial": True}, {2: (0,)}),
        ("E6", {"J2_trivial": False, "J3_j1_nonzero": False}, {2: (1,), 3: (0, 1)}),
        ("E6", {"J2_trivial": False, "J3_j1_nonzero": True}, {2: (1,), 3: (1, 0)}),
        ("E6", {"J2_trivial": True, "J3_j1_nonzero": True}, {2: (0,), 3: (1, 1)}),
        ("E6", {"J2_trivial": True, "J3_j1_nonzero": False}, {2: (0,), 3: (0, 1)}),
        (
            "E7",
            {"J2_trivial": False, "J3_trivial": False, "has_zero_cycle": False},
            {2: (0, 1, 0, 0), 3: (1,)},
        ),
        (
            "E7",
            {"J2_trivial": False, "J3_trivial": True, "has_zero_cycle": False},
            {2: (0, 1, 0, 0), 3: (0,)},
        ),
        (
            "E7",
            {"J2_trivial": False, "J3_trivial": True, "has_zero_cycle": True},
            {2: (0, 1, 0, 0), 3: (0,)},
        ),
    ]
    for type_name, flags, profiles in cases:
        omega = higher_index_table(type_name, flags)
        a = automaton(omega)
        start = a.states.index(omega.minimum())
        split = next(k for k, s in enumerate(a.states) if len(s) == a.type.rank)
        for f, t, vertex in a.transitions:
            if f != start:
                continue
            assert (t == split) == is_generically_split(type_name, vertex, profiles), (
                type_name,
                vertex,
            )
    assert time.time() - t0 < 1.0
    report(9, "minimal-state transitions agree with the generically-split classification")


def test_criterion_10_form_arithmetic():
    t0 = time.time()
    # full profile identity against monomial enumeration of the truncated ring
    for name, p in [("F4", 2), ("E6", 2), ("E6", 3), ("E7", 2), ("E7", 3)]:
        entry = kac_entry(name, p)
        full = JProfile(p, entry.exponents())
        want = {}
        ranges = [range(p ** k) for _, k in entry.pairs]
        for M in itertools.product(*ranges):
            w = sum(d * m for (d, _), m in zip(entry.pairs, M))
            want[w] = want.get(w, 0) + 1
        poly = univar.tpoly(want.get(i, 0) for i in range(max(want) + 1)) if want else (1,)
        assert profile_factor(entry, full) == kac_poincare(entry) == poly
    # E6/P1 at p=2 with J=(1): not divisible
    e6 = build_root_system("E6")
    _, ok = predicted_rational_poincare(e6, (2, 3, 4, 5, 6), kac_entry("E6", 2), JProfile(2, (1,)))
    assert ok is False
    # zero profiles always divide
    for name, p, theta in [("F4", 2, (1, 2, 3)), ("E6", 2, (2, 3, 4, 5, 6)), ("E7", 2, E7_THETA_P1)]:
        rs = build_root_system(name)
        entry = kac_entry(name, p)
        quot, ok = predicted_rational_poincare(rs, theta, entry, JProfile(p, (0,) * entry.r))
        assert ok and quot == poincare_polynomial(rs, theta)
    assert time.time() - t0 < 1.0
    report(10, "profile arithmetic: full-profile identity, E6/P1 non-divisibility, zero profiles")


def test_criterion_11_property_suites():
    t0 = time.time()
    # word-independence of Delta_w: all reduced words, rank <= 3
    for name in ("A2", "B2", "A3", "B3"):
        rs = build_root_system(name)
        ct = coset_reps(rs, ())
        from weylchow.schubert import divided_difference

        x = Polynomial.variable(rs, 1)
        y = Polynomial.variable(rs, rs.rank)
        u = x * x * y + y * y
        for w in ct.reps:
            results = {divided_difference(rs, word, u) for word in all_reduced_words(rs, w)}
            assert len(results) == 1

    # char_map ring homomorphism: 100 random invariant pairs on B2
    rng = random.Random(5)
    rs = build_root_system("B2")
    gens = invariant_generators(rs, ())
    for _ in range(100):
        u = gens[0].scale(rng.randrange(4)) * gens[1] + gens[1].scale(rng.randrange(1, 3)) * gens[1]
        v = gens[rng.randrange(2)] * gens[rng.randrange(2)]
        lhs = char_map(rs, (), u * v)
        rhs = multiply(char_map(rs, (), u), char_map(rs, (), v))
        from fractions import Fraction

        assert {k: Fraction(c) for k, c in lhs.coeffs.items()} == {
            k: Fraction(c) for k, c in rhs.coeffs.items()
        }

    # associativity/commutativity: 100 random triples on B2 and A3
    for name in ("B2", "A3"):
        rsx = build_root_system(name)
        ct = coset_reps(rsx, ())
        n = len(ct)
        for _ in range(50):
            a, b, c = (basis(rsx, (), rng.randrange(n)) for _ in range(3))
            assert multiply(a, b) == multiply(b, a)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    # idempotent powers: exhaustive small correspondences on B2 mod 2
    rsb = build_root_system("B2")
    ct = coset_reps(rsb, ())
    dim = ct.max_length
    from weylchow.motive import Correspondence

    mids = [
        (i, j)
        for i in range(len(ct))
        for j in range(len(ct))
        if ct.codim(i) + ct.codim(j) == dim
    ]
    for (i1, j1), (i2, j2) in itertools.combinations(mids, 2):
        q = Correspondence(
            "B2",
            (),
            "Z/2",
            (
                (ChowClass("B2", (), "Z/2", {i1: 1}), ChowClass("B2", (), "Z/2", {j1: 1})),
                (ChowClass("B2", (), "Z/2", {i2: 1}), ChowClass("B2", (), "Z/2", {j2: 1})),
            ),
        )
        n, qn = idempotent_power(q)
        assert compose(qn, qn).normalized(ct) == qn.normalized(ct)
    assert time.time() - t0 < 600
    report(11, "property suites: word independence, ring hom, assoc/comm, idempotent powers")
