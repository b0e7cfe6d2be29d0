import itertools
import json
import random
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylchow import steenrod
from weylchow.errors import CalibrationError, InternalComputationError, ResourceLimitError, UsageError
from weylchow.rootdata import build_root_system
from weylchow.schubert import ChowClass, _FlagContext, multiply
from weylchow.steenrod import (
    DIRECT_WORD_LIMIT,
    BottSamelsonRing,
    bs_pushforward,
    steenrod_basis_element,
    steenrod_total,
    wu_convention,
)
from weylchow.weyl import CosetTable, WeylElement, coset_reps, longest_element, orbit_bound

import oracles
from oracles import (
    all_reduced_words, bs_graded_piece, bs_masks, bs_mul, bs_mul_divisor, bs_nu_by_reflections,
    bs_pull_by_reflections, is_reduced_by_reflections, steenrod_divisor_generated, steenrod_on_bs,
)


def mod2_basis(rs, theta, k):
    return ChowClass(rs.type.name(), tuple(sorted(theta)), "Z/2", {k: 1})


def direct_pieces(rs, theta, idx):
    """Every S^i of a basis class by the resolution of its canonical word."""
    ct = coset_reps(rs, theta)
    return steenrod._pushed_series(ct, idx, ct.words[idx], ct.codim(idx))


def to_mod2(cls):
    return ChowClass(cls.type_name, cls.theta, "Z/2", {k: c % 2 for k, c in cls.coeffs.items() if c % 2})


def bits(masks):
    """A ring element from a set of divisor masks."""
    return sum(1 << m for m in set(masks))


def mul_div_mask(ring, k, mask, memo):
    """D_{k+1} times the square-free monomial `mask`, as a set of masks, one monomial at a time.

    With bit k set, D_k^2 = D_k nu_k sends the part of the mask at positions
    <= k through the divisors of nu_k; the positions above k ride along.
    """
    bit = 1 << k
    if not mask & bit:
        return {mask | bit}
    low = mask & (bit * 2 - 1)
    if (k, low) not in memo:
        out = set()
        for m in ring.nu[k]:
            out ^= mul_div_mask(ring, m, low, memo)
        memo[k, low] = out
    return {mm | (mask ^ low) for mm in memo[k, low]}


def oracle_mul_linear(ring, elem, form, max_degree=None):
    out, memo = set(), {}
    for k in form:
        for mask in bs_masks(elem):
            if max_degree is None or mask.bit_count() < max_degree:
                out ^= mul_div_mask(ring, k, mask, memo)
    return bits(out)


def oracle_mul_one_plus_series(ring, elem, form, exponent, max_degree):
    acc = term = elem
    for _ in range(max_degree + 1 if exponent == -1 else 1):
        term = oracle_mul_linear(ring, term, form, max_degree)
        acc ^= term
    return acc


def oracle_pushforward(ring, masks, theta):
    """Coset positions hit an odd number of times, replaying each mask's subword on its own."""
    ct = coset_reps(ring.rs, theta)
    out = set()
    for mask in masks:
        sub = [ring.word[p] for p in range(ring.length) if not mask >> p & 1]
        u = WeylElement.from_word(ring.rs, sub)
        if u.length == len(sub) and u.word in ct.index:
            out ^= {ct.index[u.word]}
    return out


def test_bs_ring_dimension_and_relations():
    rs = build_root_system("A2")
    ring = BottSamelsonRing(rs, (1, 2))
    # the relation D_2^2 = -D_1 D_2 over Z, read off the Cartan pairing of the
    # word, is D_2^2 = D_1 D_2 mod 2
    assert ring.nu[0] == ()
    assert ring.nu[1] == (0,)
    sq = bs_mul_divisor(ring, bits({0b10}), 1)
    assert sq == bits({0b11})
    # module rank 2^l: the four square-free monomials are independent
    assert ring.length == 2


def test_bs_ring_rejects_nonreduced():
    rs = build_root_system("A2")
    with pytest.raises(UsageError):
        BottSamelsonRing(rs, (1, 1))


def test_bs_ring_word_letters_checked():
    # letters must be ints (not bools) in 1..rank on every route into the ring
    rs = build_root_system("A2")
    for word in ((0,), (3,), (1.7, 2), (True, 2), ("1",), (1, -1)):
        with pytest.raises(UsageError):
            BottSamelsonRing(rs, word)
        with pytest.raises(UsageError):
            steenrod._pushed_series(coset_reps(rs, ()), 0, word, 0)
    assert BottSamelsonRing(rs, [1, 2]).word == (1, 2)


def test_bs_ring_word_length_capped_before_allocation():
    # 2^l-bit selectors for the 63 letters of w0 in E7 could not be allocated:
    # the cap must refuse the word first, on every route into the ring
    rs = build_root_system("E7")
    w0 = longest_element(rs, range(1, 8))
    assert w0.length == 63
    with pytest.raises(ResourceLimitError):
        BottSamelsonRing(rs, w0.word)
    with pytest.raises(ResourceLimitError):
        steenrod._pushed_series(coset_reps(rs, (2, 3, 4, 5, 6, 7)), 0, w0.word, 0)
    word = w0.word[:DIRECT_WORD_LIMIT + 1]
    with pytest.raises(ResourceLimitError):
        BottSamelsonRing(rs, word)
    assert BottSamelsonRing(rs, word[:DIRECT_WORD_LIMIT]).length == DIRECT_WORD_LIMIT


def test_bs_ring_commutative_associative():
    rs = build_root_system("B2")
    ring = BottSamelsonRing(rs, (1, 2, 1, 2))
    elems = [
        bits({0b0001}),
        bits({0b0010, 0b0100}),
        bits({0b1000, 0b0001}),
    ]
    for a, b in itertools.product(elems, elems):
        assert bs_mul(ring, a, b) == bs_mul(ring, b, a)
    a, b, c = elems
    assert bs_mul(ring, bs_mul(ring, a, b), c) == bs_mul(ring, a, bs_mul(ring, b, c))


def test_steenrod_on_bs_axioms():
    rs = build_root_system("A2")
    ring = BottSamelsonRing(rs, (1, 2))
    one = ring.one()
    assert steenrod_on_bs(ring, one) == one
    # S(D_j) = D_j + D_j^2
    d1 = bits({0b01})
    img = steenrod_on_bs(ring, d1)
    assert img == d1 ^ bs_mul(ring, d1, d1)
    # multiplicativity on a product of divisors
    d2 = bits({0b10})
    prod = bs_mul(ring, d1, d2)
    assert steenrod_on_bs(ring, prod) == bs_mul(ring, 
        steenrod_on_bs(ring, d1), steenrod_on_bs(ring, d2)
    )


def test_bs_pushforward_a2_examples():
    rs = build_root_system("A2")
    ct = coset_reps(rs, ())
    ring = BottSamelsonRing(rs, (1, 2))
    # fundamental class -> [X_{s1 s2}]
    full = bs_pushforward(ring, ring.one(), ())
    assert full.coeffs == {ct.index[(1, 2)]: 1}
    # divisors push to the two length-1 Schubert classes
    d1 = bs_pushforward(ring, 1 << 0b01, ())
    d2 = bs_pushforward(ring, 1 << 0b10, ())
    assert d1.coeffs == {ct.index[(2,)]: 1}
    assert d2.coeffs == {ct.index[(1,)]: 1}
    # the full product D_1 D_2 is the point contribution of the empty subword
    pt = bs_pushforward(ring, 1 << 0b11, ())
    assert pt.coeffs == {0: 1}


def test_bs_pushforward_nonreduced_subword_dies():
    rs = build_root_system("A2")
    ring = BottSamelsonRing(rs, (1, 2, 1))
    # subword at positions {0, 2} is (1,1): not reduced -> 0
    cls = bs_pushforward(ring, 1 << 0b010, ())
    assert cls.is_zero()


def test_bs_pushforward_point_outside_table_raises(monkeypatch):
    # a subword product whose lambda-point the coset table lacks is an internal error
    rs = build_root_system("A2")
    ct = CosetTable(rs, ())
    ct._points.pop(next(reversed(ct._points)))
    monkeypatch.setattr(steenrod, "coset_reps", lambda rs, theta: ct)
    ring = BottSamelsonRing(rs, (1, 2, 1))
    with pytest.raises(InternalComputationError):
        bs_pushforward(ring, 1 << 0, ())


def test_selectors_are_built_once_per_length():
    for length in range(9):
        clear, deg, below = steenrod._selectors(length)
        masks = range(1 << length)
        assert clear == tuple(bits(m for m in masks if not m >> k & 1) for k in range(length))
        assert deg == tuple(bits(m for m in masks if m.bit_count() == d) for d in range(length + 1))
        assert below == tuple(bits(m for m in masks if m.bit_count() < d) for d in range(length + 2))
    rs = build_root_system("A3")
    a, b = BottSamelsonRing(rs, (1, 2, 1)), BottSamelsonRing(rs, (2, 3, 2))
    assert a.clear is b.clear and a.deg is b.deg and a.below is b.below


def test_production_path_lists_no_monomials(monkeypatch):
    # the direct route and the calibration push whole bitsets forward: none of
    # them may list an element's monomials, which only the test oracles do
    a3 = build_root_system("A3")
    e6 = build_root_system("E6")
    e6p1 = coset_reps(e6, (2, 3, 4, 5, 6))
    classes = [mod2_basis(a3, (), k) for k in range(len(coset_reps(a3, ())))]
    classes += [mod2_basis(e6, e6p1.theta, k) for k in (1, 5, len(e6p1) // 2, len(e6p1) - 1)]
    want = [steenrod_total(cls) for cls in classes]

    def no_masks(elem):
        raise AssertionError("a ring element's monomials were listed")

    assert not hasattr(BottSamelsonRing, "masks")
    monkeypatch.setattr(oracles, "bs_masks", no_masks)
    for memo in (steenrod._basis_pieces, steenrod._calibrate):
        memo.cache_clear()
    assert [steenrod_total(cls) for cls in classes] == want


def test_basis_pieces_are_a_steenrod_memo():
    # keyed by the normalized theta and the bound clipped to the codimension
    rs = build_root_system("A3")
    ct = coset_reps(rs, (2,))
    k = ct.of_codim(3)[0]
    low = steenrod_basis_element(rs, (2,), k, up_to=1)
    assert max(low) <= 1
    assert steenrod_basis_element(rs, [2, 2], k, up_to=1) is low
    assert steenrod_basis_element(rs, (2,), k, up_to=7) is steenrod_basis_element(rs, (2,), k)
    # the flag context holds no Steenrod state
    assert not [name for name in vars(_FlagContext(rs, (2,))) if "steenrod" in name]


def test_cached_pieces_are_read_only():
    rs = build_root_system("A2")
    pieces = steenrod_basis_element(rs, (), 3)
    want = {d: (piece.ring, dict(piece.coeffs)) for d, piece in pieces.items()}
    with pytest.raises(AttributeError):
        pieces[1].coeffs.clear()
    with pytest.raises(TypeError):
        pieces[1].coeffs[0] = 1
    with pytest.raises(TypeError):
        pieces[9] = pieces[1]
    again = steenrod_basis_element(rs, (), 3)
    assert {d: (piece.ring, dict(piece.coeffs)) for d, piece in again.items()} == want


RANK_TO_8 = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
             + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
             + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("name", RANK_TO_8)
def test_packed_nu_matches_the_reflection_loop(name):
    # reduced words grown by random ascents of rho, up to the direct limit,
    # and arbitrary words for the reducedness check; G2 and F4 have Cartan
    # entries -2 and -3, so their pairings are not all of one parity
    rs = build_root_system(name)
    rng = random.Random(name)
    for _ in range(12):
        word = random_reduced_word(rs, rng)
        assert BottSamelsonRing(rs, word).nu == bs_nu_by_reflections(rs, word), word
    for _ in range(40):
        word = [rng.randint(1, rs.rank) for _ in range(rng.randint(1, DIRECT_WORD_LIMIT))]
        if is_reduced_by_reflections(rs, word):
            assert BottSamelsonRing(rs, word).nu == bs_nu_by_reflections(rs, word), word
        else:
            with pytest.raises(UsageError, match="is not reduced"):
                BottSamelsonRing(rs, word)


def random_reduced_word(rs, rng):
    """A reduced word grown by random ascents of rho, up to the direct limit."""
    word, y = [], rs.rho
    while len(word) < DIRECT_WORD_LIMIT:
        ascents = [i for i in range(rs.rank) if y[i] > 0]
        if not ascents:
            break  # w0 was reached
        i = rng.choice(ascents)
        word.append(i + 1)
        y = rs.reflect_weight(i, y)
    return word


def test_packed_pullback_matches_the_reflection_loop():
    # every root (the weights the routes pull) on random reduced words of the B3, G2
    # and F4 full flags and on the E7/P1 canonical words the direct route can take
    cases = []
    for name in ("B3", "G2", "F4"):
        rs = build_root_system(name)
        rng = random.Random(name)
        cases += [(rs, random_reduced_word(rs, rng)) for _ in range(12)]
    rs = build_root_system("E7")
    ct = coset_reps(rs, (2, 3, 4, 5, 6, 7))
    cases += [(rs, ct.words[k]) for k in range(len(ct)) if ct.length(k) <= DIRECT_WORD_LIMIT]
    for rs, word in cases:
        ring = BottSamelsonRing(rs, word)
        for pr in rs.positive_roots:
            for mu in (pr.omega, tuple(-a for a in pr.omega)):
                assert ring.pull_weight_class(mu) == bs_pull_by_reflections(rs, word, mu), (word, mu)
    # a walk stays in the packed field while max |mu_j| times the largest coroot height does
    for name in ("B3", "G2", "F4", "E7"):
        rs = build_root_system(name)
        ring = BottSamelsonRing(rs, random_reduced_word(rs, random.Random(name)))
        top = 127 // orbit_bound(rs, ())
        fits = tuple(top * a for a in rs.rho)
        assert ring.pull_weight_class(fits) == bs_pull_by_reflections(rs, ring.word, fits), name
        with pytest.raises(UsageError, match="packed field"):
            ring.pull_weight_class(tuple((top + 1) * a for a in rs.rho))


@st.composite
def bs_elements(draw, max_masks=5):
    """A ring on a reduced word of A3, B3 or G2 and three random mod-2 elements of it."""
    rs = build_root_system(draw(st.sampled_from(["A3", "B3", "G2"])))
    word = draw(st.sampled_from([w.word for w in coset_reps(rs, ()).reps]))
    ring = BottSamelsonRing(rs, word)
    masks = st.integers(0, (1 << ring.length) - 1)
    return ring, [bits(draw(st.sets(masks, max_size=max_masks))) for _ in range(3)]


@settings(max_examples=60, deadline=None)
@given(bs_elements())
def test_bs_ring_properties(case):
    ring, (a, b, c) = case
    assert bs_mul(ring, a, b) == bs_mul(ring, b, a)
    assert bs_mul(ring, bs_mul(ring, a, b), c) == bs_mul(ring, a, bs_mul(ring, b, c))
    assert bs_mul(ring, a ^ b, c) == bs_mul(ring, a, c) ^ bs_mul(ring, b, c)
    assert steenrod_on_bs(ring, bs_mul(ring, a, b)) == bs_mul(ring, 
        steenrod_on_bs(ring, a), steenrod_on_bs(ring, b)
    )
    assert a ^ a == 0


@cache
def _oracle_words(name):
    """Every full-flag word of A3, B3 and G2; for E6, one word of length 10."""
    rs = build_root_system(name)
    if name == "E6":
        return [next(w.word for w in coset_reps(rs, (2, 3, 4, 5, 6)).reps if w.length == 10)]
    return [w.word for w in coset_reps(rs, ()).reps]


@st.composite
def bs_cases(draw):
    """A ring, an element, a linear form, a truncation degree and a theta."""
    name = draw(st.sampled_from(["A3", "B3", "G2", "E6"]))
    word = draw(st.sampled_from(_oracle_words(name)))
    rs = build_root_system(name)
    ring = BottSamelsonRing(rs, word)
    elem = bits(draw(st.sets(st.integers(0, (1 << ring.length) - 1), max_size=12)))
    form = tuple(sorted(draw(st.sets(st.integers(0, max(ring.length - 1, 0)), max_size=4))))
    if not ring.length:
        form = ()
    max_degree = draw(st.one_of(st.none(), st.integers(0, ring.length + 1)))
    theta = tuple(sorted(draw(st.sets(st.integers(1, rs.rank), max_size=rs.rank - 1))))
    return ring, elem, form, max_degree, theta


@settings(max_examples=150, deadline=None)
@given(bs_cases())
def test_bs_ring_matches_per_mask_oracles(case):
    ring, elem, form, max_degree, theta = case
    assert ring.mul_linear(elem, form, max_degree) == oracle_mul_linear(ring, elem, form, max_degree)
    top = ring.length if max_degree is None else max_degree
    for exponent in (1, -1):
        assert ring.mul_one_plus_series(elem, form, exponent, top) == (
            oracle_mul_one_plus_series(ring, elem, form, exponent, top)
        )
    masks = bs_masks(elem)
    assert bits(masks) == elem
    for d in range(ring.length + 1):
        assert bs_masks(bs_graded_piece(ring, elem, d)) == [m for m in masks if m.bit_count() == d]
    got = bs_pushforward(ring, elem, theta)
    assert set(got.coeffs) == oracle_pushforward(ring, masks, theta)
    assert set(got.coeffs.values()) <= {1}


def test_calibration_picks_a_convention():
    assert wu_convention() in ("I", "II")


def test_wu_convention_ii_fails_oracle(monkeypatch):
    # A2 does not separate the two conventions; A3 does, so exactly one survives
    monkeypatch.setattr(steenrod, "WU_CONVENTION", "II")
    for name, mismatches in (("A2", 0), ("A3", 8)):
        rs = build_root_system(name)
        ct = coset_reps(rs, ())
        bad = [
            idx for idx in range(len(ct))
            if direct_pieces(rs, (), idx) != steenrod_divisor_generated(rs, idx)
        ]
        assert len(bad) == mismatches, (name, bad)


def test_direct_route_matches_divisor_oracle_a2_a3():
    for name in ("A2", "A3"):
        rs = build_root_system(name)
        ct = coset_reps(rs, ())
        for idx in range(len(ct)):
            got = direct_pieces(rs, (), idx)
            want = steenrod_divisor_generated(rs, idx)
            assert got == want, (name, idx)


def test_cartan_check_separates_the_conventions_as_the_closed_form_does(monkeypatch):
    # the calibration's Cartan-formula check fails exactly where the direct route
    # disagrees with the divisor-generated closed form: nowhere for convention I,
    # and for II on A3 but not on A2
    failing = {}
    for name in ("A2", "A3"):
        rs = build_root_system(name)
        classes = range(len(coset_reps(rs, ())))
        for conv in ("I", "II"):
            monkeypatch.setattr(steenrod, "WU_CONVENTION", conv)
            failures = steenrod._cartan_failures(name)
            closed_form = [k for k in classes if direct_pieces(rs, (), k)
                           != steenrod_divisor_generated(rs, k)]
            assert bool(failures) == bool(closed_form), (name, conv)
            failing[name, conv] = len(failures)
    # 2 + 2 * 5 checks on A2, 3 + 3 * 23 on A3
    assert failing == {("A2", "I"): 0, ("A2", "II"): 0, ("A3", "I"): 0, ("A3", "II"): 22}


def test_calibration_refuses_convention_ii(monkeypatch):
    steenrod._calibrate.cache_clear()
    try:
        monkeypatch.setattr(steenrod, "WU_CONVENTION", "II")
        with pytest.raises(CalibrationError, match="Wu convention II fails 22 .* A3 full flags"):
            steenrod._calibrate()
    finally:
        steenrod._calibrate.cache_clear()


def test_calibration_fails_the_checks_the_all_products_loop_fails(monkeypatch):
    # S(h) S(b) read off the products h [X_b] fails exactly where it fails multiplied out
    for conv in ("I", "II"):
        monkeypatch.setattr(steenrod, "WU_CONVENTION", conv)
        for name in ("A2", "A3"):
            assert steenrod._cartan_failures(name) == oracles.cartan_failures_by_products(name)
    failures = steenrod._cartan_failures("A3")
    assert (len(failures), failures[0]) == (22, (20, 9))
    steenrod._calibrate.cache_clear()
    try:
        with pytest.raises(CalibrationError) as err:
            steenrod._calibrate()
    finally:
        steenrod._calibrate.cache_clear()
    assert str(err.value) == ("Wu convention II fails 22 Cartan-formula checks on the A3 full "
                              "flags, the first at (divisor, class) (20, 9)")


def test_calibration_multiplies_out_where_a_divisor_square_fails(monkeypatch):
    # with S(h) = h for one divisor, S(h) S(b) is multiplied out, and the checks still
    # fail where the all-products loop fails them
    h = coset_reps(build_root_system("A3"), ()).of_codim(1)[0]
    pushed = steenrod._pushed_series

    def without_square(ct, idx, word, top):
        pieces = pushed(ct, idx, word, top)
        return {0: pieces[0]} if idx == h else pieces

    monkeypatch.setattr(steenrod, "_pushed_series", without_square)
    failures = steenrod._cartan_failures("A3")
    assert (h, None) in failures
    assert failures == oracles.cartan_failures_by_products("A3")


def test_calibration_multiplies_single_classes_79_times(monkeypatch):
    # A2: 2 divisors x 5 classes, A3: 3 x 23; the all-products loop took 163
    factors = []

    def counting(a, b):
        factors.append((len(a.coeffs), len(b.coeffs)))
        return multiply(a, b)

    monkeypatch.setattr(steenrod, "multiply", counting)
    steenrod._calibrate.cache_clear()
    try:
        assert steenrod._calibrate() == "I"
    finally:
        steenrod._calibrate.cache_clear()
    assert len(factors) == 79
    assert set(factors) == {(1, 1)}


@pytest.mark.parametrize("name", ["A2", "B2", "A3"])
def test_axioms_exhaustive(name):
    rs = build_root_system(name)
    ct = coset_reps(rs, ())
    dim = ct.max_length
    for idx in range(len(ct)):
        cls = mod2_basis(rs, (), idx)
        graded = steenrod_total(cls)
        codim = ct.codim(idx)
        # S^0 is the identity
        assert graded[0] == cls
        # S^i = 0 for i > codim
        for i in range(len(graded)):
            if i > codim and i < len(graded):
                assert graded[i].is_zero()
        # top: S^codim(x) = x^2
        if codim <= dim:
            sq = to_mod2(multiply(cls, cls)) if 2 * codim <= dim else None
            if 2 * codim <= dim and codim < len(graded):
                assert graded[codim] == sq
            elif codim < len(graded):
                assert graded[codim].is_zero()


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_total_operation_is_ring_homomorphism(name):
    rs = build_root_system(name)
    ct = coset_reps(rs, ())
    dim = ct.max_length

    def total(cls):
        out = {}
        for d, piece in enumerate(steenrod_total(cls)):
            for k, c in piece.coeffs.items():
                out[k] = (out.get(k, 0) + c) % 2
        return {k: c for k, c in out.items() if c}

    for a in range(len(ct)):
        for b in range(len(ct)):
            ca, cb = mod2_basis(rs, (), a), mod2_basis(rs, (), b)
            prod = to_mod2(multiply(ca, cb))
            lhs = total(prod)
            # S(a) S(b): multiply graded pieces and reduce
            sa = steenrod_total(ca)
            sb = steenrod_total(cb)
            acc = {}
            for pa in sa:
                for pb in sb:
                    if pa.is_zero() or pb.is_zero():
                        continue
                    got = to_mod2(multiply(pa, pb))
                    for k, c in got.coeffs.items():
                        acc[k] = (acc.get(k, 0) + c) % 2
            rhs = {k: c for k, c in acc.items() if c}
            assert lhs == rhs, (name, a, b)


def test_s_commutes_with_pullback_b2():
    # S(pull(x)) = pull(S(x)) for the projection G/B -> G/P on B2 and A3
    from weylchow.schubert import pullback_to_flags

    for name, theta in [("B2", (2,)), ("B2", (1,)), ("A3", (1, 3))]:
        rs = build_root_system(name)
        ct = coset_reps(rs, theta)
        for idx in range(len(ct)):
            cls = mod2_basis(rs, theta, idx)
            up = to_mod2(pullback_to_flags(cls))
            lhs = steenrod_total(up)
            rhs = [to_mod2(pullback_to_flags(p)) for p in steenrod_total(cls)]
            for i in range(max(len(lhs), len(rhs))):
                li = lhs[i] if i < len(lhs) else None
                ri = rhs[i] if i < len(rhs) else None
                lz = li.coeffs if li else {}
                rz = ri.coeffs if ri else {}
                assert lz == rz, (name, theta, idx, i)


def test_steenrod_total_requires_mod2():
    rs = build_root_system("A2")
    with pytest.raises(UsageError):
        steenrod_total(ChowClass("A2", (), "Z", {0: 1}))


def test_steenrod_word_independent():
    # recomputing through a different reduced word of the same element gives
    # the same graded operation
    for name in ("A2", "B2"):
        rs = build_root_system(name)
        ct = coset_reps(rs, ())
        for idx in range(len(ct)):
            words = all_reduced_words(rs, ct.reps[idx])
            if len(words) < 2:
                continue
            base = direct_pieces(rs, (), idx)
            for word in words[1:]:
                alt = steenrod._pushed_series(ct, idx, word, ct.codim(idx))
                assert alt == base, (name, idx, word)


LOCALIZATION_SPACES = [("A3", ()), ("B2", ()), ("B3", ()), ("C3", ()), ("G2", ()), ("D4", ()),
                       ("F4", (2, 3, 4)), ("F4", (1, 2, 3)), ("E6", (2, 3, 4, 5, 6)),
                       ("E7", (1, 2, 3, 4, 5, 6)), ("E7", (2, 3, 4, 5, 6, 7))]


@pytest.mark.parametrize("name, theta", LOCALIZATION_SPACES,
                         ids=["A3", "B2", "B3", "C3", "G2", "D4", "F4/P1", "F4/P4", "E6/P1",
                              "E7/P7", "E7/P1"])
def test_localization_agrees_with_the_bs_route(name, theta):
    # every degree of every class the resolution ring reaches (words of up to
    # DIRECT_WORD_LIMIT letters); B2 and C3 have roots that vanish mod 2 in omega
    # coordinates, so the point is chosen on the simple roots
    rs = build_root_system(name)
    ct = coset_reps(rs, theta)
    for idx in range(len(ct)):
        if ct.length(idx) > DIRECT_WORD_LIMIT:
            continue
        codim = ct.codim(idx)
        want = direct_pieces(rs, theta, idx)
        assert steenrod._steenrod_by_localization(rs, ct.theta, idx, codim) == want, idx
        bound = codim // 2
        assert steenrod._steenrod_by_localization(rs, ct.theta, idx, bound) == {
            d: p for d, p in want.items() if d <= bound}, idx


def test_no_root_vanishes_at_the_point():
    # every irreducible type under the positive-root cap (A44, B31, C31 and D32 are
    # the largest); a reducible type takes each component's values
    names = ["E6", "E7", "E8", "F4", "G2"] + [f"A{n}" for n in range(1, 45)]
    names += [f"{family}{n}" for family in "BC" for n in range(2, 32)]
    names += [f"D{n}" for n in range(4, 33)]
    with pytest.raises(ResourceLimitError):
        build_root_system("D33")
    for name in names:
        rs = build_root_system(name)
        tau = steenrod._point(rs)
        assert all(0 < t <= 32 for t in tau), name
        for pr in rs.positive_roots:
            value = 0
            for c, t in zip(pr.root, tau):
                value ^= t if c & 1 else 0
            assert value, (name, pr.root)


def test_field_tables_multiply_in_gf256():

    def slow(a, b):  # carry-less product reduced by y^8 + y^4 + y^3 + y + 1
        out = 0
        for k in range(8):
            if b >> k & 1:
                out ^= a << k
        for k in range(14, 7, -1):
            if out >> k & 1:
                out ^= 0x11B << (k - 8)
        return out

    rng = random.Random(256)
    for a, b in [(rng.randrange(256), rng.randrange(256)) for _ in range(500)] + [(0, 7), (1, 1)]:
        assert steenrod._table(a)[b] == slow(a, b), (a, b)
    assert all(steenrod._table(c)[steenrod._inverse(c)] == 1 for c in range(1, 256))


def test_on_demand_tables_match_the_whole_field():
    # one table per element, built on its first use, against all 256 built at once
    mul, inv = oracles.gf256_tables_whole()
    steenrod._table.cache_clear()
    for c in range(256):
        assert steenrod._table(c) == mul[c], c
        assert steenrod._inverse(c) == inv[c], c
    assert steenrod._table.cache_info().currsize == 256


def _types_up_to_rank(top):
    """Every Dynkin type of rank <= top, each product of simple types once."""
    simple = ([f"A{n}" for n in range(1, top + 1)] + [f"{f}{n}" for f in "BC" for n in range(2, top + 1)]
              + [f"D{n}" for n in range(3, top + 1)] + ["E6", "E7", "E8", "F4", "G2"])
    simple = [name for name in simple if int(name[1:]) <= top]
    names = []

    def extend(prefix, start, left):
        if prefix:
            names.append("x".join(prefix))
        for i in range(start, len(simple)):
            if int(simple[i][1:]) <= left:
                extend(prefix + [simple[i]], i, left - int(simple[i][1:]))

    extend([], 0, top)
    return names


def test_point_matches_the_root_scan_on_every_type_up_to_rank_8():
    names = _types_up_to_rank(8)
    assert len(names) == 723 and "E8" in names and "A1xA1xA1xA1xA1xA1xA1xA1" in names
    for name in names:
        rs = build_root_system(name)
        assert steenrod._point(rs) == oracles.point_by_root_scans(rs), name


def test_a_long_word_query_builds_only_the_tables_it_meets():
    # each S^<=5 query of the benchmark's CH^8 pool of E7/P1 (25-letter words) builds
    # well under half of the 255 tables of the whole field, and the full square of the
    # 21-letter class at position 88 still fewer than all of them
    rs = build_root_system("E7")
    ct = coset_reps(rs, (2, 3, 4, 5, 6, 7))
    for idx, want in [(108, 5), (109, 5), (110, 5), (111, 5), (88, 12)]:
        assert ct.length(idx) > DIRECT_WORD_LIMIT, idx
        steenrod._table.cache_clear()
        steenrod._steenrod_by_localization(rs, ct.theta, idx, want)
        assert 0 < steenrod._table.cache_info().currsize < (128 if want == 5 else 255), idx


def test_a_vanishing_root_or_a_wrong_division_exits_4(monkeypatch):
    # tau = 1 on every simple root kills alpha_1 + alpha_2, an inversion of w0, so the
    # point class of the B3 full flags loses its S^0
    rs = build_root_system("B3")
    with monkeypatch.context() as patch:
        patch.setattr(steenrod, "_point", lambda rs: [1] * rs.rank)
        with pytest.raises(InternalComputationError, match="S\\^0"):
            steenrod._steenrod_by_localization(rs, (), 0, 0)
    # dividing by 1 instead of xi^x(x) leaves coefficients outside F2
    monkeypatch.setattr(steenrod, "_inverse", lambda c: 1)
    for idx in (0, 5, 20):
        with pytest.raises(InternalComputationError, match="not in F2"):
            steenrod._steenrod_by_localization(rs, (), idx, 6)


def test_localization_cap_refuses_before_any_walk(monkeypatch):
    # S^<= 5 of the codim-12 E7/P1 class at position 88 solves at the x up to length 17,
    # so the count is the reps of length <= 17
    rs = build_root_system("E7")
    ct = coset_reps(rs, (2, 3, 4, 5, 6, 7))
    assert ct.codim(88) == 12
    monkeypatch.setattr(steenrod, "ENTRY_CAP", ct.of_length(17).stop - 1)

    def no_walk(*args, **kwargs):
        raise AssertionError("a restriction walk ran past the cap")

    monkeypatch.setattr(CosetTable, "subword_sums", no_walk)
    with pytest.raises(ResourceLimitError, match="exceed the cap"):
        steenrod._steenrod_by_localization(rs, ct.theta, 88, 5)
    monkeypatch.setattr(steenrod, "ENTRY_CAP", ct.of_length(17).stop)
    with pytest.raises(AssertionError, match="past the cap"):
        steenrod._steenrod_by_localization(rs, ct.theta, 88, 5)


def test_basis_element_refuses_bad_positions_and_degrees():
    # positions as `check_positions` reads them, degrees as `steenrod_total` does
    rs = build_root_system("A2")
    for idx in (6, -1, 2.5, True, "1"):
        with pytest.raises(UsageError, match="basis position"):
            steenrod_basis_element(rs, (), idx)
    for up_to in (-1, 1.5, True, "2"):
        with pytest.raises(UsageError, match="Steenrod degree"):
            steenrod_basis_element(rs, (), 3, up_to=up_to)
    assert steenrod_basis_element(rs, (), 5, up_to=0) == {0: mod2_basis(rs, (), 5)}


def test_steenrod_outputs_match_the_benchmark_goldens():
    # every pool entry of the benchmark's Steenrod goldens, recomputed in process
    from weylchow.schubert import class_from_json, class_to_json

    folder = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
    for name in ("steenrod-e7p1", "smoke-steenrod"):
        golden = json.loads((folder / f"{name}.json").read_text(encoding="utf-8"))
        ct = coset_reps(build_root_system(golden["type"]), golden["theta"])
        for route in golden["routes"]:
            for entry in route["pool"]:
                cls = class_from_json(json.dumps(
                    {"type": golden["type"], "theta": golden["theta"], "ring": "Z/2",
                     "terms": [{"word": entry["word"], "coeff": 1}]}, sort_keys=True))
                got = [class_to_json(c, ct) for c in steenrod_total(cls, up_to=route["up_to"])]
                assert got == entry["out"], (name, route["name"], entry["word"])


@pytest.mark.heavy
def test_e8p8_squares_and_cartan_formula():
    # every class of E8/P8, most of them past the resolution ring's word limit:
    # S^0 is the identity, S^codim(x) = x^2 whenever 2 codim <= 57, and S is
    # multiplicative on seeded pairs
    rs = build_root_system("E8")
    ct = coset_reps(rs, (1, 2, 3, 4, 5, 6, 7))
    dim = ct.max_length
    assert (len(ct), dim) == (240, 57)
    total = {}
    for idx in range(len(ct)):
        cls = mod2_basis(rs, ct.theta, idx)
        graded = steenrod_total(cls)
        codim = ct.codim(idx)
        assert graded[0] == cls, idx
        if 2 * codim <= dim:
            assert graded[codim] == to_mod2(multiply(cls, cls)), idx
        total[idx] = graded

    def flat(pieces):
        out = set()
        for piece in pieces:
            out ^= set(piece.coeffs)
        return out

    rng = random.Random(88)
    for _ in range(10):
        a, b = rng.randrange(len(ct)), rng.randrange(len(ct))
        prod = to_mod2(multiply(mod2_basis(rs, ct.theta, a), mod2_basis(rs, ct.theta, b)))
        rhs = set()
        for pa in total[a]:
            for pb in total[b]:
                if not (pa.is_zero() or pb.is_zero()):
                    rhs ^= set(to_mod2(multiply(pa, pb)).coeffs)
        assert flat(steenrod_total(prod)) == rhs, (a, b)
