import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylchow.errors import InternalComputationError
from weylchow.polynomial import (
    MASK,
    Polynomial,
    pack_monomial,
    unpack_monomial,
)
from weylchow.rootdata import build_root_system
from weylchow.schubert import ChowClass, _FlagContext, flag_context

from oracles import (
    elementary_symmetric_by_polynomials,
    elementary_symmetric_classes,
    exact_divide_by_linear,
    graded_parts,
    reduce_mod,
    reflect,
    series_inverse,
)


def w(rs, i):
    return Polynomial.variable(rs, i)


def test_ring_ops():
    rs = build_root_system("A2")
    x, y = w(rs, 1), w(rs, 2)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert p.degree() == 2
    assert p.scale(0).is_zero()


def test_reflection_substitution():
    rs = build_root_system("A2")
    x, y = w(rs, 1), w(rs, 2)
    # alpha_1 = 2 w1 - w2, so s_1(w1) = w1 - alpha_1 = -w1 + w2
    assert reflect(x, 0) == -1 * x + y
    assert reflect(y, 0) == y
    # involution on a random-ish polynomial
    p = x * x * y + 3 * y * y * y - x
    assert reflect(reflect(p, 0), 0) == p
    assert reflect(reflect(p, 1), 1) == p


def test_divided_difference_basics():
    rs = build_root_system("A2")
    x, y = w(rs, 1), w(rs, 2)
    # Delta_i(omega_j) = delta_ij
    assert x.divided_difference(0) == Polynomial.one(rs)
    assert y.divided_difference(0).is_zero()
    # A2 example: Delta_1(w1^2) = w2
    assert (x * x).divided_difference(0) == y


def test_divided_difference_matches_division_oracle():
    # independent oracle: (u - s_i u) / alpha_i by explicit long division
    for name in ("A2", "B2", "G2"):
        rs = build_root_system(name)
        x, y = w(rs, 1), w(rs, 2)
        samples = [x * x * y, (x + y) * (x + y) * x, y * y * y, x * y]
        for u in samples:
            for i in range(2):
                alpha = Polynomial.linear_form(rs, rs.alpha_omega(i))
                want = exact_divide_by_linear(u - reflect(u, i), alpha, pivot=i)
                assert u.divided_difference(i) == want


def test_divided_difference_drops_degree_to_zero():
    rs = build_root_system("B2")
    x = w(rs, 1)
    u = x * x  # degree 2
    d = u.divided_difference(0).divided_difference(1).divided_difference(0)
    assert d.is_zero()  # deg u < 3 = chain length


def test_twisted_leibniz():
    # Delta_i(fg) = Delta_i(f) g + s_i(f) Delta_i(g)
    rs = build_root_system("B2")
    x, y = w(rs, 1), w(rs, 2)
    f = x * x + y
    g = x * y
    for i in range(2):
        lhs = (f * g).divided_difference(i)
        rhs = f.divided_difference(i) * g + reflect(f, i) * g.divided_difference(i)
        assert lhs == rhs


def test_invariance_check():
    rs = build_root_system("A2")
    x, y = w(rs, 1), w(rs, 2)
    # s_1-invariant: x^2 - xy + y^2 ... check: s1(x)= -x+y
    p = x * x - x * y + y * y
    assert p.is_invariant_under([1])
    assert p.is_invariant_under([2])
    assert not x.is_invariant_under([1])


def test_to_integer_and_mod():
    rs = build_root_system("A1")
    x = w(rs, 1)
    ip = x.scale(3) + Polynomial.one(rs).scale(2)
    # 3x + 2 mod 2 = x
    assert reduce_mod(ip, 2) == x
    assert reduce_mod(ip, 3) == Polynomial.one(rs).scale(2)


def test_elementary_symmetric():
    rs = build_root_system("A2")
    forms = [pr.omega for pr in rs.positive_roots]
    es = elementary_symmetric_classes(rs, forms, 3)
    x, y = w(rs, 1), w(rs, 2)
    # e_1 = sum of positive roots = 2 rho = 2(w1 + w2)
    assert es[1] == 2 * x + 2 * y
    # e_3 = alpha1 alpha2 (alpha1+alpha2)
    a1 = Polynomial.linear_form(rs, rs.alpha_omega(0))
    a2 = Polynomial.linear_form(rs, rs.alpha_omega(1))
    assert es[3] == a1 * a2 * (a1 + a2)


def test_fused_elementary_symmetric_matches_oracle():
    # B2 has (2, -2) and (0, 2), C3 has (0, -2, 2), (-2, 2, 0) and (2, 0, 0): forms that are 0 mod 2
    e6 = _FlagContext(build_root_system("E6"), (2, 3, 4, 5, 6))
    cases = [(e6.rs, [pr.omega for pr in e6.unipotent_roots], 6)]
    for name in ("B2", "C3"):
        rs = build_root_system(name)
        cases.append((rs, [pr.omega for pr in rs.positive_roots], len(rs.positive_roots)))
    for rs, forms, top in cases:
        for p in (None, 2, 3):
            got = elementary_symmetric_classes(rs, forms, top, p)
            want = elementary_symmetric_by_polynomials(rs, forms, top, p)
            assert [e.terms for e in got] == [e.terms for e in want], (rs.type.name(), p)


def test_series_inverse():
    rs = build_root_system("A2")
    x, y = w(rs, 1), w(rs, 2)
    parts = [Polynomial.one(rs), x + y, x * y]
    inv = series_inverse(parts, rs, 3)
    # multiply back: should be 1 up to degree 3
    total = Polynomial.zero(rs)
    for d in range(4):
        for k in range(d + 1):
            pk = parts[k] if k < len(parts) else Polynomial.zero(rs)
            j = d - k
            if j <= 3:
                total = total + pk * inv[j]
    for d, part in graded_parts(total).items():
        if d <= 3:
            assert part == (Polynomial.one(rs) if d == 0 else Polynomial.zero(rs))


# -- packed kernel ------------------------------------------------------------


@st.composite
def polys(draw, max_deg=3, max_terms=4):
    """A root system from A2, B2, G2, E6 and a list of random polynomials on it."""
    rs = build_root_system(draw(st.sampled_from(["A2", "B2", "G2", "E6"])))
    exps = st.lists(st.integers(0, max_deg), min_size=rs.rank, max_size=rs.rank).filter(
        lambda e: sum(e) <= max_deg
    )
    term = st.tuples(exps, st.integers(-3, 3))
    out = []
    for _ in range(3):
        p = Polynomial.zero(rs)
        for e, c in draw(st.lists(term, max_size=max_terms)):
            p = p + Polynomial.monomial(rs, e, c)
        out.append(p)
    return rs, out, draw(st.integers(0, rs.rank - 1))


@settings(max_examples=60, deadline=None)
@given(polys())
def test_kernel_properties(case):
    rs, (f, g, h), i = case
    alpha = Polynomial.linear_form(rs, rs.alpha_omega(i))
    assert f.divided_difference(i) == exact_divide_by_linear(f - reflect(f, i), alpha, pivot=i)
    assert (f * g).divided_difference(i) == (
        f.divided_difference(i) * g + reflect(f, i) * g.divided_difference(i)
    )
    assert reflect(reflect(f, i), i) == f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)


def test_pack_round_trip_and_degree_order():
    rs = build_root_system("E6")
    e = (3, 0, 1, 0, 0, 2)
    assert unpack_monomial(pack_monomial(e), rs.rank) == e
    assert Polynomial.monomial(rs, e).degree() == 6
    # int order on packed keys sorts by total degree first
    assert pack_monomial((0, 0, 0, 0, 0, 2)) < pack_monomial((3, 0, 0, 0, 0, 0))


def test_exponent_overflow_raises():
    rs = build_root_system("A2")
    x = Polynomial.monomial(rs, (MASK, 0))
    assert x.degree() == MASK
    with pytest.raises(InternalComputationError):
        Polynomial.monomial(rs, (MASK + 1, 0))
    with pytest.raises(InternalComputationError):
        Polynomial.monomial(rs, (MASK, 1))
    half = Polynomial.monomial(rs, ((MASK + 1) // 2, 0))
    with pytest.raises(InternalComputationError):
        half * half
    with pytest.raises(InternalComputationError):
        x * Polynomial.variable(rs, 2)


@pytest.mark.parametrize("type_name, theta", [("E6", (2, 3, 4, 5, 6)), ("F4", (1, 2, 3))])
def test_mod2_chern_matches_integral_reduced(type_name, theta):
    ctx = flag_context(build_root_system(type_name), theta)
    integral = ctx.chern_classes(ring="Z")
    mod2 = ctx.chern_classes(ring="Z/2")
    assert len(integral) == len(mod2) == ctx.dim + 1
    for a, b in zip(integral, mod2):
        assert ChowClass(a.type_name, a.theta, "Z/2", a.coeffs) == b


@pytest.mark.parametrize("type_name, theta", [
    ("B3", (2, 3)), ("C3", ()), ("G2", ()), ("F4", (2, 3, 4)), ("E6", (2, 3, 4, 5, 6))])
def test_modp_delta_sweep_matches_integral_reduced(type_name, theta):
    rs = build_root_system(type_name)
    integral = _FlagContext(rs, theta).chern_classes(ring="Z")
    for p in (2, 3):
        ring = f"Z/{p}"
        modp = _FlagContext(rs, theta).chern_classes(ring=ring)
        assert modp == [ChowClass(a.type_name, a.theta, ring, a.coeffs) for a in integral], ring
