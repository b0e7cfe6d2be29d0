"""Products and Chern classes by localization at the fixed points.

The package solves both from restriction rows at t0 = 2 rho^vee; these tests
hold it to the Borel route kept in `oracles`, to closed forms read off the
root data alone, to its cap and to its exact-division check.
"""

import json
import random
import time
from fractions import Fraction
from math import factorial, gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylchow import steenrod
from weylchow.cli import run
from weylchow.errors import ResourceLimitError, UsageError
from weylchow.motive import Correspondence
from weylchow.rootdata import build_root_system
from weylchow.schubert import (
    ENTRY_CAP, ChowClass, _elementary_symmetric, _FlagContext, chern_tangent, flag_context,
    multiply,
)
from weylchow.weyl import CosetTable, WeylElement, apply_word, coset_reps

from oracles import (
    chern_classes_by_polynomials, elementary_symmetric_by_recurrence, multiply_by_borel,
    pieri_multiply, subword_sums_in_characteristic_2, upper_set_by_dot_products,
)

E7P1 = ("E7", (2, 3, 4, 5, 6, 7))
E8P8 = ("E8", (1, 2, 3, 4, 5, 6, 7))
E8P1 = ("E8", (2, 3, 4, 5, 6, 7, 8))


def _vertex(rs, theta):
    """The one vertex outside theta of a maximal parabolic."""
    (i,) = set(range(1, rs.rank + 1)) - set(theta)
    return i


def _divisor(ctx):
    """h, the one basis class of codimension 1 on a maximal parabolic."""
    (k,) = ctx.ct.of_codim(1)
    return ChowClass(ctx.rs.type.name(), ctx.theta, "Z", {k: 1})


# --- agreement with the Borel route ----------------------------------------


@pytest.mark.parametrize("name,theta,top,ring", [
    ("A2", (), None, "Z"), ("B3", (), None, "Z"), ("G2", (), None, "Z"),
    ("A3", (2,), None, "Z"), ("C3", (1, 2), None, "Z"),
    ("F4", (2, 3, 4), None, "Z"), ("E6", (2, 3, 4, 5, 6), None, "Z"),
    (*E7P1, 16, "Z/2"), (*E8P8, 20, "Z/2"),
], ids=["A2", "B3", "G2", "A3/{2}", "C3/{1,2}", "F4/P1", "E6/P1", "E7/P1-mod2", "E8/P8-mod2"])
def test_chern_classes_match_the_borel_route(name, theta, top, ring):
    rs = build_root_system(name)
    want = chern_classes_by_polynomials(_FlagContext(rs, theta), max_codim=top, ring=ring)
    assert _FlagContext(rs, theta).chern_classes(max_codim=top, ring=ring) == want


# (space, pairs, largest da + db): the Borel route's cost grows with the degree it
# sweeps, so on the two larger spaces the pairs are drawn below a total codimension
@pytest.mark.parametrize("name,theta,pairs,most", [
    ("B3", (), 30, None), ("F4", (1,), 30, 10), ("E6", (2, 3, 4, 5, 6), 40, None),
    ("E7", (1, 2, 3, 4, 5, 6), 40, None), (*E7P1, 30, 10),
], ids=["B3", "F4/{1}", "E6/P1", "E7/P7", "E7/P1"])
def test_products_match_the_borel_route(name, theta, pairs, most):
    rs = build_root_system(name)
    ctx = flag_context(rs, theta)
    rng = random.Random(17)
    coeff = {"Z": lambda: rng.randint(-4, 4), "Z/2": lambda: 1, "Z/3": lambda: rng.randint(1, 2),
             "Q": lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))}

    def sample(ring, d):
        layer = ctx.ct.of_codim(d)
        ks = rng.sample(layer, min(2, len(layer)))
        return ChowClass(rs.type.name(), ctx.theta, ring, {k: coeff[ring]() for k in ks})

    for _ in range(pairs):
        ring = rng.choice(list(coeff))
        da = rng.randint(0, ctx.dim if most is None else most)
        db = rng.randint(0, ctx.dim - da if most is None else most - da)
        a, b = sample(ring, da), sample(ring, db)
        got = multiply(a, b)
        assert got == multiply_by_borel(a, b), (ring, da, db)
        # over Q the Borel route keeps every coefficient a Fraction; so does the solve
        assert all(isinstance(c, Fraction) == (ring == "Q") for c in got.coeffs.values())


@st.composite
def _esym_values(draw):
    """(kind, values): 0-80 integers, arbitrary (zeros and both signs), n copies of m,
    of -m or of alternating +-m, or ("edge") large values whose product of the
    1 + |g| lies just under a power of two, so their e_n fills its field."""
    kind = draw(st.sampled_from(["any", "same", "negated", "alternating", "edge"]))
    if kind == "any":
        return kind, draw(st.lists(st.integers(-3, 3) | st.integers(-2**70, 2**70), max_size=80))
    n = draw(st.integers(0, 80))
    if kind != "edge":
        m = draw(st.integers(0, 2**40))
        return kind, [-m if kind == "negated" or (kind == "alternating" and i % 2) else m
                      for i in range(n)]
    magnitude = st.integers(2**8, 2**24)
    values = [draw(magnitude) * draw(st.sampled_from([1, -1])) for _ in range(min(n, 79))]
    q = prod(1 + abs(g) for g in values)
    bits = q.bit_length() + draw(st.integers(8, 64))
    last = (2**bits - 1) // q - 1  # then 2^bits - 2^(bits - 8) < prod(1 + |g|) < 2^bits
    values.insert(draw(st.integers(0, len(values))), last * draw(st.sampled_from([1, -1])))
    return kind, values


@settings(max_examples=300, deadline=None)
@given(_esym_values(), st.data())
@example(("edge", [2**61 - 2]), None)    # e_1 = 2^(B-1) - 2, the largest value a field holds
@example(("edge", [-(2**61 - 2)]), None)
@example(("edge", [6, 0, 0]), None)      # B = 4: e_1 = 6 needs the top bit of its field
def test_packed_elementary_symmetric_matches_the_recurrence(case, data):
    kind, values = case
    tops = range(len(values) + 3)
    for top in tops if data is None else [data.draw(st.sampled_from(tops), label="top")]:
        want = elementary_symmetric_by_recurrence(values, top)
        assert _elementary_symmetric(values, top) == want
    if kind == "edge":  # the field B = bitlen(prod(1 + |g|)) + 1 bits is needed in full
        field = prod(1 + abs(g) for g in values).bit_length() + 1
        e = elementary_symmetric_by_recurrence(values, len(values))
        assert max(map(abs, e)) >= 1 << field - 2


def test_subword_sums_add_the_subword_products():
    # the same sums from the masks of `subword_positions`, one product per subword
    rng = random.Random(3)
    for name, theta in [("B3", ()), ("F4", (2, 3)), ("E6", (2, 3, 4, 5, 6))]:
        ct = coset_reps(build_root_system(name), theta)
        for k in rng.sample(range(len(ct)), 12):
            word = ct.words[k]
            if len(word) > 12:
                continue
            factors = [rng.randint(-9, 9) for _ in word]
            want = {}
            for mask, v in ct.subword_positions(word, len(word)).items():
                value = prod(f for j, f in enumerate(factors) if not mask >> j & 1)
                want[v] = want.get(v, 0) + value
            assert ct.subword_sums(word, factors) == want, (name, k)
            # a window keeps the sums at the wanted lengths and nothing else
            lengths = set(rng.sample(range(len(word) + 1), min(3, len(word) + 1)))
            assert ct.subword_sums(word, factors, lengths) == {
                v: c for v, c in want.items() if ct.length(v) in lengths}, (name, k, lengths)


def _random_reduced_word(ct, rng, length):
    """A reduced word of a representative, grown by a random ascent at each step (so
    seldom the canonical one), stopping early at the top."""
    word, p = [], ct._lam
    for _ in range(length):
        ascents = [i for i in range(1, ct.rs.rank + 1) if ct._step(p, i - 1)[0] > 0]
        if not ascents:
            break
        i = rng.choice(ascents)
        word.insert(0, i)
        p = ct._step(p, i - 1)[1]
    return tuple(word)


def test_windowed_walk_in_characteristic_2_matches_the_unwindowed_walk():
    # values are series over GF(2^8), a byte per coefficient, each factor applied as
    # r + lambda r^2 through two tables, as the fixed-point Steenrod solve walks them;
    # the live-length walk must keep exactly the unwindowed sums (added subword by subword
    # in `oracles`) at the wanted lengths, and with one product per length (constant terms
    # above a cut) their constant terms
    table = steenrod._table
    size = 6

    def times(series, tables):
        raw = series.to_bytes(size, "little")
        return (int.from_bytes(raw.translate(tables[0]), "little")
                ^ int.from_bytes(raw[:-1].translate(tables[1]), "little") << 8)

    def constant(series, tables):
        return tables[0][series & 255]

    rng = random.Random(2)
    spaces = [("B3", (), 10), ("C3", (), 10), ("G2", (), 7), ("F4", (), 25), ("E6", (2, 3, 4, 5, 6), 17),
              (*E7P1, 27)]
    for name, theta, longest in spaces:
        ct = coset_reps(build_root_system(name), theta)
        for _ in range(12):
            shortest = 19 if name == "E7" else 0
            word = _random_reduced_word(ct, rng, rng.randint(shortest, min(longest, ct.max_length)))
            n = len(word)
            factors = []
            for _ in word:
                r = rng.randrange(1, 256)
                factors.append((table(r), table(table(r)[r])))
            full = subword_sums_in_characteristic_2(ct, word, factors, times)
            a, b = sorted(rng.sample(range(n + 1), 2)) if n else (0, 0)
            windows = [set(), {0}, {n}, set(range(0, a + 1)), set(range(b, n + 1)), set(range(a, b)),
                       set(rng.sample(range(n + 1), min(3, n + 1))), {n + 1, n + 5}, {a, n + 2}]
            for window in windows:
                want = {k: v for k, v in full.items() if ct.length(k) in window}
                assert ct.subword_sums(word, factors, window, [times] * (n + 1)) == want, (
                    name, word, window)
                cut = rng.randint(0, n)
                split = [times] * (cut + 1) + [constant] * (n - cut)
                assert ct.subword_sums(word, factors, window, split) == {
                    k: v if ct.length(k) <= cut else v & 255 for k, v in want.items()
                }, (name, word, window, cut)


def test_row_factors_are_the_roots_r_j_at_2_rho_vee():
    # r_j = s_b1 ... s_b(j-1)(alpha_bj) applied as weights, then evaluated at t0:
    # a weight with omega-coordinates v takes sum_i v_i c_i, c_i = sum over beta > 0 of beta^vee_i
    rs = build_root_system("F4")
    ctx = _FlagContext(rs, (2, 3))
    c = [sum(pr.coroot[i] for pr in rs.positive_roots) for i in range(rs.rank)]
    rows = ctx.rows(range(len(ctx.ct)))
    for x, (row, t) in rows.items():
        word = ctx.ct.words[x]
        r = [sum(ci * vi for ci, vi in zip(c, apply_word(rs, word[:j], rs.alpha_omega(b - 1))))
             for j, b in enumerate(word)]
        assert all(v > 0 for v in r)  # positive roots take 2 height
        assert row[x] == prod(r)  # xi^x(x): the whole word is the one subword
        assert row[0] == 1  # xi^e = 1
        assert t == [sum(ci * vi for ci, vi in zip(c, apply_word(rs, word, rs.alpha_omega(i))))
                     for i in range(rs.rank)]  # <alpha_i, x^-1 t0> = <x alpha_i, t0>


# --- the cut to the fixed points above both factors ---------------------------


def _cancelling_factors(ctx, x, count):
    """Up to `count` pairs (a, b) of integral classes with both factors' supports below
    the fixed point x and l(x) <= codim a + codim b, where a = c1 xi^v1 + c2 xi^v2 has
    terms of both signs and vanishes at x by cancellation."""
    ct = ctx.ct
    row = ctx.rows([x])[x][0]
    name = ctx.rs.type.name()
    out = []
    for length in range(1, ct.length(x)):
        below = [v for v in ct.of_length(length) if v in row]
        for v1, v2 in zip(below, below[1:]):
            g = gcd(row[v1], row[v2])
            a = ChowClass(name, ctx.theta, "Z", {ct.dual_index(v1): row[v2] // g,
                                                 ct.dual_index(v2): -row[v1] // g})
            for u in sorted(row):
                if ct.length(x) <= length + ct.length(u) <= ctx.dim:
                    out.append((a, ChowClass(name, ctx.theta, "Z", {ct.dual_index(u): 1})))
                    break
            if len(out) == count:
                return out
    return out


def test_products_of_mixed_sign_factors_match_the_borel_route():
    # the cut reads the factors' supports: a factor vanishing at an x above its
    # support by cancellation still has x solved at
    rs = build_root_system("B3")
    ctx = flag_context(rs, ())
    ct = ctx.ct
    rng = random.Random(29)
    pairs = []
    for x in rng.sample(range(len(ct)), 12):
        for a, b in _cancelling_factors(ctx, x, 2):
            (va, ca), (vb, cb) = ((ct.dual_index(k), c) for k, c in a.coeffs.items())
            row = ctx.rows([x])[x][0]
            assert ca * row[va] + cb * row[vb] == 0 and ca * cb < 0
            pairs.append((a, b))
    assert len(pairs) >= 12

    def two_terms(ring):
        d = rng.randint(1, ctx.dim - 1)
        ks = rng.sample(ct.of_codim(d), 2)
        cs = [rng.randint(1, 5), -rng.randint(1, 5)]
        if ring == "Q":
            cs = [Fraction(c, rng.randint(1, 4)) for c in cs]
        return ChowClass("B3", (), ring, dict(zip(ks, cs)))

    for ring in ("Z", "Q"):
        pairs += [(two_terms(ring), two_terms(ring)) for _ in range(15)]
    pairs += [(ChowClass("B3", (), "Q", {k: Fraction(c, 3) for k, c in a.coeffs.items()}),
               ChowClass("B3", (), "Q", b.coeffs)) for a, b in pairs[:6]]
    for a, b in pairs:
        assert multiply(a, b) == multiply_by_borel(a, b), (a, b)


@pytest.mark.parametrize("name,theta", [("E6", (2, 3, 4, 5, 6)), E7P1], ids=["E6/P1", "E7/P1"])
def test_the_cut_under_the_cap_matches_the_upper_set_walk(name, theta, monkeypatch):
    # under the cap the Bruhat order is read off the memoized rows; with the cap just
    # below a product's count the same fixed points come from `upper_set`
    rs = build_root_system(name)
    ctx = flag_context(rs, theta)
    ct = ctx.ct
    rng = random.Random(41)

    def sample(ring):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            k = rng.choice(range(len(ct) - 1))  # not the fundamental class: its upper set is all
            terms[k] = rng.choice([-3, -1, 1, 2, 5]) if ring != "Q" else Fraction(
                rng.randint(-5, 5), rng.randint(1, 3))
        return ChowClass(name, ctx.theta, ring, terms)

    for _ in range(25):
        ring = rng.choice(["Z", "Q", "Z/2", "Z/3"])
        a, b = sample(ring), sample(ring)
        degrees = [ct.codim(ka) + ct.codim(kb) for ka in a.coeffs for kb in b.coeffs]
        top = max([d for d in degrees if d <= ctx.dim], default=None)
        want = multiply(a, b)
        if top is None:
            continue
        with monkeypatch.context() as m:
            m.setattr("weylchow.schubert.ENTRY_CAP", ctx._layers[top] - 1)
            walked, real = [], CosetTable.upper_set
            m.setattr(CosetTable, "upper_set",
                      lambda ct, starts, top: walked.append(top) or real(ct, starts, top))
            assert multiply(a, b) == want, (a, b)
            assert walked == [top, top]


class _Reads(dict):
    """A copy of the rows a solve is given, recording the positions it reads."""

    def __init__(self, rows, seen):
        super().__init__(rows)
        self.seen = seen

    def __getitem__(self, x):
        self.seen.append(x)
        return super().__getitem__(x)


def _recorded_reads(monkeypatch):
    seen = []
    real = _FlagContext.rows
    monkeypatch.setattr(_FlagContext, "rows",
                        lambda self, xs, lengths=None: _Reads(real(self, xs, lengths), seen))
    return seen


def test_a_product_solves_only_at_the_fixed_points_above_both_factors(monkeypatch):
    name, theta = "E6", (2, 3, 4, 5, 6)
    ctx = flag_context(build_root_system(name), theta)
    ct = ctx.ct
    seen = _recorded_reads(monkeypatch)
    visited = 0
    for ka in range(len(ct)):
        for kb in range(len(ct)):
            da, db = ct.codim(ka), ct.codim(kb)
            if da + db > ctx.dim:
                continue
            va, vb = ct.dual_index(ka), ct.dual_index(kb)
            want = [x for x in range(ct.of_length(da + db).stop)
                    if ct.bruhat_above(x, [va]) and ct.bruhat_above(x, [vb])]
            seen.clear()
            multiply(*(ChowClass(name, ctx.theta, "Z", {k: 1}) for k in (ka, kb)))
            assert seen == want, (ka, kb)
            visited += len(want)
    # of the x with l(x) <= da + db, summed over the products, the cut visits under a third
    everything = sum(ct.of_length(ct.codim(ka) + ct.codim(kb)).stop
                     for ka in range(len(ct)) for kb in range(len(ct))
                     if ct.codim(ka) + ct.codim(kb) <= ctx.dim)
    assert visited * 3 < everything


def test_a_chern_class_still_solves_at_every_fixed_point_up_to_its_codimension(monkeypatch):
    name, theta = "E6", (2, 3, 4, 5, 6)
    seen = _recorded_reads(monkeypatch)
    for codim in (0, 3, 16):
        ctx = _FlagContext(build_root_system(name), theta)
        seen.clear()
        ctx.chern_classes(max_codim=codim)
        assert seen == list(range(ctx.ct.of_length(codim).stop)), codim


# --- closed forms from the root data ----------------------------------------


@pytest.mark.parametrize("name,theta,want", [(*E7P1, 17), (*E8P8, 29), (*E8P1, 23)],
                         ids=["E7/P1", "E8/P8", "E8/P1"])
def test_first_chern_class_is_the_index_times_h(name, theta, want):
    # c_1 = sum over the unipotent roots beta of <beta, alpha_i^vee> omega_i
    rs = build_root_system(name)
    ctx = flag_context(rs, theta)
    i = _vertex(rs, theta)
    assert sum(pr.omega[i - 1] for pr in ctx.unipotent_roots) == want
    (k,) = _divisor(ctx).coeffs
    assert ctx.chern_classes(max_codim=1)[1].coeffs == {k: want}


@pytest.mark.parametrize("name,theta,want", [(*E7P1, 141_430_680), (*E8P8, 126_937_516_885_200)],
                         ids=["E7/P1", "E8/P8"])
def test_degree_of_h_to_the_dimension(name, theta, want):
    # Borel-Hirzebruch: deg h^dim = dim! prod over the unipotent roots beta
    # of <omega_i, beta^vee> / <rho, beta^vee>
    rs = build_root_system(name)
    ctx = flag_context(rs, theta)
    i = _vertex(rs, theta)
    closed = factorial(ctx.dim) * prod(
        Fraction(pr.coroot[i - 1], sum(pr.coroot)) for pr in ctx.unipotent_roots)
    assert closed == want
    h = _divisor(ctx)
    power = h
    for _ in range(ctx.dim - 1):
        power = multiply(power, h)
    assert power.coeffs == {0: want}


def test_products_on_e8p8_commute_and_associate():
    rs = build_root_system(E8P8[0])
    ctx = flag_context(rs, E8P8[1])
    rng = random.Random(8)

    low = [k for d in range(1, ctx.dim // 3 + 1) for k in ctx.ct.of_codim(d)]  # a b c can be nonzero

    def sample():
        ks = rng.sample(low, 2)
        return ChowClass("E8", ctx.theta, "Z", {k: rng.randint(1, 5) for k in ks})

    nonzero = 0
    for _ in range(8):
        a, b, c = sample(), sample(), sample()
        assert multiply(a, b) == multiply(b, a)
        abc = multiply(multiply(a, b), c)
        assert abc == multiply(a, multiply(b, c))
        nonzero += not abc.is_zero()
    assert nonzero >= 4


# --- the cap and the exact-division check -------------------------------------


def _basis_json(name, theta, word, ring="Z"):
    return json.dumps({"type": name, "theta": list(theta), "ring": ring,
                       "terms": [{"word": list(word), "coeff": 1}]})


class _Started(Exception):
    pass


def _no_rows(monkeypatch):
    """Make building any restriction row raise _Started."""

    def first_row(self, word, factors, lengths=None):
        raise _Started

    monkeypatch.setattr(CosetTable, "subword_sums", first_row)


def test_product_above_the_cap_exits_3_before_any_row(monkeypatch):
    # E6 full flags, the first and last codim-8 classes: 20,478 fixed points of length
    # <= 16 and both Bruhat upper sets of the factors count past the cap
    ctx = flag_context(build_root_system("E6"), ())
    ct = ctx.ct
    layer = ct.of_codim(8)
    a, b = (_basis_json("E6", (), ct.words[k]) for k in (layer[0], layer[-1]))
    assert ctx._layers[16] > ENTRY_CAP
    _no_rows(monkeypatch)
    t0 = time.perf_counter()
    code, out = run(["mult", "--type", "E6", "--theta", "", "--a", a, "--b", b])
    assert time.perf_counter() - t0 < 2.0
    assert code == 3 and "cap" in out, out


def test_every_e8p1_query_passes_the_cap(monkeypatch):
    # the top degree needs all 2,160 rows; a refusal would raise before the first row
    rs = build_root_system(E8P1[0])
    ctx = _FlagContext(rs, E8P1[1])
    assert len(ctx.ct) == 2160 and ctx._layers[-1] <= ENTRY_CAP
    _no_rows(monkeypatch)
    with pytest.raises(_Started):
        ctx.chern_classes()
    point, fundamental = (ChowClass("E8", ctx.theta, "Z", {k: 1}) for k in (0, len(ctx.ct) - 1))
    monkeypatch.setattr("weylchow.schubert._class_context", lambda name, theta: ctx)
    with pytest.raises(_Started):
        multiply(point, fundamental)
    monkeypatch.setattr("weylchow.schubert.ENTRY_CAP", ctx._layers[-1] - 1)
    with pytest.raises(ResourceLimitError):  # one state over the cap is refused before any row
        ctx.chern_classes()
    # a product is cut to the fixed points above both factors: here the one point
    xs, lengths = ctx.fixed_points(ctx.dim, ([0], [len(ctx.ct) - 1]))
    assert xs == [len(ctx.ct) - 1] and lengths == {0, ctx.dim}


def test_a_product_under_the_cap_builds_only_the_rows_from_its_factors_lengths(monkeypatch):
    # an x above both factors is no shorter than either factor's shortest term, so on
    # E8/P1 point times fundamental class builds the top row alone, not all 2,160
    rs = build_root_system(E8P1[0])
    ctx = _FlagContext(rs, E8P1[1])
    ct = ctx.ct
    assert ctx._layers[-1] <= ENTRY_CAP
    monkeypatch.setattr("weylchow.schubert._class_context", lambda name, theta: ctx)
    built, real = [], _FlagContext._row
    monkeypatch.setattr(_FlagContext, "_row",
                        lambda self, x, lengths=None: built.append(x) or real(self, x, lengths))
    point, fundamental = (ChowClass("E8", ctx.theta, "Z", {k: 1}) for k in (0, len(ct) - 1))
    assert multiply(point, fundamental) == point
    assert built == [len(ct) - 1]
    # a divisor times a class of codim dim - 2: the rows of lengths dim - 2 and dim - 1
    built.clear()
    h, c = (ChowClass("E8", ctx.theta, "Z", {ct.of_codim(d)[0]: 1}) for d in (1, ctx.dim - 2))
    assert not multiply(h, c).is_zero()
    assert sorted(built) == list(range(ct.of_length(ctx.dim - 2).start, ct.of_length(ctx.dim).start))


@pytest.mark.parametrize("ring", ["Z/4", "Q/2"])
def test_a_bad_ring_is_refused_before_any_row(ring, monkeypatch):
    rs = build_root_system(E7P1[0])
    ctx = _FlagContext(rs, E7P1[1])

    def rows(self, xs, lengths=None):
        raise _Started

    monkeypatch.setattr(_FlagContext, "rows", rows)
    with pytest.raises(UsageError):
        ctx.chern_classes(ring=ring)
    with pytest.raises(UsageError):
        chern_tangent(rs, E7P1[1], ring=ring)
    t0 = time.perf_counter()
    code, out = run(["chern", "--type", "E8", "--theta", "1,2,3,4,5,6,7", "--mod", "4"])
    assert code == 2 and time.perf_counter() - t0 < 1.0, out


@pytest.mark.parametrize("max_codim", [True, False, 1.5, 2.0, "1", -1])
def test_a_bad_codimension_is_refused_before_any_row(max_codim, monkeypatch):
    # as `steenrod_total` refuses a bound: True would read as 1 and a float or a string
    # would fail inside the solve
    rs = build_root_system(E7P1[0])
    ctx = _FlagContext(rs, E7P1[1])
    _no_rows(monkeypatch)
    with pytest.raises(UsageError, match="codimension must be a nonnegative integer"):
        ctx.chern_classes(max_codim)
    with pytest.raises(UsageError, match="codimension must be a nonnegative integer"):
        chern_tangent(rs, E7P1[1], max_codim)


@pytest.mark.parametrize("ring", [2, None, ["Z"], b"Z/2"])
def test_a_ring_that_is_not_a_string_is_refused(ring, monkeypatch):
    # refused before the ring cache, which would hash it or call str methods on it
    rs = build_root_system("A2")
    _no_rows(monkeypatch)
    builds = [lambda: ChowClass("A2", (), ring, {}), lambda: chern_tangent(rs, (), 1, ring),
              lambda: Correspondence("A2", (), ring, ())]
    for build in builds:
        with pytest.raises(UsageError, match="must be a string"):
            build()


def test_chern_above_the_cap_exits_3():
    t0 = time.perf_counter()
    code, out = run(["chern", "--type", "E6", "--theta", "", "--codim", "20", "--mod", "2"])
    assert code == 3 and time.perf_counter() - t0 < 2.0, out


@pytest.mark.parametrize("name,da,db", [("E6", 36, 0), ("E6", 0, 36), ("E6", 32, 4),
                                        ("E6", 1, 35), ("A6", 20, 1), ("A6", 1, 20),
                                        ("A6", 19, 2)])
def test_near_complementary_products_past_the_prefix_count_are_answered(name, da, db):
    # the x with l(x) <= da + db count far past the cap; those above both factors are few
    rs = build_root_system(name)
    ctx = flag_context(rs, ())
    ct = ctx.ct
    assert ctx._layers[da + db] > ENTRY_CAP
    ka, kb = ct.of_codim(da)[-1], ct.of_codim(db)[0]
    a, b = (_basis_json(name, (), ct.words[k]) for k in (ka, kb))
    t0 = time.perf_counter()
    code, out = run(["mult", "--type", name, "--theta", "", "--a", a, "--b", b])
    assert code == 0 and time.perf_counter() - t0 < 5.0, out
    want = multiply_by_borel(*(ChowClass(rs.type.name(), (), "Z", {k: 1}) for k in (ka, kb)))
    got = {ct.index[tuple(t["word"])]: t["coeff"] for t in json.loads(out)["terms"]}
    assert got == {k: int(c) for k, c in want.coeffs.items()}


@pytest.mark.parametrize("name,lengths", [("A6", (1, 2, 3, 4)), ("E6", (2, 4, 6))])
def test_monk_products_past_the_prefix_count_match_chevalley(name, lengths):
    # [X_(w0 s_alpha)] [X_w] for short w on full flags, against the Chevalley formula
    rs = build_root_system(name)
    ctx = flag_context(rs, ())
    ct = ctx.ct
    rng = random.Random(6)
    for length in lengths:
        assert ctx._layers[ctx.dim - length + 1] > ENTRY_CAP
        for k in rng.sample(ct.of_length(length), 2):
            alpha = rng.randint(1, rs.rank)
            h = ChowClass(name, (), "Z", {ct.index[(ct.w0 * WeylElement(rs, (alpha,))).word]: 1})
            want = pieri_multiply(rs, alpha, WeylElement(rs, ct.words[k]))
            assert multiply(h, ChowClass(name, (), "Z", {k: 1})) == want, (alpha, k)


def test_upper_sets_and_bruhat_order_match_the_rows():
    # xi^u(x) at t0 is a sum of products of positive values, nonzero exactly when u <= x
    for name, theta in [("B3", ()), ("G2", ()), ("F4", (2, 3)), ("A4", (2,))]:
        ctx = _FlagContext(build_root_system(name), theta)
        ct = ctx.ct
        rows = ctx.rows(range(len(ct)))
        above = {u: {x for x in range(len(ct)) if rows[x][0].get(u)} for u in range(len(ct))}
        for u in range(len(ct)):
            for top in (ct.length(u) + 2, ct.max_length):
                want = {x for x in above[u] if ct.length(x) <= top}
                assert sorted(ct.upper_set([u], top)) == sorted(want), (name, u, top)
        for x in range(len(ct)):
            for us in ([0], [len(ct) - 1], list(ct.of_length(ct.length(x))), range(0, len(ct), 5)):
                assert ct.bruhat_above(x, us) == any(x in above[u] for u in us), (name, x, us)


def test_upper_sets_on_e_types_match_the_dot_product_walk():
    # every start and two tops on E6/P1 and E7/P1, sampled starts on E8/P8, against
    # the walk that pairs every point with every positive coroot by a dot product
    rng = random.Random(8)
    for (name, theta), sample in [(("E6", (2, 3, 4, 5, 6)), None), (E7P1, None), (E8P8, 24)]:
        ct = coset_reps(build_root_system(name), theta)
        starts = range(len(ct)) if sample is None else rng.sample(range(len(ct)), sample)
        for u in starts:
            for top in (ct.length(u) + 2, ct.max_length):
                got = list(ct.upper_set([u], top))
                assert len(got) == len(set(got)), (name, u, top)
                assert set(got) == upper_set_by_dot_products(ct, [u], top), (name, u, top)
        pair = rng.sample(range(len(ct)), 2)
        assert set(ct.upper_set(pair, ct.max_length - 3)) == upper_set_by_dot_products(
            ct, pair, ct.max_length - 3), (name, pair)


def test_a_corrupted_row_exits_4(monkeypatch):
    # a remainder in the triangular solve is an internal error
    name, theta = "E6", (2, 3, 4, 5, 6)
    ctx = flag_context(build_root_system(name), theta)
    a, b = (_basis_json(name, theta, ctx.ct.words[ctx.ct.of_codim(d)[0]]) for d in (2, 3))
    argv = ["mult", "--type", name, "--theta", "2,3,4,5,6", "--a", a, "--b", b]
    code, out = run(argv)
    assert code == 0
    k = next(iter(json.loads(out)["terms"]))["word"]
    x = ctx.ct.dual_index(ctx.ct.index[tuple(k)])  # a fixed point whose coefficient is nonzero
    rows = {y: (dict(row), t) for y, (row, t) in ctx._rows.items()}
    rows[x][0][x] += 1  # coprime to xi^x(x) and above c^x, so it cannot divide c^x xi^x(x)
    monkeypatch.setattr(ctx, "_rows", rows)
    code, out = run(argv)
    assert code == 4 and "not divisible" in out, out


def test_row_memo_is_shared_and_stays_under_the_cap(monkeypatch):
    ctx = _FlagContext(build_root_system("F4"), (2, 3, 4))
    low = ctx.rows(range(ctx.ct.of_length(3).stop))
    assert len(low) == ctx.ct.of_length(3).stop
    first = low[ctx.ct.of_length(3)[0]]
    ctx.chern_classes(max_codim=6)
    assert ctx.rows([]) is ctx._rows and len(ctx._rows) == ctx.ct.of_length(6).stop
    assert ctx._rows[ctx.ct.of_length(3)[0]] is first
    # whole rows are built only below the end of a length prefix counted under the cap,
    # so the memo needs no eviction: with the cap at the prefix of length 6, Chern
    # classes up to codim 6 and products of every degree (those above 6 walk the Bruhat
    # order, or are refused) leave the memo inside that prefix
    for name, theta in (("F4", (2, 3, 4)), ("E6", (2, 3, 4, 5, 6))):
        ctx = _FlagContext(build_root_system(name), theta)
        ct, top = ctx.ct, 6
        monkeypatch.setattr("weylchow.schubert.ENTRY_CAP", ctx._layers[top])
        monkeypatch.setattr("weylchow.schubert._class_context", lambda type_name, theta: ctx)
        ctx.chern_classes(max_codim=top)
        rng = random.Random(name)
        degrees = set()
        for _ in range(60):
            a, b = (ChowClass(name, ct.theta, "Z", {rng.randrange(len(ct)): 1}) for _ in range(2))
            degree = a.codim(ct) + b.codim(ct)
            try:
                multiply(a, b)
            except ResourceLimitError:
                assert degree > top
            degrees.add(degree)
        assert min(degrees) <= top < max(degrees), name
        counts = ctx._counts(ctx.dim)
        assert max(ctx._rows) < ct.of_length(top).stop, name
        assert sum(counts[ct.length(x)] for x in ctx._rows) <= ctx._layers[top], name
