"""Slow, independent reference implementations that only the tests use."""

import json
import weakref
from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm

from weylchow.errors import InternalComputationError, UsageError
from weylchow.motive import MotiveSummand, decompose, refine_rost
from weylchow.polynomial import (
    BITS, MASK, Polynomial, _candidate_points, _Echelon, _orbit, _sub_fundamental_seeds, _unit,
    unpack_monomial,
)
from weylchow.rootdata import (
    DynkinType, PositiveRoot, build_root_system, checked_vertices, ring_modulus, root_subsystem,
    weyl_degrees,
)
from weylchow.schubert import (
    ChowClass, _check_compatible, _integral, flag_context, invariant_generators,
)
from weylchow.titsjinv import HigherIndexSet, _doublings, _v_p
from weylchow.weyl import (
    CosetTable, WeylElement, _canonical_from_image, apply_word, checked_word, coset_reps,
    hasse_edges,
)


def cartan_symmetrizer(cartan):
    """Positive integers d_i with d_i A[i][j] = d_j A[j][i].

    Each component is walked from its least vertex, starting at 1 and
    scaled by the least factor that keeps d_j = d_i A[i][j] / A[j][i]
    integral, so it ends as its primitive vector.  The components are then
    brought to a common value at their least vertices and the whole vector
    is divided by its gcd.  A simple type gets 1 on its short roots; a
    reducible one can keep a common factor on a component (B2xG2 gives
    (2, 1, 2, 6)).
    """
    n = len(cartan)
    if not n:
        return ()
    d = [0] * n
    components = []
    for start in range(n):
        if d[start]:
            continue
        d[start] = 1
        component = [start]
        for i in component:
            for j in range(n):
                if i != j and cartan[i][j] != 0 and not d[j]:
                    # d_j / d_i = A[i][j] / A[j][i]; rescale the component if d_j is not integral
                    num = d[i] * cartan[i][j]
                    den = cartan[j][i]
                    scale = -den // gcd(num, den)
                    if scale > 1:
                        for k in component:
                            d[k] *= scale
                        num *= scale
                    d[j] = num // den
                    component.append(j)
        components.append(component)
    common = lcm(*(d[c[0]] for c in components))
    for c in components:
        factor = common // d[c[0]]
        for k in c:
            d[k] *= factor
    g = gcd(*d)
    return tuple(v // g for v in d)


def positive_roots_by_root_strings(rs):
    """Phi+ ordered by (height, root), closed by root strings, coroots from norms.

    beta + alpha_i is a root iff p - <beta, alpha_i^vee> > 0, where p is the
    largest k with beta - k alpha_i a root; beta^vee = 2 beta / (beta, beta) in
    the norms of the symmetrizer.
    """
    n, a = rs.rank, rs.cartan
    if n == 0:
        return ()
    d = cartan_symmetrizer(a)
    layers = [[tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]]
    seen = set(layers[0])
    while True:
        nxt = []
        for c in layers[-1]:
            for i in range(n):
                pairing = sum(a[i][j] * c[j] for j in range(n))
                p = 0
                probe = list(c)
                while True:
                    probe[i] -= 1
                    if probe[i] < 0 or tuple(probe) not in seen:
                        break
                    p += 1
                if p - pairing > 0:
                    up = list(c)
                    up[i] += 1
                    t = tuple(up)
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
        if not nxt:
            break
        layers.append(nxt)
    out = []
    for layer in layers:
        for c in sorted(layer):
            omega = tuple(sum(a[j][k] * c[k] for k in range(n)) for j in range(n))
            norm = sum(c[i] * c[j] * d[i] * a[i][j] for i in range(n) for j in range(n))
            coroot = []
            for i in range(n):
                num = 2 * d[i] * c[i]
                if num % norm:
                    raise InternalComputationError("coroot coordinates must be integral")
                coroot.append(num // norm)
            out.append(PositiveRoot(c, omega, tuple(coroot)))
    return tuple(out)


def all_reduced_words(rs, w):
    """Every reduced word of w (exponential; for small-rank tests only)."""
    out = []

    def rec(v, acc):
        if v == rs.rho:
            out.append(tuple(acc))
            return
        for i in range(rs.rank):
            if v[i] < 0:
                rec(rs.reflect_weight(i, v), acc + [i + 1])

    rec(apply_word(rs, w.word, rs.rho), [])
    return out


def reflect(u: Polynomial, i: int) -> Polynomial:
    """s_i u (0-based i): x_i -> x_i - alpha_i substituted by whole-polynomial products.

    The package tests invariance and takes divided differences without it.
    """
    rs = u.rs
    image = Polynomial.variable(rs, i + 1) - Polynomial.linear_form(rs, rs.alpha_omega(i))
    out = Polynomial.zero(rs)
    for e, c in u.terms.items():
        exps = list(unpack_monomial(e, rs.rank))
        k, exps[i] = exps[i], 0
        term = Polynomial.monomial(rs, exps, c)
        for _ in range(k):
            term = term * image
        out = out + term
    return out


def series_inverse(parts, rs, max_degree):
    """Inverse of 1 + parts[1] + parts[2] + ... as a truncated graded series.

    parts: dict or list where parts[d] is the degree-d Polynomial; the
    degree-0 part must be 1.
    """
    inv = [Polynomial.one(rs)] + [Polynomial.zero(rs) for _ in range(max_degree)]
    for d in range(1, max_degree + 1):
        acc = Polynomial.zero(rs)
        for k in range(1, d + 1):
            pk = parts[k] if k < len(parts) else Polynomial.zero(rs)
            if not pk.is_zero() and not inv[d - k].is_zero():
                acc = acc + pk * inv[d - k]
        inv[d] = acc.scale(-1)
    return inv


def elementary_symmetric_by_polynomials(rs, forms, max_degree, modulus=None):
    """e_0..e_max of linear forms through whole-polynomial products, sums and reductions."""
    es = [Polynomial.one(rs)] + [Polynomial.zero(rs) for _ in range(max_degree)]
    for coords in forms:
        gamma = Polynomial.linear_form(rs, coords)
        for k in range(max_degree, 0, -1):
            if not es[k - 1].is_zero():
                e = es[k] + es[k - 1] * gamma
                es[k] = reduce_mod(e, modulus) if modulus else e
    return es


def exact_divide_by_linear(u: Polynomial, form: Polynomial, pivot: int) -> Polynomial:
    """Division of u by a linear form with nonzero pivot coefficient.

    An independent cross-check of the divided-difference formula.
    Raises InternalComputationError on a nonzero remainder.
    """
    rs = u.rs
    n = rs.rank
    unit = _unit(rs, pivot)
    cpiv = form.terms.get(unit, 0)
    if not cpiv:
        raise InternalComputationError("pivot variable absent from divisor")
    rem = Polynomial(rs, dict(u.terms))
    quot = Polynomial.zero(rs)
    while not rem.is_zero():
        e, c = max(rem.terms.items(), key=lambda t: (
            (t[0] >> (BITS * pivot)) & MASK, unpack_monomial(t[0], n)))
        if not (e >> (BITS * pivot)) & MASK:
            raise InternalComputationError("nonzero remainder in linear division")
        q = Polynomial(rs, {e - unit: Fraction(c, 1) / cpiv})
        quot = quot + q
        rem = rem - q * form
    return map_fractions(quot)


def map_fractions(p: Polynomial) -> Polynomial:
    """p with every Fraction coefficient of denominator 1 turned into an int."""
    out = {}
    for e, c in p.terms.items():
        if isinstance(c, Fraction) and c.denominator == 1:
            c = int(c)
        out[e] = c
    return Polynomial(p.rs, out)


def _orbit_power_sums(rs, orbit, degrees):
    """Power sums of the linear forms of an orbit, one polynomial per degree."""
    dmax = max(degrees)
    sums = {d: Polynomial.zero(rs) for d in degrees}
    for mu in orbit:
        form = Polynomial.linear_form(rs, mu)
        p = Polynomial.one(rs)
        for d in range(1, dmax + 1):
            p = p * form
            if d in sums:
                sums[d] = sums[d] + p
    return sums


def invariant_generators_by_polynomials(rs, theta):
    """Invariant generators chosen from Jacobians of fully expanded candidates.

    Every orbit power sum up to the top slot degree is built as a polynomial
    and differentiated; the package picks the same generators from numeric
    Jacobian rows without expanding the losers.
    """
    theta = tuple(sorted(set(theta)))
    n = rs.rank
    base = [Polynomial.variable(rs, i) for i in range(1, n + 1) if i not in theta]
    if not theta:
        return base
    slots = sorted(weyl_degrees(root_subsystem(rs, theta)))
    seeds = _sub_fundamental_seeds(rs, theta)
    orbits = [_orbit(rs, theta, s) for s in seeds]
    order = sorted(range(len(orbits)), key=lambda i: (len(orbits[i]), i))
    wanted = sorted(set(slots))
    sums_by_seed = [
        _orbit_power_sums(rs, orbits[i], wanted) for i in order
    ]

    for pt in _candidate_points(n):
        elim = _Echelon(n)
        for g in base:
            elim.add([g.derivative(j).evaluate(pt) for j in range(n)])
        chosen = []
        ok = True
        for d in slots:
            found = None
            for sums in sums_by_seed:
                cand = sums[d]
                if cand.is_zero() or any(cand == c for c in chosen):
                    continue
                if elim.add([cand.derivative(j).evaluate(pt) for j in range(n)]):
                    found = cand
                    break
            if found is None:
                ok = False
                break
            chosen.append(found)
        if ok and len(elim.rows) == n:
            for g in chosen:
                if not g.is_invariant_under(theta):
                    raise InternalComputationError("orbit power sum failed invariance")
            return base + chosen
    raise InternalComputationError(
        f"could not assemble invariant generators for theta={list(theta)}"
    )


# --- the Borel presentation: invariant polynomials and the characteristic map ------
# The package computes in the Schubert basis only; the characteristic map
# c(u) = sum over w of Delta_w(u) [X_{w0 w wt}] of a W_Theta-invariant u,
# its preimages and the divided-difference sweep are kept here as references.
# A preimage is an integer combination of pivot products g^e of the invariant
# generators: one fraction-free elimination per degree picks the pivots and
# gives D M^-1 for their image matrix M.  Divided-difference chains share work
# across w: canonical words are built by the coset BFS as (letter) + parent
# word, so Delta_w(u) = Delta_letter(Delta_parent(u)) and one sweep over the
# table computes every chain, one length layer at a time.


def is_homogeneous(P: Polynomial) -> bool:
    shift = BITS * P.rs.rank
    return len({e >> shift for e in P.terms}) <= 1


def graded_parts(P: Polynomial) -> dict:
    """{degree: the homogeneous part of P of that degree}, increasing."""
    shift = BITS * P.rs.rank
    out = {}
    for e, c in P.terms.items():
        out.setdefault(e >> shift, {})[e] = c
    return {d: Polynomial(P.rs, t) for d, t in sorted(out.items())}


def reduce_mod(P: Polynomial, p) -> Polynomial:
    """P with every coefficient (a Fraction through the inverse of its denominator) in [0, p)."""
    out = {}
    for e, c in P.terms.items():
        if type(c) is Fraction:  # not isinstance: the check against an ABC dominates this loop
            if c.denominator % p == 0:
                raise InternalComputationError(f"denominator not invertible mod {p}")
            c = c.numerator * pow(c.denominator, -1, p)
        v = c % p
        if v:
            out[e] = v
    return Polynomial(P.rs, out)


def divided_difference(rs, word, u: Polynomial) -> Polynomial:
    """Delta_{s_{i1}} o ... o Delta_{s_ik} applied to u (word need not be reduced)."""
    for i in reversed(checked_word(rs, word)):
        u = u.divided_difference(i - 1)
    return u


#: _FlagContext -> ({degree: grid}, {generator exponents: image}), the Borel memos
_BOREL_MEMOS = weakref.WeakKeyDictionary()


def borel_memos(ctx):
    """(grids, images) of ctx, the memos of `grid` and `image`."""
    return _BOREL_MEMOS.setdefault(ctx, ({}, {}))


def delta_scalars(ctx, P: Polynomial, max_len=None, modulus=None):
    """Constant terms of Delta_w(P) for every rep w, sharing chain prefixes.

    P may be inhomogeneous: the constant term of Delta_w(P) picks out
    exactly the degree-l(w) component's contribution.  Each length layer
    of the table is computed from the previous one through the BFS
    parents, so only two layers of polynomials are alive at a time.
    With a prime modulus every layer is reduced mod p (exact: D_i is integral).
    """
    ct = ctx.ct
    dmax = P.degree() if max_len is None else min(P.degree(), max_len)
    out = {}
    layer = {0: P}
    for length in range(dmax + 1):
        if length:
            layer = {k: layer[ct.parent[k]].divided_difference(ct.parent_label[k] - 1, modulus)
                     for k in ct.of_length(length)}
        for k, q in layer.items():
            c = q.terms.get(0, 0)  # the packed key of the constant monomial
            if c:
                out[k] = c
    return out


def char_map_graded(ctx, P: Polynomial, ring="Q", max_codim=None):
    """Characteristic image of a possibly inhomogeneous invariant P.

    Returns {degree: ChowClass}; each graded piece of P of degree d
    contributes at codimension d via index w -> dual index.
    """
    scalars = delta_scalars(ctx, P, max_len=max_codim, modulus=ring_modulus(ring))
    graded = {}
    for k, c in scalars.items():
        d = ctx.ct.length(k)
        graded.setdefault(d, {})[ctx.ct.dual_index(k)] = c
    return {
        d: ChowClass(ctx.rs.type.name(), ctx.theta, ring, coeffs)
        for d, coeffs in sorted(graded.items())
    }


def _grid_products(ctx, d):
    """Exponent vectors of the candidate products for grid(ctx, d), in the order tried.

    c is a ring map onto CH tensor Q, so CH^d tensor Q is spanned by the
    pivots of grid(d - deg g_j) times g_j.  Generators are taken in order
    (base weights first) and repeats dropped; grid(0) has the one candidate 1.
    """
    gens = invariant_generators(ctx.rs, ctx.theta)
    if d == 0:
        return [(0,) * len(gens)]
    return list(dict.fromkeys(
        exps[:j] + (exps[j] + 1,) + exps[j + 1:]
        for j, g in enumerate(gens) if g.degree() <= d
        for exps in grid(ctx, d - g.degree())[0]
    ))


def _product_poly(ctx, exps):
    gens = invariant_generators(ctx.rs, ctx.theta)
    P = Polynomial.one(ctx.rs)
    for j, e in enumerate(exps):
        for _ in range(e):
            P = P * gens[j]
    return P


def image(ctx, exps):
    """Delta sweep of the generator monomial g^exps, {rep index: scalar}, memoized.

    g^exps is homogeneous, so only reps of length sum(exps * deg g)
    appear; the grids and the product route share these entries.
    """
    images = borel_memos(ctx)[1]
    hit = images.get(exps)
    if hit is None:
        hit = images[exps] = delta_scalars(ctx, _product_poly(ctx, exps))
    return hit


def grid(ctx, d):
    """Pivot products spanning CH^d tensor Q, with a solver for preimages.

    The candidates, each a pivot of a lower grid times one generator
    (_grid_products), are imaged one by one through one integer
    elimination until the images span; the rest are never touched.
    Returns (pivots, D, A): pivots[j] = exps_j, the exponent
    vector of the pivot product P_j, and A = D M^-1 is integral for M the
    image matrix of the pivots (row j is the image of P_j).  Columns are
    the codim-d layer of the table: basis index k is column
    k - ct.of_codim(d).start.
    A M = D I is re-verified exactly against the raw images before the
    grid is stored, which certifies char_map of every preimage built
    from it (char_map is linear).
    """
    grids = borel_memos(ctx)[0]
    hit = grids.get(d)
    if hit is not None:
        return hit
    layer = ctx.ct.of_codim(d)
    n = len(layer)
    pivots = []       # exponent vectors of the pivot products
    images = []       # integer image vector over the codim-d layer, one per pivot
    elim = _Echelon(n)
    for exps in _grid_products(ctx, d):
        vec = [0] * n
        for k, c in image(ctx, exps).items():
            vec[ctx.ct.dual_index(k) - layer.start] = c
        if elim.add(vec):
            pivots.append(exps)
            images.append(vec)
            if len(pivots) == n:
                break
    if len(pivots) < n:
        raise InternalComputationError(
            f"invariant products do not span CH^{d} (rank {len(pivots)} < {n})"
        )
    D, A = elim.inverse()
    for t in range(n):
        for s in range(n):
            if sum(A[t][j] * images[j][s] for j in range(n)) != (D if s == t else 0):
                raise InternalComputationError("preimage verification failed")
    grids[d] = (pivots, D, A)
    return grids[d]


def pivot_coords(ctx, cls: ChowClass):
    """(den, [(exps_j, x_j)]): char_map(sum_j x_j g^exps_j) = den * cls.

    cls must be homogeneous and nonzero; only the nonzero integers x_j
    are listed.  A Z/p coefficient is read as its integer representative
    in [0, p) (any lift works, c is functorial in coefficients).  With L
    the common denominator of the coefficients, den = D L and
    x = sum_k L c_k A[k - start] over the pivot products (pivots, D, A)
    of grid(d), d = codim cls, whose columns start at ct.of_codim(d).start.
    """
    d = cls.codim(ctx.ct)
    pivots, D, A = grid(ctx, d)
    start = ctx.ct.of_codim(d).start
    L, ints = _integral(cls)
    x = [0] * len(pivots)
    for k, c in ints.items():
        for j, a in enumerate(A[k - start]):
            x[j] += c * a
    return D * L, [(exps, xj) for exps, xj in zip(pivots, x) if xj]


def preimage_of(ctx, cls: ChowClass):
    """(den, U): an integer polynomial U with char_map(U / den) = cls.

    den > 0 and gcd(den, content U) = 1; cls must be homogeneous.
    U = sum_j x_j P_j over the pivot products of pivot_coords, with the
    common content of den and U divided out.
    """
    if cls.is_zero():
        return 1, Polynomial.zero(ctx.rs)
    den, coords = pivot_coords(ctx, cls)
    acc = {}
    for exps, xj in coords:
        for m, c in _product_poly(ctx, exps).terms.items():
            acc[m] = acc.get(m, 0) + xj * c
    g = gcd(den, *acc.values())
    return den // g, Polynomial(ctx.rs, {m: c // g for m, c in acc.items() if c})


def char_map(rs, theta, u: Polynomial) -> ChowClass:
    """The map c(u) = sum Delta_w(u) [X_{w0 w wt}] for homogeneous invariant u."""
    ctx = flag_context(rs, theta)
    if not is_homogeneous(u):
        raise UsageError("char_map requires a homogeneous polynomial")
    if not u.is_invariant_under(ctx.theta):
        raise UsageError("polynomial is not W_Theta-invariant")
    if u.is_zero() or u.degree() > ctx.dim:
        return ChowClass(rs.type.name(), ctx.theta, "Q", {})
    graded = char_map_graded(ctx, u)
    cls = graded.get(u.degree(), ChowClass(rs.type.name(), ctx.theta, "Q", {}))
    if all(not isinstance(c, Fraction) or c.denominator == 1 for c in cls.coeffs.values()):
        return ChowClass(cls.type_name, cls.theta, "Z", cls.coeffs)
    return cls


def preimage(cls: ChowClass) -> Polynomial:
    """A W_Theta-invariant polynomial u with char_map(u) = cls.

    u = U / den for the integer pair (den, U) of preimage_of, whose grid
    re-verifies its solve exactly; mod-p classes are lifted to integer
    representatives (any lift works, c is functorial in coefficients).
    """
    rs = build_root_system(cls.type_name)
    den, U = preimage_of(flag_context(rs, cls.theta), cls)
    return U.scale(Fraction(1, den)) if den > 1 else U


def pieri_multiply(rs, alpha: int, w: WeylElement) -> ChowClass:
    """Chevalley/Pieri product [X_{w0 s_alpha}] * [X_w] on the full flag variety.

    Runs over positive roots beta with l(w s_beta) = l(w) - 1; the
    coefficient is <beta^vee, omega_alpha>.
    """
    checked_vertices(rs.rank, (alpha,), "divisor index")
    ct = coset_reps(rs, ())
    out = {}
    for pr in rs.positive_roots:
        pairing_rho = sum(pr.coroot)  # <rho, beta^vee>
        v = tuple(r - pairing_rho * o for r, o in zip(rs.rho, pr.omega))
        word = _canonical_from_image(rs, w.act(v))  # canonical word of w s_beta
        if len(word) != w.length - 1:
            continue
        coeff = pr.coroot[alpha - 1]  # <beta^vee, omega_alpha>
        if coeff:
            k = ct.index[word]
            out[k] = out.get(k, 0) + coeff
    return ChowClass(rs.type.name(), (), "Z", out)


def _substitute_total_square_mod2(P: Polynomial) -> Polynomial:
    """x^e |-> prod_j x_j^{e_j} (1+x_j)^{e_j} mod 2 (the image of S on divisors)."""
    rs = P.rs
    out = Polynomial.zero(rs)
    for e, c in P.terms.items():
        if c % 2 == 0:
            continue
        acc = Polynomial.one(rs)
        for j, ej in enumerate(unpack_monomial(e, rs.rank)):
            if not ej:
                continue
            piece = Polynomial.zero(rs)
            for t in range(ej + 1):
                if comb(ej, t) % 2:
                    exps = [ej + t if k == j else 0 for k in range(rs.rank)]
                    piece = piece + Polynomial.monomial(rs, exps)
            acc = reduce_mod(acc * piece, 2)
        out = reduce_mod(out + acc, 2)
    return out


def steenrod_divisor_generated(rs, idx):
    """Closed-form total Steenrod square {i: S^i} of a basis class of a full flag
    variety whose mod-2 Chow ring is generated by divisors (type A): S(h) = h + h^2
    substituted into a preimage."""
    ct = coset_reps(rs, ())
    cls = ChowClass(rs.type.name(), (), "Z", {idx: 1})
    den, iu = preimage_of(flag_context(rs, ()), cls)
    if den % 2 == 0:
        raise InternalComputationError("oracle needs an odd-denominator preimage")
    subbed = _substitute_total_square_mod2(reduce_mod(iu, 2))
    graded = {}
    for d, piece in graded_parts(subbed).items():
        img = char_map(rs, (), piece)
        img2 = ChowClass(rs.type.name(), (), "Z/2", img.coeffs)
        if not img2.is_zero():
            graded[d - ct.codim(idx)] = img2
    return graded


def bs_nu_by_reflections(rs, word):
    """nu_j of the Bott-Samelson ring of a reduced word, for every j: the positions
    k < j, decreasing, where <s_{i_{k+1}} ... s_{i_{j-1}}(alpha_{i_j}), alpha_{i_k}^vee>
    is odd, reflecting the weight one letter at a time as a coordinate tuple."""
    nu = []
    for j in range(len(word)):
        mu = rs.alpha_omega(word[j] - 1)
        odd = []
        for k in range(j - 1, -1, -1):
            if mu[word[k] - 1] % 2:
                odd.append(k)
            mu = rs.reflect_weight(word[k] - 1, mu)
        nu.append(tuple(odd))
    return nu


def is_reduced_by_reflections(rs, word):
    """Whether each letter of word, appended in turn, goes up in length: the letter's
    coordinate of the image of rho so far, a coordinate tuple, is positive."""
    y = rs.rho
    for i in word:
        if y[i - 1] < 0:
            return False
        y = rs.reflect_weight(i - 1, y)
    return True


def multiply_by_preimage_product(ctx, a, b, k, ring):
    """a * b from one delta sweep of the product of the two preimage polynomials.

    `_multiply_poly_route` assembles the same product from memoized images of
    generator monomials, without multiplying polynomials.
    """
    da, A = preimage_of(ctx, a)
    db, B = preimage_of(ctx, b)
    scalars = delta_scalars(ctx, A * B, max_len=k)
    coeffs = {}
    for idx, c in scalars.items():
        if ctx.ct.reps[idx].length == k:
            coeffs[ctx.ct.dual_index(idx)] = Fraction(c, da * db)
    return ChowClass(a.type_name, a.theta, ring, coeffs)


# --- the Borel route: products and Chern classes through invariant polynomials ------
# The package multiplies and takes Chern classes by localization at the fixed
# points (`_FlagContext.solve`); these are its former routes, kept to check it.


def elementary_symmetric_classes(rs, forms, max_degree, modulus=None):
    """e_0..e_max of the given linear forms (omega-coordinate tuples), as Polynomials.

    e_{k-1} * gamma is added into the terms of e_k in place, top degree first.  With
    a prime modulus p the forms and each sum are reduced mod p (Z -> Z/p is a ring
    map); a zero sum is deleted, and a new key never sums to 0 (c, g != 0, p prime).
    """
    gammas = [[(_unit(rs, j), g) for j, c in enumerate(coords) if (g := c % modulus if modulus else c)]
              for coords in forms]
    es = [{0: 1}] + [{} for _ in range(max_degree)]
    # equal forms side by side: their factors collapse early, e.g. (1 + gamma t)^2 = 1 + gamma^2 t^2 mod 2
    for gamma in sorted(filter(None, gammas)):
        for k in range(max_degree, 0, -1):
            src, dst = es[k - 1], es[k]
            get = dst.get
            if modulus:
                for m, c in src.items():
                    for u, g in gamma:
                        key = m + u
                        if v := (get(key, 0) + c * g) % modulus:
                            dst[key] = v
                        else:
                            del dst[key]
            else:
                for m, c in src.items():
                    for u, g in gamma:
                        key = m + u
                        if v := get(key, 0) + c * g:
                            dst[key] = v
                        else:
                            del dst[key]
    return [Polynomial(rs, t) for t in es]


def elementary_symmetric_by_recurrence(values, top):
    """[e_0, ..., e_top] of the integers `values`: e_k += e_(k-1) g for each g, top
    degree first, the recurrence the localization route used before it packed the
    degrees into one integer."""
    es = [1] + [0] * top
    for g in values:
        for k in range(top, 0, -1):
            es[k] += es[k - 1] * g
    return es


def chern_classes_by_polynomials(ctx, max_codim=None, ring="Z"):
    """c_0 .. c_max_codim of the tangent bundle: the characteristic image of the e_k
    of the unipotent roots' linear forms, one delta sweep of their sum."""
    top = ctx.dim if max_codim is None else min(max_codim, ctx.dim)
    forms = [pr.omega for pr in ctx.unipotent_roots]
    es = elementary_symmetric_classes(ctx.rs, forms, top, ring_modulus(ring))
    # the e_k have distinct degrees, so their terms never collide
    total = Polynomial(ctx.rs, {m: c for e in es for m, c in e.terms.items()})
    graded = char_map_graded(ctx, total, ring=ring, max_codim=top)
    empty = ChowClass(ctx.rs.type.name(), ctx.theta, ring, {})
    return [graded.get(d, empty) for d in range(top + 1)]


def multiply_by_borel(a, b):
    """Product in CH*(G/P_Theta), one _multiply_homogeneous per pair of graded parts."""
    _check_compatible(a, b)
    ctx = flag_context(build_root_system(a.type_name), a.theta)
    if a.is_zero() or b.is_zero():
        return ChowClass(a.type_name, a.theta, a.ring, {})
    parts_a = _graded_parts(a, ctx)
    parts_b = _graded_parts(b, ctx)
    total = ChowClass(a.type_name, a.theta, a.ring, {})
    for da, ca in parts_a.items():
        for db, cb in parts_b.items():
            total = total + _multiply_homogeneous(ctx, ca, cb, da, db)
    return total


def _graded_parts(cls, ctx):
    by_codim = {}
    for k, c in cls.coeffs.items():
        by_codim.setdefault(ctx.ct.codim(k), {})[k] = c
    return {d: ChowClass(cls.type_name, cls.theta, cls.ring, cf) for d, cf in by_codim.items()}


def _multiply_homogeneous(ctx, a, b, da, db):
    """a * b for nonzero homogeneous factors of codimensions da and db.

    Each route sweeps generator monomials of one degree: da + db for the
    polynomial route, dim - max(da, db) for the pairing route; the lower
    degree wins, a tie goes to the polynomial route.
    """
    if da + db > ctx.dim:
        return ChowClass(a.type_name, a.theta, a.ring, {})
    if da + db <= ctx.dim - max(da, db):
        return _multiply_poly_route(ctx, a, b)
    return _multiply_by_pairings(ctx, a, b, da, db)


def _pairing(ctx, a, b):
    """Coefficient of the point class in a product of complementary classes.

    Not reduced mod p: the ChowClass it is stored in reduces it.
    """
    total = 0
    for k, c in a.coeffs.items():
        d = b.coeffs.get(ctx.ct.dual_index(k))
        if d:
            total += c * d
    return total


def _multiply_poly_route(ctx, a, b):
    """a * b = sum x_j y_l c(g^(e_j + e_l)) / (den_a den_b), from memoized monomial images.

    The caller passes nonzero homogeneous factors of codimensions da and db
    with da + db <= dim - max(da, db): the images it reads, of degree
    da + db, are no higher than those the pairing route would read.
    """
    return _product_from_coords(ctx, a, pivot_coords(ctx, a), pivot_coords(ctx, b))


def _product_from_coords(ctx, like, coords_a, coords_b):
    """The product of two classes from their pivot coordinates (den, [(exps, x)]).

    The result lives on the variety of `like`, over its ring.
    """
    da, xs = coords_a
    db, ys = coords_b
    weights = {}  # exponent vector of g^(e_j + e_l) -> sum of x_j y_l
    for ea, x in xs:
        for eb, y in ys:
            e = tuple(p + q for p, q in zip(ea, eb))
            weights[e] = weights.get(e, 0) + x * y
    totals = {}
    for e, w in weights.items():
        if w:
            for idx, c in image(ctx, e).items():
                totals[idx] = totals.get(idx, 0) + w * c
    den = da * db
    coeffs = {ctx.ct.dual_index(idx): Fraction(c, den) for idx, c in totals.items() if c}
    return ChowClass(like.type_name, like.theta, like.ring, coeffs)


def _multiply_by_pairings(ctx, a, b, da, db):
    """Assemble a product from duality pairings.

    coeff of [X_v] in a*b is deg(a * (b * [Z_v])) for da >= db; the inner
    product has codimension dim - da, below da + db whenever the caller
    picks this route, and is assembled from pivot coordinates, those of b
    solved once for every v.  A complementary pair has the one v = point,
    [Z_pt] the fundamental class, so it is the pairing of a with b.
    """
    if da < db:
        a, b, da, db = b, a, db, da
    coords_b = pivot_coords(ctx, b)
    out = {}
    for v in ctx.ct.of_codim(da + db):
        zv = ChowClass(a.type_name, a.theta, a.ring, {ctx.ct.dual_index(v): 1})
        out[v] = _pairing(ctx, a, _product_from_coords(ctx, a, coords_b, pivot_coords(ctx, zv)))
    return ChowClass(a.type_name, a.theta, a.ring, out)


def coset_bfs_by_tuples(rs, theta):
    """The coset BFS on tuple lambda-points: (points, parent, parent_label, graded counts).

    points lists the lambda_Theta-images in table order.  The package runs
    the same search on packed points.
    """
    theta_set = set(theta)
    lam = tuple(0 if (j + 1) in theta_set else 1 for j in range(rs.rank))
    points = {lam: 0}
    order = [lam]
    parent = [-1]
    parent_label = [0]
    counts = []
    start = 0
    while start < len(order):
        end = len(order)
        counts.append(end - start)
        for i in range(rs.rank):
            for k in range(start, end):
                p = order[k]
                if p[i] > 0:
                    q = rs.reflect_weight(i, p)
                    if q not in points:
                        points[q] = len(order)
                        order.append(q)
                        parent.append(k)
                        parent_label.append(i + 1)
        start = end
    return order, tuple(parent), tuple(parent_label), tuple(counts)


def coset_table_by_membership_probe(rs, theta):
    """A CosetTable whose BFS arrays come from the membership-probe search on packed points.

    Every ascent q = s_i p is looked up in the dict of the points seen so
    far and kept when it is new, so the point index is built eagerly; the
    package keeps q only from its canonical parent and builds the index on
    first lookup.  The table's packing, w0 and w_theta are the package's own.
    """
    ct = CosetTable(rs, theta)
    points = {ct._lam: 0}
    order = [ct._lam]
    parent = [-1]
    parent_label = [0]
    layers = [0]
    start = 0
    while start < len(order):
        end = len(order)
        layers.append(end)
        for i in range(rs.rank):
            for k in range(start, end):
                pi, q = ct._step(order[k], i)
                if pi > 0 and q not in points:
                    points[q] = len(order)
                    order.append(q)
                    parent.append(k)
                    parent_label.append(i + 1)
        start = end
    ct.parent, ct.parent_label, ct._layers = tuple(parent), tuple(parent_label), tuple(layers)
    ct._order, ct._points = tuple(order), points
    return ct


def words_by_greedy_descent(rs, order):
    """Canonical word of every tuple point, by greedy descent to order[0] = lambda_Theta.

    At each point the least i with p_i < 0 is the next letter; the package
    instead puts one label in front of the BFS parent's word.
    """
    lam = order[0]
    words = []
    for p in order:
        word = []
        while p != lam:
            i = next(i for i, pi in enumerate(p) if pi < 0)
            word.append(i + 1)
            p = rs.reflect_weight(i, p)
        words.append(tuple(word))
    return tuple(words)


def hasse_edges_by_tuples(rs, order):
    """Sorted edges (k, pos(s_i p), i + 1) for every tuple point p = order[k] with p_i > 0."""
    points = {p: k for k, p in enumerate(order)}
    edges = []
    for k, p in enumerate(order):
        for i, pi in enumerate(p):
            if pi > 0:
                m = points.get(rs.reflect_weight(i, p))
                if m is None:
                    raise InternalComputationError("an ascent leaves the coset table")
                edges.append((k, m, i + 1))
    return tuple(sorted(edges))


def table_edges_by_tuples(ct):
    """hasse_edges_by_tuples on the table's reps, their lambda_Theta-images taken as tuples."""
    lam = tuple(0 if j + 1 in ct.theta else 1 for j in range(ct.rs.rank))
    return hasse_edges_by_tuples(ct.rs, [apply_word(ct.rs, w, lam) for w in ct.words])


def dual_table_by_tuples(rs, order, w0):
    """Position of w0(p) for every tuple point p, with w0 as the matrix of its omega images."""
    rank = rs.rank
    points = {p: k for k, p in enumerate(order)}
    cols = [w0.act(tuple(int(i == j) for i in range(rank))) for j in range(rank)]
    rows = [[(j, c[i]) for j, c in enumerate(cols) if c[i]] for i in range(rank)]
    dual = []
    for p in order:
        k_dual = points.get(tuple(sum(c * p[j] for j, c in row) for row in rows))
        if k_dual is None:
            raise InternalComputationError("w0 maps a coset point outside the orbit")
        dual.append(k_dual)
    return tuple(dual)


def decompose_by_hasse_dfs(rs, theta, circled):
    """Motive summands as connected components of the cut Hasse diagram, by DFS.

    Builds every Hasse edge and an adjacency list; the package reads the
    same components off the coset table by descent along uncircled labels.
    """
    circled = set(circled)
    ct = coset_reps(rs, theta)
    adj = {v: [] for v in range(len(ct))}
    for a, b, label in chain.from_iterable(hasse_edges(ct)):
        if label not in circled:
            adj[a].append(b)
            adj[b].append(a)
    kernel = root_subsystem(rs, sorted(set(range(1, rs.rank + 1)) - circled))
    seen = set()
    out = []
    for start in range(len(ct)):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        codims = sorted(ct.codim(v) for v in comp)
        twist = codims[0]
        profile = [0] * (codims[-1] - twist + 1)
        for c in codims:
            profile[c - twist] += 1
        out.append(MotiveSummand(vertices=tuple(sorted(comp)), twist=twist,
                                 profile=tuple(profile), kernel_type=kernel))
    out.sort(key=lambda s: (s.twist, s.profile, s.vertices))
    return out


# --- reference renderers ------------------------------------------------------
# Each builds the payload from WeylElement reps and serializes it with
# json.dumps(sort_keys=True) or plain f-strings; the package prints the same
# bytes from the coset table's word text.


def cosets_by_json_dumps(ct):
    """`cosets` output: the table's reps with their lengths and codimensions."""
    dim = ct.max_length
    return json.dumps(
        {
            "type": ct.rs.type.name(),
            "theta": list(ct.theta),
            "count": len(ct),
            "dim": dim,
            "reps": [
                {"word": list(w.word), "length": len(w.word), "codim": dim - len(w.word)}
                for w in ct.reps
            ],
        },
        sort_keys=True,
    )


def hasse_json_by_json_dumps(ct):
    payload = {
        "type": ct.rs.type.name(),
        "theta": list(ct.theta),
        "vertices": [
            {"word": list(w.word), "length": w.length} for w in ct.reps
        ],
        "edges": [{"from": a, "to": b, "label": i} for a, b, i in table_edges_by_tuples(ct)],
    }
    return json.dumps(payload, sort_keys=True)


def hasse_dot_by_fstrings(ct):
    lines = ["digraph hasse {"]
    for k, w in enumerate(ct.reps):
        label = f"{list(w.word)} ({w.length})"
        lines.append(f'  n{k} [label="{label}"];')
    for a, b, i in table_edges_by_tuples(ct):
        lines.append(f'  n{a} -> n{b} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines)


def decomposition_json_by_json_dumps(rs, theta, circled, rost=False):
    summands = decompose(rs, theta, circled)
    ct = coset_reps(rs, theta)
    payload = {
        "type": rs.type.name(),
        "theta": list(ct.theta),
        "circled": sorted(set(circled)),
        "kernel": summands[0].kernel_type.name() if summands else "1",
        "summands": [
            {
                "twist": s.twist,
                "profile": list(s.profile),
                "kernel_type": s.kernel_type.name() if not s.is_lefschetz else "1",
                "vertices": [list(ct.reps[v].word) for v in s.vertices],
            }
            for s in summands
        ],
    }
    if rost:
        payload["rost_twists"] = refine_rost(summands)
    return json.dumps(payload, sort_keys=True)


def decomposition_dot_by_fstrings(rs, theta, circled):
    ct = coset_reps(rs, theta)
    summands = decompose(rs, theta, circled)
    colors = ["red", "blue", "green", "orange", "purple", "brown", "cyan",
              "magenta", "gray", "olive", "pink", "navy"]
    color_of = {}
    for n, s in enumerate(summands):
        for v in s.vertices:
            color_of[v] = colors[n % len(colors)]
    circled = set(circled)
    lines = ["digraph motive {"]
    for v, w in enumerate(ct.reps):
        lines.append(
            f'  n{v} [label="{list(w.word)} ({w.length})", color={color_of[v]}];'
        )
    for a, b, label in table_edges_by_tuples(ct):
        if label in circled:
            lines.append(f'  n{a} -> n{b} [label="{label}", style=dotted];')
        else:
            lines.append(f'  n{a} -> n{b} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


# --- the classification as if-ladders, the references for the tables in titsjinv ---


_KERNEL_REALIZATION = {
    # type -> kernel name -> circled subset
    "F4": {"F4": (), "B3": (4,), "1": (1, 2, 3, 4)},
    "E6": {"E6": (), "D4": (1, 6), "A2xA2": (2, 4), "1": (1, 2, 3, 4, 5, 6)},
    "E7": {"E7": (), "E6": (7,), "D6": (1,), "D4": (1, 6, 7), "1": (1, 2, 3, 4, 5, 6, 7)},
}


def higher_index_table_by_ladder(type_name: str, invariants: dict) -> HigherIndexSet:
    """Kernel sets of the published table, realized as circled subsets.

    invariants:
      F4: {"J2_trivial": bool}
      E6: {"J2_trivial": bool, "J3_j1_nonzero": bool}
      E7 (trivial Tits algebras): {"J2_trivial": bool, "J3_trivial": bool,
                                   "has_zero_cycle": bool}
    """
    dtype = DynkinType.parse(type_name)
    real = _KERNEL_REALIZATION.get(type_name)
    if real is None:
        raise UsageError(f"no higher-index table for type {type_name}")
    if type_name == "F4":
        kernels = ["1", "F4"] if invariants.get("J2_trivial", True) else ["1", "B3", "F4"]
    elif type_name == "E6":
        j2 = not invariants.get("J2_trivial", True)
        j1of3 = invariants.get("J3_j1_nonzero", False)
        kernels = ["1", "E6"]
        if j1of3:
            kernels.insert(1, "A2xA2")
        if j2:
            kernels.insert(-1, "D4")
    else:  # E7, the last type with a realization
        kernels = ["1", "E7"]
        if not invariants.get("J2_trivial", True):
            kernels.insert(1, "D4")
        if not invariants.get("J3_trivial", True):
            kernels.insert(-1, "E6")
        if not invariants.get("has_zero_cycle", True):
            kernels.insert(-1, "D6")
    return HigherIndexSet.build(dtype, [real[k] for k in kernels])


def simple_kac_pairs_by_ladder(family, rank, p):
    """Transcribed p-exceptional degree data (adjoint forms), split into
    (d, k) with d coprime to p.  Only torsion primes yield entries."""
    if family == "A":
        # PGL_{rank+1}: one degree-1 generator when p | rank+1
        v = _v_p(rank + 1, p)
        return [(1, v)] if v else []
    if family == "B" and p == 2:
        # SO_{2n+1}: generators x_d for odd d <= m - 2, truncated at d 2^k >= m - 1
        m = 2 * rank + 1
        pairs = []
        for d in range(1, m - 1, 2):
            pairs.append((d, _doublings(d, m - 1)))
        return pairs
    if family == "D" and p == 2:
        # transcription for the isogeny forms arising as kernels inside E7
        # (half-spin-compatible): degrees {1} and odd 3..n-1, so D4 -> {1,3}
        # and D6 -> {1,3,5}
        pairs = [(1, 1)]
        for d in range(3, rank, 2):
            pairs.append((d, _doublings(d, 2 * rank - 2)))
        return pairs
    if family == "C" and p == 2:
        raise UsageError("mod-2 data for adjoint C-type groups is not transcribed")
    if family == "G" and p == 2:
        return [(3, 1)]
    if family == "F":
        if p == 2:
            return [(3, 1)]
        if p == 3:
            return [(4, 1)]
    if family == "E" and rank == 6:
        if p == 2:
            return [(3, 1)]
        if p == 3:
            return [(1, 1), (4, 1)]
    if family == "E" and rank == 7:
        if p == 2:
            return [(1, 1), (3, 1), (5, 1), (9, 1)]
        if p == 3:
            return [(4, 1)]
    if family == "E" and rank == 8:
        if p == 2:
            return [(3, 3), (5, 2), (9, 1), (15, 1)]
        if p == 3:
            return [(4, 1), (10, 1)]
        if p == 5:
            return [(6, 1)]
    return []


def is_generically_split_by_ladder(type_name: str, vertex: int, profiles: dict) -> bool:
    """profiles: {p: tuple}; missing primes are treated as trivial profiles.

    The 8 published rows say when the variety of parabolics of type `vertex`
    is NOT generically split; everything unmatched is generically split.
    """
    dtype = DynkinType.parse(type_name)
    if dtype.components not in {(("F", 4),), (("E", 6),), (("E", 7),), (("E", 8),)}:
        raise UsageError("classification covers F4, E6, E7, E8 only")
    checked_vertices(dtype.rank, (vertex,))
    j2 = tuple(profiles.get(2, ()))
    j3 = tuple(profiles.get(3, ()))

    def nz(t, i):
        return len(t) > i and t[i] != 0

    name = type_name
    if name == "F4" and vertex == 4 and j2 == (1,):
        return False
    if name == "E6" and vertex in (1, 6) and j2 == (1,):
        return False
    if name == "E6" and vertex in (2, 4) and nz(j3, 0):
        return False
    if name == "E7" and vertex in (1, 3, 4, 6) and nz(j2, 0):
        return False
    if name == "E7" and vertex in (1, 6, 7) and nz(j2, 1):
        return False
    if name == "E7" and vertex == 7 and j3 == (1,):
        return False
    if name == "E8" and vertex in (1, 6, 7, 8) and nz(j2, 0):
        return False
    if name == "E8" and vertex in (7, 8) and nz(j3, 0) and j3[0] == 1:
        return False
    return True
