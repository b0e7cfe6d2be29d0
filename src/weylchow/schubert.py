"""The Chow ring of G/P_Theta in the Schubert basis.

Basis classes [X_w] are indexed by positions in the CosetTable of W^Theta;
codim [X_w] = dim X - l(w), so index 0 (the identity) is the point class
and the longest representative is the fundamental class.

Multiplication follows the characteristic-map procedure: write both
factors as combinations of products g^e of W_Theta-invariant generator
polynomials, multiply those combinations, and push back through the
characteristic map

    c(u) = sum over w in W^Theta with l(w) = deg u of Delta_w(u) [X_{w0 w wt}].

The generators are integral, so the images of the monomials g^e are integer
vectors; one fraction-free elimination per degree picks the pivot products
and gives D M^-1 for their image matrix M, and a preimage is an integer
combination of pivot products over one denominator.  c is linear, so a
product sum x_j y_l g^(e_j + e_l) maps to sum x_j y_l c(g^(e_j + e_l)): the
image of each generator monomial is swept once per flag variety and every
product is assembled from those images, with no polynomial product.

A product of codimensions da and db is read either from the images of
degree da + db (the polynomial route) or from duality pairings
deg(a * (b * [Z_v])), whose inner products need images of degree
dim - max(da, db) (the pairing route); it takes the route of lower
degree, the polynomial route on a tie.

Divided-difference chains Delta_w share work across w: canonical words are
built by the coset BFS as (letter) + parent word, so Delta_w(u) =
Delta_letter(Delta_parent(u)) and one sweep over the table computes every
chain, one length layer of the table at a time.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm

from .errors import InternalComputationError, ResourceLimitError, UsageError
from .polynomial import Polynomial, elementary_symmetric_classes
from .rootdata import (
    Record, RootSystem, build_root_system, ring_modulus, root_subsystem, weyl_degrees,
)
from .weyl import CosetTable, WeylElement, _canonical_from_image, checked_word, coset_reps


# ---------------------------------------------------------------------------
# Chow classes


class ChowClass(Record):
    """A sparse element of CH*(G/P_Theta) over the Schubert basis.

    Immutable, and normalized when built: over Z/p every coefficient is
    reduced into [0, p) (a Fraction through the inverse of its denominator),
    over Z an integral Fraction becomes an int, over Q values are kept as
    given, and zero coefficients are dropped.
    """

    __slots__ = (
        "type_name",
        "theta",
        "ring",                   # "Z", "Q", or "Z/p"
        "coeffs",                 # basis index -> coefficient
    )

    def __init__(self, type_name: str, theta: tuple, ring: str, coeffs: dict):
        p = ring_modulus(ring)
        out = {}
        for k, c in coeffs.items():
            if p is not None:
                if isinstance(c, Fraction):
                    if c.denominator % p == 0:
                        raise InternalComputationError(f"denominator not invertible mod {p}")
                    c = c.numerator * pow(c.denominator, -1, p)
                c = c % p
            elif ring == "Z":
                if isinstance(c, Fraction):
                    if c.denominator != 1:
                        raise InternalComputationError("non-integral coefficient in Z-class")
                    c = int(c)
            if c:
                out[k] = c
        object.__setattr__(self, "type_name", type_name)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", out)

    def is_zero(self):
        return not self.coeffs

    def support_codims(self, ct: CosetTable):
        return {ct.codim(k) for k in self.coeffs}

    def codim(self, ct: CosetTable):
        cds = self.support_codims(ct)
        if len(cds) > 1:
            raise UsageError(f"class is not homogeneous (codims {sorted(cds)})")
        return cds.pop() if cds else None

    def __add__(self, other):
        _check_compatible(self, other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return ChowClass(self.type_name, self.theta, self.ring, out)


def _check_compatible(a: ChowClass, b: ChowClass):
    if a.type_name != b.type_name or a.theta != b.theta:
        raise UsageError("classes live on different varieties")
    if a.ring != b.ring:
        raise UsageError(f"coefficient rings differ: {a.ring} vs {b.ring}")


def class_to_json(cls: ChowClass, ct: CosetTable) -> str:
    terms = [
        {"word": list(ct.words[k]), "coeff": int(c) if not isinstance(c, Fraction) else str(c)}
        for k, c in sorted(cls.coeffs.items())
    ]
    return json.dumps(
        {"type": cls.type_name, "theta": list(cls.theta), "ring": cls.ring, "terms": terms},
        sort_keys=True,
    )


def class_from_json(text: str) -> ChowClass:
    try:
        data = json.loads(text)
        type_name = data["type"]
        theta = data.get("theta", [])
        if not isinstance(theta, list) or any(
            not isinstance(i, int) or isinstance(i, bool) for i in theta
        ):
            raise UsageError(f"theta {theta!r} must be a list of integer vertices")
        theta = tuple(sorted(theta))
        ring = data.get("ring", "Z")
        if not isinstance(ring, str):
            raise UsageError(f"ring {ring!r} must be a string such as \"Z/2\"")
        rs = build_root_system(type_name)
        ct = coset_reps(rs, theta)
        coeffs: dict = {}
        for term in data.get("terms", []):
            word = term["word"]
            k = ct.index.get(checked_word(rs, word))  # checked first: True would hash as 1
            if k is None:  # not the canonical word of a rep: canonicalize and look again
                k = ct.index.get(WeylElement.from_word(rs, word).word)
            if k is None:
                raise UsageError(f"word {word} is not a minimal coset representative")
            dual = term.get("dual", False)
            if not isinstance(dual, bool):
                raise UsageError(f"dual flag {dual!r} must be true or false")
            if dual:
                k = ct.dual_index(k)
            coeffs[k] = coeffs.get(k, 0) + _coefficient_from_json(term.get("coeff", 1))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed class JSON: {exc}") from exc
    p = ring_modulus(ring)
    for c in coeffs.values():
        den = c.denominator if isinstance(c, Fraction) else 1
        if p is not None and den % p == 0:
            raise UsageError(f"coefficient {c} has a denominator that is not invertible in {ring}")
        if ring == "Z" and den != 1:
            raise UsageError(f"coefficient {c} is not an integer, as ring Z requires")
    # the canonical type name and theta, as every class the package builds carries
    return ChowClass(rs.type.name(), ct.theta, ring, coeffs)


def _coefficient_from_json(c):
    """An exact coefficient: a JSON integer or a rational string such as "-3/4"."""
    if isinstance(c, int) and not isinstance(c, bool):
        return c
    if isinstance(c, str):
        try:
            return Fraction(c)
        except ZeroDivisionError:
            raise UsageError(f"coefficient {c!r} has a zero denominator") from None
    raise UsageError(f"coefficient {c!r} must be an integer or a rational string")


# ---------------------------------------------------------------------------
# Duality and Pieri


def dual(ct: CosetTable, w) -> int:
    """Index of w0 w w_theta for w given as a rep index or WeylElement."""
    if isinstance(w, WeylElement):
        k = ct.index.get(w.word)
        if k is None:
            raise UsageError("element is not a minimal coset representative")
    else:
        k = int(w)
    return ct.dual_index(k)


def duality_product(ct: CosetTable, a: int, b: int) -> int:
    """Coefficient of the point class in [X_a][X_b] for complementary codims."""
    if ct.codim(a) + ct.codim(b) != ct.max_length:
        raise UsageError("codimensions are not complementary")
    return 1 if ct.dual_index(a) == b else 0


def pieri_multiply(rs: RootSystem, alpha: int, w: WeylElement) -> ChowClass:
    """Chevalley/Pieri product [X_{w0 s_alpha}] * [X_w] on the full flag variety.

    Runs over positive roots beta with l(w s_beta) = l(w) - 1; the
    coefficient is <beta^vee, omega_alpha>.
    """
    if not 1 <= alpha <= rs.rank:
        raise UsageError(f"divisor index {alpha} out of range")
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


# ---------------------------------------------------------------------------
# Divided differences and the characteristic map


def divided_difference(rs: RootSystem, word, u: Polynomial) -> Polynomial:
    """Delta_{s_{i1}} o ... o Delta_{s_ik} applied to u (word need not be reduced)."""
    for i in reversed(checked_word(rs, word)):
        u = u.divided_difference(i - 1)
    return u


class _FlagContext:
    """Per-(root system, theta) machinery: coset table, generators, preimage grids, memos.

    Codimension layers are read from the coset table (`ct.of_codim`); the
    one product memo is the image of each generator monomial (`image`).
    """

    GRID_LIMIT = 4000  # safety valve on grid enumeration

    def __init__(self, rs: RootSystem, theta):
        self.rs = rs
        self.theta = tuple(sorted(set(theta)))
        self.ct = coset_reps(rs, self.theta)
        self.dim = self.ct.max_length
        self._grid = {}          # degree -> (pivots, D, A)
        self._images = {}        # generator exponents e -> delta sweep of g^e
        # grow-on-demand memo: an entry computed up to bound b serves requests <= b
        self._chern = {}          # ring -> [c_0, ..., c_b]

    # -- invariant generators -----------------------------------------

    @cached_property
    def gens(self):
        return _invariant_generators(self.rs, self.theta)

    # -- delta tree -----------------------------------------------------

    def delta_scalars(self, P: Polynomial, max_len=None, modulus=None):
        """Constant terms of Delta_w(P) for every rep w, sharing chain prefixes.

        P may be inhomogeneous: the constant term of Delta_w(P) picks out
        exactly the degree-l(w) component's contribution.  Each length layer
        of the table is computed from the previous one through the BFS
        parents, so only two layers of polynomials are alive at a time.
        With a prime modulus every layer is reduced mod p (exact: D_i is integral).
        """
        ct = self.ct
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

    def char_map_graded(self, P: Polynomial, ring="Q", max_codim=None):
        """Characteristic image of a possibly inhomogeneous invariant P.

        Returns {degree: ChowClass}; each graded piece of P of degree d
        contributes at codimension d via index w -> dual index.
        """
        scalars = self.delta_scalars(P, max_len=max_codim, modulus=ring_modulus(ring))
        graded = {}
        for k, c in scalars.items():
            d = self.ct.length(k)
            graded.setdefault(d, {})[self.ct.dual_index(k)] = c
        return {
            d: ChowClass(self.rs.type.name(), self.theta, ring, coeffs)
            for d, coeffs in sorted(graded.items())
        }

    # -- preimage grid ----------------------------------------------------

    def _grid_products(self, d):
        """Exponent vectors, one entry per generator, of weighted degree d, sparse first."""
        gens = self.gens
        degs = [g.degree() for g in gens]
        out = []

        def rec(idx, remaining, acc):
            if remaining == 0:
                out.append(tuple(acc) + (0,) * (len(gens) - len(acc)))
                return
            if idx == len(gens):
                return
            step = degs[idx]
            max_e = remaining // step
            for e in range(max_e + 1):
                rec(idx + 1, remaining - e * step, acc + [e])

        rec(0, d, [])
        if len(out) > self.GRID_LIMIT:
            raise ResourceLimitError(
                f"preimage grid of {len(out)} products at degree {d} exceeds {self.GRID_LIMIT}"
            )

        def sparsity(exps):
            heavy = sum(e * degs[j] for j, e in enumerate(exps) if degs[j] > 1)
            return (heavy, sum(1 for j, e in enumerate(exps) if e and degs[j] > 1), exps)

        out.sort(key=sparsity)
        return out

    def _product_poly(self, exps):
        gens = self.gens
        P = Polynomial.one(self.rs)
        for j, e in enumerate(exps):
            for _ in range(e):
                P = P * gens[j]
        return P

    def image(self, exps):
        """Delta sweep of the generator monomial g^exps, {rep index: scalar}, memoized.

        g^exps is homogeneous, so only reps of length sum(exps * deg g)
        appear; the grids and the product route share these entries.
        """
        hit = self._images.get(exps)
        if hit is None:
            hit = self._images[exps] = self.delta_scalars(self._product_poly(exps))
        return hit

    def grid(self, d):
        """Pivot products spanning CH^d tensor Q, with a solver for preimages.

        Products are imaged one by one in sparsity order, through one integer
        elimination, until the images span; the rest of the grid is never
        touched.  Returns (pivots, D, A): pivots[j] = exps_j, the exponent
        vector of the pivot product P_j, and A = D M^-1 is integral for M the
        image matrix of the pivots (row j is the image of P_j).  Columns are
        the codim-d layer of the table: basis index k is column
        k - ct.of_codim(d).start.
        A M = D I is re-verified exactly against the raw images before the
        grid is stored, which certifies char_map of every preimage built
        from it (char_map is linear).
        """
        hit = self._grid.get(d)
        if hit is not None:
            return hit
        layer = self.ct.of_codim(d)
        n = len(layer)
        pivots = []       # exponent vectors of the pivot products
        images = []       # integer image vector over the codim-d layer, one per pivot
        elim = _Echelon(n)
        for exps in self._grid_products(d):
            vec = [0] * n
            for k, c in self.image(exps).items():
                vec[self.ct.dual_index(k) - layer.start] = c
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
        self._grid[d] = (pivots, D, A)
        return self._grid[d]

    def pivot_coords(self, cls: ChowClass):
        """(den, [(exps_j, x_j)]): char_map(sum_j x_j g^exps_j) = den * cls.

        cls must be homogeneous and nonzero; only the nonzero integers x_j
        are listed.  A Z/p coefficient is read as its integer representative
        in [0, p) (any lift works, c is functorial in coefficients).  With L
        the common denominator of the coefficients, den = D L and
        x = sum_k L c_k A[k - start] over the pivot products (pivots, D, A)
        of grid(d), d = codim cls, whose columns start at ct.of_codim(d).start.
        """
        d = cls.codim(self.ct)
        pivots, D, A = self.grid(d)
        start = self.ct.of_codim(d).start
        L = lcm(*(c.denominator for c in cls.coeffs.values()))
        x = [0] * len(pivots)
        for k, c in cls.coeffs.items():
            c = c.numerator * (L // c.denominator)
            for j, a in enumerate(A[k - start]):
                x[j] += c * a
        return D * L, [(exps, xj) for exps, xj in zip(pivots, x) if xj]

    def preimage_of(self, cls: ChowClass):
        """(den, U): an integer polynomial U with char_map(U / den) = cls.

        den > 0 and gcd(den, content U) = 1; cls must be homogeneous.
        U = sum_j x_j P_j over the pivot products of pivot_coords, with the
        common content of den and U divided out.
        """
        if cls.is_zero():
            return 1, Polynomial.zero(self.rs)
        den, coords = self.pivot_coords(cls)
        acc = {}
        for exps, xj in coords:
            for m, c in self._product_poly(exps).terms.items():
                acc[m] = acc.get(m, 0) + xj * c
        g = gcd(den, *acc.values())
        return den // g, Polynomial(self.rs, {m: c // g for m, c in acc.items() if c})

    # -- unipotent radical --------------------------------------------------

    @cached_property
    def unipotent_roots(self):
        """Positive roots with support outside theta: the roots of the unipotent radical.

        W_Theta permutes them (it fixes the theta-span and Phi+ minus the
        simple thetas); this is checked.
        """
        rs = self.rs
        theta_set = set(self.theta)
        U = [pr for pr in rs.positive_roots
             if any(pr.root[j] for j in range(rs.rank) if (j + 1) not in theta_set)]
        uset = {pr.root for pr in U}
        for i in self.theta:
            for pr in U:
                if rs.reflect_root(i - 1, pr.root) not in uset:
                    raise InternalComputationError("unipotent-radical roots not Theta-stable")
        return U

    # -- Chern classes ----------------------------------------------------

    def chern_classes(self, max_codim=None, ring="Z"):
        """Graded Chern classes of the tangent bundle, c_0 .. c_max_codim."""
        if max_codim is not None and max_codim < 0:
            raise UsageError(f"codimension must be nonnegative, got {max_codim}")
        top = self.dim if max_codim is None else min(max_codim, self.dim)
        cached = self._chern.get(ring)
        if cached is not None and len(cached) > top:
            return cached[: top + 1]
        forms = [pr.omega for pr in self.unipotent_roots]
        es = elementary_symmetric_classes(self.rs, forms, top, ring_modulus(ring))
        # the e_k have distinct degrees, so their terms never collide
        total = Polynomial(self.rs, {m: c for e in es for m, c in e.terms.items()})
        graded = self.char_map_graded(total, ring=ring, max_codim=top)
        empty = ChowClass(self.rs.type.name(), self.theta, ring, {})
        out = [graded.get(d, empty) for d in range(top + 1)]
        self._chern[ring] = out
        return out


class _Echelon:
    """Fraction-free Gauss-Jordan elimination over the integers.

    Like Bareiss (Math. Comp. 1968) it never leaves Z, but each row is kept
    primitive by dividing out its content.  The rows are in reduced echelon
    form, keyed by pivot column, and each row [v | a] carries in a the
    combination of the accepted inputs that gives v, so a M = v for M the
    matrix whose j-th row is the j-th accepted input.
    """

    def __init__(self, n):
        self.n = n
        self.rows = {}   # pivot column -> primitive row of 2n ints

    def add(self, vec) -> bool:
        """Insert an integer vector of length n; True if it was independent of the rows so far."""
        n = self.n
        if len(self.rows) == n:  # full rank: every vector is dependent
            return False
        r = list(vec) + [0] * n
        r[n + len(self.rows)] = 1
        for p, row in self.rows.items():
            c = r[p]
            if c:
                r = _primitive([row[p] * x - c * y for x, y in zip(r, row)])
        q = next((i for i in range(n) if r[i]), None)
        if q is None:
            return False
        for p, row in self.rows.items():
            c = row[q]
            if c:
                self.rows[p] = _primitive([r[q] * x - c * y for x, y in zip(row, r)])
        self.rows[q] = r
        return True

    def inverse(self):
        """(D, A) with D > 0 and A = D M^-1 integral, once n inputs are accepted."""
        n = self.n
        if len(self.rows) < n:
            raise InternalComputationError("singular matrix")
        # at full rank row p is [a_p e_p | a_p (row p of M^-1)]
        D = lcm(*(row[p] for p, row in self.rows.items()))
        return D, [[D // row[p] * y for y in row[n:]] for p, row in sorted(self.rows.items())]


def _primitive(row):
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def flag_context(rs: RootSystem, theta) -> _FlagContext:
    """The shared _FlagContext of G/P_Theta (cached per root system and theta)."""
    return _flag_context(rs, tuple(sorted(set(theta))))


@cache
def _flag_context(rs: RootSystem, theta: tuple) -> _FlagContext:
    return _FlagContext(rs, theta)


# ---------------------------------------------------------------------------
# Invariant generators


_CANDIDATE_POINTS = (
    (1, 2, 3, 4, 5, 6, 7, 8),
    (1, 4, 9, 16, 25, 36, 49, 64),
    (2, 3, 5, 7, 11, 13, 17, 19),
)


def _sub_fundamental_seeds(rs: RootSystem, theta):
    """Fundamental weights of <Theta> in ambient omega-coordinates, integer-scaled."""
    theta = tuple(sorted(set(theta)))
    m = len(theta)
    # seed j solves sum_k A[i][k] c_k = delta_ij over i, k in theta: column j of A_Theta^-1,
    # here D A_Theta^-1; dividing by gcd(D, content) leaves the least integer multiple
    elim = _Echelon(m)
    for i in theta:
        elim.add([rs.cartan[i - 1][k - 1] for k in theta])
    D, inv = elim.inverse()
    alphas = [rs.alpha_omega(i - 1) for i in theta]
    seeds = []
    for j in range(m):
        coords = [sum(inv[k][j] * alphas[k][t] for k in range(m)) for t in range(rs.rank)]
        g = gcd(D, *coords)
        seeds.append(tuple(x // g for x in coords))
    return seeds


def _orbit(rs: RootSystem, theta, seed):
    seen = {tuple(seed)}
    frontier = [tuple(seed)]
    while frontier:
        nxt = []
        for v in frontier:
            for i in theta:
                u = rs.reflect_weight(i - 1, v)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return sorted(seen)


def _power_sum_row(orbit, values, d):
    """Jacobian row of p_d = sum_mu (mu.x)^d at a point where mu.x takes the given values.

    d/dx_j p_d = d sum_mu (mu.x)^(d-1) mu_j, an exact integer per j.
    """
    weights = [d * v ** (d - 1) for v in values]
    return [sum(c * mu[j] for c, mu in zip(weights, orbit)) for j in range(len(orbit[0]))]


def _power_sum(rs, orbit, d):
    """p_d = sum over the orbit of (mu.x)^d as a polynomial."""
    total = Polynomial.zero(rs)
    for mu in orbit:
        form = Polynomial.linear_form(rs, mu)
        p = form
        for _ in range(d - 1):
            p = p * form
        total = total + p
    return total


def _invariant_generators(rs: RootSystem, theta):
    """omega_i (i not in theta) plus one invariant per fundamental degree of <Theta>.

    Candidates are orbit power sums p_d of the subsystem's fundamental
    weights, offered slot by slot (degrees ascending, smallest orbit first).
    A candidate fills a slot when its Jacobian row at a fixed test point
    enlarges the rank; that row is computed numerically from the values
    mu.pt, so only the winning power sums are ever expanded as polynomials.
    Each winner's row is recomputed from its polynomial, the final Jacobian
    has rank n (functional independence, hence a generating set by the
    degree-product criterion), and every winner is checked W_Theta-invariant.
    """
    theta = tuple(sorted(set(theta)))
    n = rs.rank
    base = [Polynomial.variable(rs, i) for i in range(1, n + 1) if i not in theta]
    if not theta:
        return base
    slots = sorted(weyl_degrees(root_subsystem(rs, theta)))
    orbits = sorted((_orbit(rs, theta, s) for s in _sub_fundamental_seeds(rs, theta)), key=len)

    for point in _CANDIDATE_POINTS:
        pt = point[:n]
        elim = _Echelon(n)
        for g in base:
            elim.add([g.derivative(j).evaluate(pt) for j in range(n)])
        values = [[sum(m * x for m, x in zip(mu, pt)) for mu in orbit] for orbit in orbits]
        chosen = []
        for d in slots:
            for orbit, vals in zip(orbits, values):
                row = _power_sum_row(orbit, vals, d)
                if elim.add(row):
                    chosen.append((orbit, d, row))
                    break
            else:
                break
        if len(chosen) < len(slots) or len(elim.rows) < n:
            continue
        gens = []
        for orbit, d, row in chosen:
            g = _power_sum(rs, orbit, d)
            if [g.derivative(j).evaluate(pt) for j in range(n)] != row:
                raise InternalComputationError("orbit power sum disagrees with its Jacobian row")
            if not g.is_invariant_under(theta):
                raise InternalComputationError("orbit power sum failed invariance")
            gens.append(g)
        return base + gens
    raise InternalComputationError(
        f"could not assemble invariant generators for theta={list(theta)}"
    )


def invariant_generators(rs: RootSystem, theta):
    return flag_context(rs, theta).gens


# ---------------------------------------------------------------------------
# Public characteristic map / preimage / multiplication


def char_map(rs: RootSystem, theta, u: Polynomial) -> ChowClass:
    """The map c(u) = sum Delta_w(u) [X_{w0 w wt}] for homogeneous invariant u."""
    ctx = flag_context(rs, theta)
    if not u.is_homogeneous():
        raise UsageError("char_map requires a homogeneous polynomial")
    if not u.is_invariant_under(ctx.theta):
        raise UsageError("polynomial is not W_Theta-invariant")
    if u.is_zero() or u.degree() > ctx.dim:
        return ChowClass(rs.type.name(), ctx.theta, "Q", {})
    graded = ctx.char_map_graded(u)
    cls = graded.get(u.degree(), ChowClass(rs.type.name(), ctx.theta, "Q", {}))
    if all(not isinstance(c, Fraction) or c.denominator == 1 for c in cls.coeffs.values()):
        return ChowClass(cls.type_name, cls.theta, "Z", cls.coeffs)
    return cls


def preimage(cls: ChowClass) -> Polynomial:
    """A W_Theta-invariant polynomial u with char_map(u) = cls.

    u = U / den for the integer pair (den, U) of _FlagContext.preimage_of,
    whose grid re-verifies its solve exactly; mod-p classes are lifted to
    integer representatives (any lift works, c is functorial in coefficients).
    """
    rs = build_root_system(cls.type_name)
    den, U = flag_context(rs, cls.theta).preimage_of(cls)
    return U.scale(Fraction(1, den)) if den > 1 else U


def multiply(a: ChowClass, b: ChowClass) -> ChowClass:
    """Product in CH*(G/P_Theta), one _multiply_homogeneous per pair of graded parts."""
    _check_compatible(a, b)
    rs = build_root_system(a.type_name)
    ctx = flag_context(rs, a.theta)
    if a.is_zero() or b.is_zero():
        return ChowClass(a.type_name, a.theta, a.ring, {})
    parts_a = _graded_parts(a, ctx)
    parts_b = _graded_parts(b, ctx)
    total = ChowClass(a.type_name, a.theta, a.ring, {})
    for da, ca in parts_a.items():
        for db, cb in parts_b.items():
            total = total + _multiply_homogeneous(ctx, ca, cb, da, db)
    return total


def _graded_parts(cls: ChowClass, ctx: _FlagContext):
    by_codim = {}
    for k, c in cls.coeffs.items():
        by_codim.setdefault(ctx.ct.codim(k), {})[k] = c
    return {d: ChowClass(cls.type_name, cls.theta, cls.ring, cf) for d, cf in by_codim.items()}


def _poly_limit(dim: int) -> int:
    """The route split the recorded products golden pools were drawn with.

    Only perfbench/record_golden.py reads it; multiplication does not.
    """
    return max((dim + 1) // 2 + 1, 9)


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
    return _product_from_coords(ctx, a, ctx.pivot_coords(a), ctx.pivot_coords(b))


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
            for idx, c in ctx.image(e).items():
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
    coords_b = ctx.pivot_coords(b)
    out = {}
    for v in ctx.ct.of_codim(da + db):
        zv = ChowClass(a.type_name, a.theta, a.ring, {ctx.ct.dual_index(v): 1})
        out[v] = _pairing(ctx, a, _product_from_coords(ctx, a, coords_b, ctx.pivot_coords(zv)))
    return ChowClass(a.type_name, a.theta, a.ring, out)


def pullback_to_flags(cls: ChowClass) -> ChowClass:
    """CH*(G/P) -> CH*(G/B), [X_w] -> [X_{w w_theta}] (a ring injection)."""
    rs = build_root_system(cls.type_name)
    ctx = flag_context(rs, cls.theta)
    flags = coset_reps(rs, ())
    out = {}
    for k, c in cls.coeffs.items():
        w = ctx.ct.reps[k] * ctx.ct.w_theta
        out[flags.index[w.word]] = c
    return ChowClass(cls.type_name, (), cls.ring, out)


def chern_tangent(rs: RootSystem, theta, max_codim=None, ring="Z"):
    """Graded Chern classes of T_{G/P_Theta} via the characteristic map."""
    return flag_context(rs, theta).chern_classes(max_codim=max_codim, ring=ring)
