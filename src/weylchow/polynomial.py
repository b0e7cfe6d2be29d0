"""Sparse multivariate polynomials over exact rationals in the fundamental weights.

A polynomial is a dict {packed monomial: coefficient}; coefficients are
Python ints wherever possible and fractions.Fraction otherwise.  A monomial
x^e in rank n is packed into one int: exponent e_j sits in bits
[BITS*j, BITS*(j+1)) and the total degree in the field above them, so the
key of a product is the sum of the keys, degree() is a shift, and int
order sorts monomials by degree first.  Every monomial has total degree at
most MASK, hence no exponent field can carry into the next; a product or a
constructor that would break this raises InternalComputationError.

The one nonstandard operation is the divided difference D_i(u) =
(u - s_i u)/alpha_i, where s_i substitutes x_i -> x_i - alpha_i (the other
variables are fixed).  On a monomial x_i^k * m' (m' free of x_i) it is the
integer formula

    D_i(x_i^k m') = m' * sum_{j=1..k} (-1)^(j+1) C(k,j) x_i^(k-j) alpha_i^(j-1),

which avoids polynomial division entirely (exactness is structural, so a
direct division routine is kept only as a cross-check in the tests).  It
reads k from the packed key, strips x_i^k from it, and adds the packed
terms of D_i(x_i^k), cached per (root system, i, k).  alpha_i is not a zero
divisor, so s_i u = u exactly when D_i u = 0: invariance is tested that way.

The module also builds the W_Theta-invariant generators of the Borel
presentation (`_invariant_generators`, served cached by
`schubert.invariant_generators`).  No product, Chern class or Steenrod
square reads a polynomial, so only that public name loads this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import count, islice
from math import comb, gcd, lcm

from .errors import InternalComputationError
from .rootdata import RootSystem, is_small_prime, root_subsystem, weyl_degrees

BITS = 8
MASK = (1 << BITS) - 1


def pack_monomial(exps) -> int:
    """The packed key of an exponent vector (one entry per fundamental weight)."""
    key = 0
    for j, k in enumerate(exps):
        if not 0 <= k <= MASK:
            raise InternalComputationError(f"exponent {k} outside the packed field [0, {MASK}]")
        key += k << (BITS * j)
    deg = sum(exps)
    if deg > MASK:
        raise InternalComputationError(f"monomial degree {deg} exceeds the packed limit {MASK}")
    return key + (deg << (BITS * len(exps)))


def unpack_monomial(key: int, rank: int) -> tuple:
    """The exponent vector of a packed key in the given rank."""
    return tuple((key >> (BITS * j)) & MASK for j in range(rank))


def _unit(rs, i):
    """The packed key of x_i (0-based i); x_i^k has key k * _unit(rs, i)."""
    return (1 << (BITS * i)) + (1 << (BITS * rs.rank))


class Polynomial:
    """Immutable-by-convention sparse polynomial bound to a root system."""

    __slots__ = ("rs", "terms")

    def __init__(self, rs: RootSystem, terms=None):
        self.rs = rs
        self.terms = {} if terms is None else terms

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(rs):
        return Polynomial(rs, {})

    @staticmethod
    def one(rs):
        return Polynomial(rs, {0: 1})

    @staticmethod
    def monomial(rs, exps, c=1):
        """c * x^exps (one exponent per fundamental weight); raises past the packed field width."""
        return Polynomial(rs, {pack_monomial(exps): c}) if c else Polynomial(rs, {})

    @staticmethod
    def variable(rs, i):
        """The fundamental weight omega_i as a polynomial (1-based i)."""
        return Polynomial(rs, {_unit(rs, i - 1): 1})

    @staticmethod
    def linear_form(rs, coords):
        """A weight vector in omega-coordinates as a linear polynomial."""
        return Polynomial(rs, {_unit(rs, j): c for j, c in enumerate(coords) if c})

    # -- basic ring ops --------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max(self.terms) >> (BITS * self.rs.rank) if self.terms else -1

    def __add__(self, other):
        t = dict(self.terms)
        for e, c in other.terms.items():
            v = t.get(e, 0) + c
            if v:
                t[e] = v
            else:
                t.pop(e, None)
        return Polynomial(self.rs, t)

    def __sub__(self, other):
        t = dict(self.terms)
        for e, c in other.terms.items():
            v = t.get(e, 0) - c
            if v:
                t[e] = v
            else:
                t.pop(e, None)
        return Polynomial(self.rs, t)

    def scale(self, c):
        if not c:
            return Polynomial(self.rs, {})
        return Polynomial(self.rs, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return Polynomial(self.rs, {})
        shift = BITS * self.rs.rank
        deg = (max(a) >> shift) + (max(b) >> shift)
        if deg > MASK:
            raise InternalComputationError(f"product degree {deg} exceeds the packed limit {MASK}")
        if len(a) > len(b):
            a, b = b, a
        out = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                out[e] = get(e, 0) + ca * cb
        return Polynomial(self.rs, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def evaluate(self, point):
        """Exact evaluation at a tuple of numbers."""
        n = self.rs.rank
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, unpack_monomial(e, n)):
                if k:
                    v *= x ** k
            total += v
        return total

    def derivative(self, j):
        """d/dx_j (0-based j)."""
        unit = _unit(self.rs, j)
        out = {}
        for e, c in self.terms.items():
            k = (e >> (BITS * j)) & MASK
            if k:
                out[e - unit] = out.get(e - unit, 0) + c * k
        return Polynomial(self.rs, out)

    # -- divided differences and invariance --------------------------------

    def divided_difference(self, i):
        """D_i = (1 - s_i)/alpha_i (0-based i), exact and division-free.

        Each x_i^k (k > 0) is replaced by D_i(x_i^k); the x_i-free terms drop out.
        """
        rs = self.rs
        si = BITS * i
        unit = _unit(rs, i)
        tables = {}
        out = {}
        get = out.get
        for m, c in self.terms.items():
            k = (m >> si) & MASK
            if not k:
                continue
            table = tables.get(k)
            if table is None:
                table = tables[k] = _divdiff_power(rs, i, k)
            base = m - k * unit
            for t, ct in table:
                key = base + t
                out[key] = get(key, 0) + c * ct
        return Polynomial(rs, {e: c for e, c in out.items() if c})

    def is_invariant_under(self, indices_1based):
        """s_i u = u for every listed i, read as D_i u = 0."""
        return all(self.divided_difference(i - 1).is_zero() for i in indices_1based)

    def __repr__(self):
        if not self.terms:
            return "0"
        n = self.rs.rank
        bits = []
        for e, c in sorted(
            ((unpack_monomial(e, n), c) for e, c in self.terms.items()),
            key=lambda t: (sum(t[0]), t[0]),
            reverse=True,
        ):
            mono = "*".join(
                f"w{j+1}" + (f"^{k}" if k > 1 else "") for j, k in enumerate(e) if k
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits[:12]) + (" + ..." if len(bits) > 12 else "")


# -- cached monomial images ------------------------------------------------
# Keyed by the RootSystem object: build_root_system returns one instance per type.


@cache
def _alpha_powers(rs, i, k):
    """alpha_i^k as a term dict (0-based i)."""
    if k == 0:
        return {0: 1}
    alpha = Polynomial.linear_form(rs, rs.alpha_omega(i))
    return (Polynomial(rs, _alpha_powers(rs, i, k - 1)) * alpha).terms


@cache
def _divdiff_power(rs, i, k):
    """D_i(x_i^k) = sum_{j=1..k} (-1)^(j+1) C(k,j) x_i^(k-j) alpha_i^(j-1), as packed terms."""
    unit = _unit(rs, i)
    acc = {}
    for j in range(1, k + 1):
        coef = comb(k, j) * (1 if j % 2 == 1 else -1)
        for em, cm in _alpha_powers(rs, i, j - 1).items():
            e = em + (k - j) * unit
            acc[e] = acc.get(e, 0) + coef * cm
    return tuple((e, c) for e, c in acc.items() if c)


# ---------------------------------------------------------------------------
# Invariant generators


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


def _candidate_points(n):
    """Test points with n coordinates, in the order tried: 1..n, the squares, the first n primes."""
    primes = tuple(islice(filter(is_small_prime, count(2)), n))
    return tuple(range(1, n + 1)), tuple(x * x for x in range(1, n + 1)), primes


def _sub_fundamental_seeds(rs: RootSystem, theta):
    """Fundamental weights of <Theta> in ambient omega-coordinates, integer-scaled."""
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

    theta is a sorted tuple without repeats.  Candidates are orbit power sums
    p_d of the subsystem's fundamental weights, offered slot by slot (degrees
    ascending, smallest orbit first).  A candidate fills a slot when its
    Jacobian row at a fixed test point enlarges the rank; that row is computed
    numerically from the values mu.pt, so only the winning power sums are ever
    expanded as polynomials.  Each winner's row is recomputed from its
    polynomial, the final Jacobian has rank n (functional independence, hence
    a generating set by the degree-product criterion), and every winner is
    checked W_Theta-invariant.
    """
    n = rs.rank
    base = [Polynomial.variable(rs, i) for i in range(1, n + 1) if i not in theta]
    if not theta:
        return base
    slots = sorted(weyl_degrees(root_subsystem(rs, theta)))
    orbits = sorted((_orbit(rs, theta, s) for s in _sub_fundamental_seeds(rs, theta)), key=len)

    for pt in _candidate_points(n):
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
