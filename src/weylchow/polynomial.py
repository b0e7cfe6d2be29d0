"""Sparse multivariate polynomials over exact rationals in the fundamental weights.

A polynomial is a dict {packed monomial: coefficient}; coefficients are
Python ints wherever possible and fractions.Fraction otherwise.  A monomial
x^e in rank n is packed into one int: exponent e_j sits in bits
[BITS*j, BITS*(j+1)) and the total degree in the field above them, so the
key of a product is the sum of the keys, degree() is a shift, and int
order sorts monomials by degree first.  Every monomial has total degree at
most MASK, hence no exponent field can carry into the next; a product or a
constructor that would break this raises InternalComputationError.

The Weyl action and divided differences are the two nonstandard operations:

* s_i substitutes x_i -> x_i - alpha_i (the other variables are fixed);
* the divided difference D_i(u) = (u - s_i u)/alpha_i is evaluated on a
  monomial x_i^k * m' (m' free of x_i) by the integer formula

      D_i(x_i^k m') = m' * sum_{j=1..k} (-1)^(j+1) C(k,j) x_i^(k-j) alpha_i^(j-1),

  which avoids polynomial division entirely (exactness is structural, so a
  direct division routine is kept only as a cross-check in the tests).

Both read k from the packed key, strip x_i^k from it, and add the packed
terms of (x_i - alpha_i)^k or D_i(x_i^k), cached per (root system, i, k).
Because divided differences are integral, reducing integer coefficients
mod p commutes with them; elementary_symmetric_classes reduces while it
accumulates, which keeps mod-p Chern computations small.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, gcd

from .errors import InternalComputationError
from .rootdata import RootSystem

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
    def constant(rs, c):
        return Polynomial(rs, {0: c}) if c else Polynomial(rs, {})

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

    def is_homogeneous(self):
        shift = BITS * self.rs.rank
        return len({e >> shift for e in self.terms}) <= 1

    def graded_parts(self):
        shift = BITS * self.rs.rank
        out = {}
        for e, c in self.terms.items():
            out.setdefault(e >> shift, {})[e] = c
        return {d: Polynomial(self.rs, t) for d, t in sorted(out.items())}

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

    def __neg__(self):
        return Polynomial(self.rs, {e: -c for e, c in self.terms.items()})

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

    # -- Weyl action and divided differences ------------------------------

    def reflect(self, i):
        """Apply s_i (0-based i): substitute x_i -> x_i - alpha_i."""
        return self._substitute_power(i, _x_minus_alpha_power, keep_constant=True)

    def divided_difference(self, i):
        """D_i = (1 - s_i)/alpha_i (0-based i), exact and division-free."""
        return self._substitute_power(i, _divdiff_power, keep_constant=False)

    def _substitute_power(self, i, image, keep_constant):
        """Replace each x_i^k (k > 0) by image(rs, i, k); keep or drop the x_i-free terms."""
        rs = self.rs
        si = BITS * i
        unit = _unit(rs, i)
        tables = {}
        out = {}
        get = out.get
        for m, c in self.terms.items():
            k = (m >> si) & MASK
            if not k:
                if keep_constant:
                    out[m] = get(m, 0) + c
                continue
            table = tables.get(k)
            if table is None:
                table = tables[k] = image(rs, i, k)
            base = m - k * unit
            for t, ct in table:
                key = base + t
                out[key] = get(key, 0) + c * ct
        return Polynomial(rs, {e: c for e, c in out.items() if c})

    def is_invariant_under(self, indices_1based):
        return all(self.reflect(i - 1) == self for i in indices_1based)

    # -- coefficient handling ---------------------------------------------

    def common_denominator(self):
        d = 1
        for c in self.terms.values():
            if isinstance(c, Fraction):
                d = d * c.denominator // gcd(d, c.denominator)
        return d

    def to_integer(self):
        """Return (D, P) with D a positive int and P integer-coefficient, self = P/D."""
        d = self.common_denominator()
        if d == 1:
            return 1, Polynomial(self.rs, {e: int(c) for e, c in self.terms.items()})
        return d, Polynomial(self.rs, {e: int(c * d) for e, c in self.terms.items()})

    def reduce_mod(self, p):
        out = {}
        for e, c in self.terms.items():
            if type(c) is Fraction:  # not isinstance: the check against an ABC dominates this loop
                if c.denominator % p == 0:
                    raise InternalComputationError(f"denominator not invertible mod {p}")
                c = c.numerator * pow(c.denominator, -1, p)
            v = c % p
            if v:
                out[e] = v
        return Polynomial(self.rs, out)

    def map_fractions(self):
        """Normalize Fraction coefficients with denominator 1 to ints."""
        out = {}
        for e, c in self.terms.items():
            if isinstance(c, Fraction) and c.denominator == 1:
                c = int(c)
            out[e] = c
        return Polynomial(self.rs, out)

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
def _x_minus_alpha_power(rs, i, k):
    """(x_i - alpha_i)^k as a tuple of packed (key, coefficient) terms."""
    xi = Polynomial.variable(rs, i + 1)
    alpha = Polynomial.linear_form(rs, rs.alpha_omega(i))
    base = xi - alpha
    acc = Polynomial.one(rs)
    for _ in range(k):
        acc = acc * base
    return tuple(acc.terms.items())


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


# -- symmetric functions of linear forms ------------------------------------


def elementary_symmetric_classes(rs, forms, max_degree, modulus=None):
    """e_0..e_max of the given linear forms (as omega-coordinate tuples).

    Incremental DP over the product prod (1 + gamma t), truncated.  With a
    prime modulus p each e_k is reduced mod p as it is accumulated, which is
    the reduction of the integral result because Z -> Z/p is a ring map.
    Returns a list of Polynomials indexed by degree.
    """
    es = [Polynomial.one(rs)] + [Polynomial.zero(rs) for _ in range(max_degree)]
    for coords in forms:
        gamma = Polynomial.linear_form(rs, coords)
        for k in range(max_degree, 0, -1):
            if not es[k - 1].is_zero():
                e = es[k] + es[k - 1] * gamma
                es[k] = e.reduce_mod(modulus) if modulus else e
    return es


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
        inv[d] = -acc
    return inv


def exact_divide_by_linear(u: Polynomial, form: Polynomial, pivot: int) -> Polynomial:
    """Division of u by a linear form with nonzero pivot coefficient.

    Used as an independent cross-check of the divided-difference formula.
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
    return quot.map_fractions()
