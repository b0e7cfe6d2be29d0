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
Because divided differences are integral, reducing integer coefficients
mod p commutes with them: divided_difference reduces its output given a
modulus.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb

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

    def divided_difference(self, i, modulus=None):
        """D_i = (1 - s_i)/alpha_i (0-based i), exact and division-free; reduced mod a prime modulus.

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
        return Polynomial(rs, {e: v for e, c in out.items() if (v := c % modulus if modulus else c)})

    def is_invariant_under(self, indices_1based):
        """s_i u = u for every listed i, read as D_i u = 0."""
        return all(self.divided_difference(i - 1).is_zero() for i in indices_1based)

    # -- coefficient handling ---------------------------------------------

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
