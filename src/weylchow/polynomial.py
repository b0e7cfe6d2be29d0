"""Sparse multivariate polynomials over exact rationals in the fundamental weights.

A polynomial is a dict {exponent tuple: coefficient}; coefficients are
Python ints wherever possible and fractions.Fraction otherwise.  The Weyl
action and divided differences are the two nonstandard operations:

* s_i substitutes x_i -> x_i - alpha_i (the other variables are fixed);
* the divided difference D_i(u) = (u - s_i u)/alpha_i is evaluated on a
  monomial x_i^k * m' (m' free of x_i) by the integer formula

      D_i(x_i^k m') = m' * sum_{j=1..k} (-1)^(j+1) C(k,j) x_i^(k-j) alpha_i^(j-1),

  which avoids polynomial division entirely (exactness is structural, so a
  direct division routine is kept only as a cross-check in the tests).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, gcd

from .errors import InternalComputationError
from .rootdata import RootSystem


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
        return Polynomial(rs, {(0,) * rs.rank: 1})

    @staticmethod
    def constant(rs, c):
        return Polynomial(rs, {(0,) * rs.rank: c}) if c else Polynomial(rs, {})

    @staticmethod
    def variable(rs, i):
        """The fundamental weight omega_i as a polynomial (1-based i)."""
        e = tuple(1 if j == i - 1 else 0 for j in range(rs.rank))
        return Polynomial(rs, {e: 1})

    @staticmethod
    def linear_form(rs, coords):
        """A weight vector in omega-coordinates as a linear polynomial."""
        terms = {}
        for j, c in enumerate(coords):
            if c:
                e = tuple(1 if k == j else 0 for k in range(rs.rank))
                terms[e] = c
        return Polynomial(rs, terms)

    # -- basic ring ops --------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def graded_parts(self):
        out = {}
        for e, c in self.terms.items():
            out.setdefault(sum(e), {})[e] = c
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
        if len(a) > len(b):
            a, b = b, a
        out = {}
        n = self.rs.rank
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(ea[k] + eb[k] for k in range(n))
                v = out.get(e, 0) + ca * cb
                if v:
                    out[e] = v
                else:
                    del out[e]
        return Polynomial(self.rs, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def evaluate(self, point):
        """Exact evaluation at a tuple of numbers."""
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= x ** k
            total += v
        return total

    def derivative(self, j):
        """d/dx_j (0-based j)."""
        out = {}
        for e, c in self.terms.items():
            if e[j]:
                e2 = tuple(v - 1 if k == j else v for k, v in enumerate(e))
                out[e2] = out.get(e2, 0) + c * e[j]
        return Polynomial(self.rs, out)

    # -- Weyl action and divided differences ------------------------------

    def reflect(self, i):
        """Apply s_i (0-based i): substitute x_i -> x_i - alpha_i."""
        rs = self.rs
        n = rs.rank
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                v = out.get(e, 0) + c
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
                continue
            base = tuple(0 if j == i else e[j] for j in range(n))
            # (x_i - alpha_i)^k expanded once per (i, k) and cached
            for em, cm in _x_minus_alpha_power(rs, i, k).items():
                key = tuple(base[j] + em[j] for j in range(n))
                v = out.get(key, 0) + c * cm
                if v:
                    out[key] = v
                else:
                    del out[key]
        return Polynomial(rs, out)

    def divided_difference(self, i):
        """D_i = (1 - s_i)/alpha_i (0-based i), exact and division-free."""
        rs = self.rs
        n = rs.rank
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            base = tuple(0 if j == i else e[j] for j in range(n))
            for em, cm in _divdiff_power(rs, i, k).items():
                key = tuple(base[j] + em[j] for j in range(n))
                v = out.get(key, 0) + c * cm
                if v:
                    out[key] = v
                else:
                    del out[key]
        return Polynomial(rs, out)

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
            if isinstance(c, Fraction):
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
        bits = []
        for e, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
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
        return {(0,) * rs.rank: 1}
    alpha = Polynomial.linear_form(rs, rs.alpha_omega(i))
    return (Polynomial(rs, _alpha_powers(rs, i, k - 1)) * alpha).terms


@cache
def _x_minus_alpha_power(rs, i, k):
    """(x_i - alpha_i)^k as a term dict."""
    xi = Polynomial.variable(rs, i + 1)
    alpha = Polynomial.linear_form(rs, rs.alpha_omega(i))
    base = xi - alpha
    acc = Polynomial.one(rs)
    for _ in range(k):
        acc = acc * base
    return acc.terms


@cache
def _divdiff_power(rs, i, k):
    """D_i(x_i^k) = sum_{j=1..k} (-1)^(j+1) C(k,j) x_i^(k-j) alpha_i^(j-1)."""
    n = rs.rank
    acc = {}
    for j in range(1, k + 1):
        coef = comb(k, j) * (1 if j % 2 == 1 else -1)
        for em, cm in _alpha_powers(rs, i, j - 1).items():
            e = tuple(em[t] + (k - j if t == i else 0) for t in range(n))
            v = acc.get(e, 0) + coef * cm
            if v:
                acc[e] = v
            else:
                del acc[e]
    return acc


# -- symmetric functions of linear forms ------------------------------------


def elementary_symmetric_classes(rs, forms, max_degree):
    """e_0..e_max of the given linear forms (as omega-coordinate tuples).

    Incremental DP over the product prod (1 + gamma t), truncated.
    Returns a list of Polynomials indexed by degree.
    """
    es = [Polynomial.one(rs)] + [Polynomial.zero(rs) for _ in range(max_degree)]
    for coords in forms:
        gamma = Polynomial.linear_form(rs, coords)
        top = min(max_degree, len(es) - 1)
        for k in range(top, 0, -1):
            if not es[k - 1].is_zero():
                es[k] = es[k] + es[k - 1] * gamma
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
    cpiv = form.terms.get(
        tuple(1 if j == pivot else 0 for j in range(rs.rank)), 0
    )
    if not cpiv:
        raise InternalComputationError("pivot variable absent from divisor")
    rem = Polynomial(rs, dict(u.terms))
    quot = Polynomial.zero(rs)
    while not rem.is_zero():
        e, c = max(rem.terms.items(), key=lambda t: (t[0][pivot], t[0]))
        if e[pivot] == 0:
            raise InternalComputationError("nonzero remainder in linear division")
        e2 = tuple(v - 1 if j == pivot else v for j, v in enumerate(e))
        q = Polynomial(rs, {e2: Fraction(c, 1) / cpiv})
        quot = quot + q
        rem = rem - q * form
    return quot.map_fractions()
