"""Dense univariate integer polynomials in t, stored as coefficient tuples.

Used for Poincaré polynomials, motive profiles and the J-invariant
identities.  Index i holds the coefficient of t^i; trailing zeros are
stripped so equal polynomials compare equal as tuples.
"""

from __future__ import annotations

from .errors import InternalComputationError

TPoly = tuple  # coefficient tuple, index = exponent

ONE: TPoly = (1,)
ZERO: TPoly = ()


def tpoly(coeffs) -> TPoly:
    """Normalize a coefficient iterable into a TPoly (strip trailing zeros)."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def deg(p: TPoly) -> int:
    """Degree, with deg(0) = -1."""
    return len(p) - 1


def add(p: TPoly, q: TPoly) -> TPoly:
    n = max(len(p), len(q))
    return tpoly((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def mul(p: TPoly, q: TPoly) -> TPoly:
    if not p or not q:
        return ZERO
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return tpoly(out)


def shift(p: TPoly, k: int) -> TPoly:
    """Multiply by t^k."""
    if not p:
        return ZERO
    return tpoly([0] * k + list(p))


def divide(p: TPoly, q: TPoly) -> tuple[TPoly, TPoly]:
    """Long division p = quot*q + rem over the integers.

    Only used with monic-up-to-sign divisors (t^d - 1 products), so the
    division never leaves the integers.
    """
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(p)
    quot = [0] * max(len(p) - len(q) + 1, 0)
    lead = q[-1]
    while len(rem) >= len(q) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(q):
            break
        if rem[-1] % lead != 0:
            break  # not divisible at this step; leave remainder
        c = rem[-1] // lead
        k = len(rem) - len(q)
        quot[k] = c
        for i, b in enumerate(q):
            rem[k + i] -= c * b
    return tpoly(quot), tpoly(rem)


def divide_exact(p: TPoly, q: TPoly, what: str = "polynomial") -> TPoly:
    quot, rem = divide(p, q)
    if rem != ZERO:
        raise InternalComputationError(f"inexact {what} division: remainder {rem}")
    return quot


def t_power_minus_one(d: int) -> TPoly:
    return tpoly([-1] + [0] * (d - 1) + [1])


def to_string(p: TPoly) -> str:
    """Render like "1+2t+2t^2+t^3"; zero polynomial renders as "0"."""
    if not p:
        return "0"
    parts = []
    for i, a in enumerate(p):
        if a == 0:
            continue
        if i == 0:
            parts.append(str(a))
        else:
            x = "t" if i == 1 else f"t^{i}"
            if a == 1:
                parts.append(x)
            elif a == -1:
                parts.append(f"-{x}")
            else:
                parts.append(f"{a}{x}")
    out = parts[0]
    for s in parts[1:]:
        out += s if s.startswith("-") else "+" + s
    return out
