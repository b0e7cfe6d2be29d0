"""Motivic decompositions of isotropic flag varieties and correspondence algebra.

A Tits index with circled vertex set C cuts the Hasse diagram of X: every
edge whose label lies in C is erased, and the connected components of what
remains are the Chow-motive summands (twisted motives of anisotropic-kernel
varieties).  With K the uncircled vertices, the component of w is its
double coset W_K w W_Theta, found by K-descent on the coset table.
Singleton components are Lefschetz motives; components whose profile is
divisible by 1 + t^3 refine into twisted Rost motives when the kernel is a
strongly inner D4.

Correspondences are finite sums of product cycles a x b on X x X with
mod-p coefficients; composition contracts the middle factor through the
Poincaré pairing, so no general intersection products are needed.
"""

from __future__ import annotations

import json
from itertools import chain

from . import univar
from .errors import UsageError
from .rootdata import (
    Record, RootSystem, build_root_system, checked_vertices, ring_modulus, root_subsystem,
)
from .weyl import coset_reps, graph_to_dot, join_pieces


class MotiveSummand(Record):
    """One connected component of the cut diagram."""

    __slots__ = (
        "vertices",        # rep indices
        "twist",           # minimal codimension in the component
        "profile",         # vertex counts per codimension offset from twist
        "kernel_type",
    )

    @property
    def is_lefschetz(self) -> bool:
        return len(self.vertices) == 1


def decompose(rs: RootSystem, theta, circled) -> list:
    """The components of the Hasse diagram cut along the circled labels.

    Each is a double coset W_K w W_Theta, K the uncircled vertices.  In
    table order, position k takes the root of s_i w_k for the first i in K
    that is a left descent (`CosetTable.first_descents`: s_i w_k is an
    earlier rep joined to w_k by an edge labelled i), or is its own root if
    there is none, so each double coset's least rep roots it.
    """
    circled = checked_vertices(rs.rank, circled, "circled vertex")
    ct = coset_reps(rs, theta)
    uncircled = [i for i in range(1, rs.rank + 1) if i not in circled]
    kernel = root_subsystem(rs, uncircled)
    root = []
    components = {}
    for k, m in enumerate(ct.first_descents(uncircled)):
        r = k if m < 0 else root[m]
        root.append(r)
        components.setdefault(r, []).append(k)
    # position -> codimension, read off the table's length layers
    dim = ct.max_length
    codim = [dim - l for l, n in enumerate(ct.graded_counts()) for _ in range(n)]
    out = []
    for comp in components.values():
        twist = codim[comp[-1]]
        profile = [0] * (codim[comp[0]] - twist + 1)
        for v in comp:
            profile[codim[v] - twist] += 1
        out.append(MotiveSummand(tuple(comp), twist, tuple(profile), kernel))
    out.sort(key=lambda s: (s.twist, s.profile, s.vertices))
    return out


def decomposition_profile_sum(summands) -> tuple:
    """Sum of t^twist * profile over summands; must equal g(X)."""
    total = univar.ZERO
    for s in summands:
        total = univar.add(total, univar.shift(s.profile, s.twist))
    return total


def refine_rost(summands) -> list:
    """Rost twists replacing the non-singleton components.

    Each non-singleton profile must be divisible by 1 + t^3 (strongly inner
    D4 kernel); the quotient's exponents (with multiplicity) shifted by the
    component twist are the twists of the Rost summands R(i).
    """
    twists = []
    rost = (1, 0, 0, 1)
    for s in summands:
        if s.is_lefschetz:
            continue
        quot, rem = univar.divide(s.profile, rost)
        if rem != univar.ZERO:
            raise UsageError(
                f"component profile {list(s.profile)} is not divisible by 1+t^3"
            )
        for i, c in enumerate(quot):
            if c < 0:
                raise UsageError("negative multiplicity in Rost refinement")
            twists.extend([s.twist + i] * c)
    return sorted(twists)


def singleton_components(rs: RootSystem, theta, circled) -> list:
    """The isolated vertices of the cut diagram as (canonical word, codim)."""
    ct = coset_reps(rs, theta)
    out = []
    for s in decompose(rs, theta, circled):
        if s.is_lefschetz:
            v = s.vertices[0]
            out.append((ct.words[v], ct.codim(v)))
    return sorted(out, key=lambda t: (t[1], t[0]))


def decomposition_to_json(rs, theta, circled, rost=False):
    """The summands as the JSON object {circled, kernel, [rost_twists,] summands, theta, type},
    keys sorted, in pieces: one per summand.  Everything that can raise runs before the
    pieces are returned."""
    summands = decompose(rs, theta, circled)
    ct = coset_reps(rs, theta)
    text = ct.word_text
    kernel = summands[0].kernel_type.name() if summands else "1"
    rost_twists = f'"rost_twists": {json.dumps(refine_rost(summands))}, ' if rost else ""
    parts = join_pieces(
        f'{{"kernel_type": {json.dumps("1" if s.is_lefschetz else s.kernel_type.name())}, '
        f'"profile": {json.dumps(list(s.profile))}, "twist": {s.twist}, '
        f'"vertices": [{", ".join(text[v] for v in s.vertices)}]}}'
        for s in summands
    )
    head = (
        f'{{"circled": {json.dumps(sorted(set(circled)))}, "kernel": {json.dumps(kernel)}, '
        f'{rost_twists}"summands": ['
    )
    tail = f'], "theta": {json.dumps(list(ct.theta))}, "type": {json.dumps(rs.type.name())}}}'
    return chain((head,), parts, (tail,))


def decomposition_to_dot(rs, theta, circled):
    """Cut Hasse diagram with one color per component and the circled labels dotted, in
    pieces (see `weyl.graph_to_dot`)."""
    ct = coset_reps(rs, theta)
    summands = decompose(rs, theta, circled)
    colors = ["red", "blue", "green", "orange", "purple", "brown", "cyan",
              "magenta", "gray", "olive", "pink", "navy"]
    color_of = [None] * len(ct)  # the summands partition the positions
    for n, s in enumerate(summands):
        for v in s.vertices:
            color_of[v] = colors[n % len(colors)]
    return graph_to_dot(ct, "motive", color_of, circled)


# ---------------------------------------------------------------------------
# Correspondences (their classes come from `schubert`, imported on use so
# that the cut above loads no Schubert or polynomial machinery)


class Correspondence(Record):
    """A sum of product cycles sum_i a_i x b_i on X x X over Z/p."""

    __slots__ = (
        "type_name",
        "theta",
        "ring",
        "pairs",                  # tuple of (ChowClass, ChowClass)
    )

    def __init__(self, type_name: str, theta: tuple, ring: str, pairs: tuple):
        if ring_modulus(ring) is None:
            raise UsageError("correspondences require a finite coefficient ring Z/p")
        for a, b in pairs:
            if a.ring != ring or b.ring != ring:
                raise UsageError("component classes must match the correspondence ring")
        super().__init__(type_name, theta, ring, pairs)

    @property
    def modulus(self):
        """p for the ring Z/p, None for Z and Q."""
        return ring_modulus(self.ring)

    def normalized(self) -> dict:
        """Collapse to a matrix {(i, j): coeff} over basis pairs."""
        out = {}
        p = self.modulus
        for a, b in self.pairs:
            for i, ca in a.coeffs.items():
                for j, cb in b.coeffs.items():
                    v = (out.get((i, j), 0) + ca * cb) % p
                    if v:
                        out[(i, j)] = v
                    else:
                        out.pop((i, j), None)
        return out


def _ct_of(q: Correspondence):
    return coset_reps(build_root_system(q.type_name), q.theta)


def _from_matrix(type_name, theta, ring, matrix) -> Correspondence:
    from .schubert import ChowClass

    pairs = []
    for (i, j), c in sorted(matrix.items()):
        pairs.append(
            (
                ChowClass(type_name, theta, ring, {i: c}),
                ChowClass(type_name, theta, ring, {j: 1}),
            )
        )
    return Correspondence(type_name, theta, ring, tuple(pairs))


def compose(q1: Correspondence, q2: Correspondence) -> Correspondence:
    """q1 o q2: with q1 = sum c x d and q2 = sum a x b, returns sum deg(b.c) (a x d).

    deg is the point-class coefficient: nonzero only for complementary
    codimensions, where it is the Poincaré pairing.
    """
    if (q1.type_name, q1.theta, q1.ring) != (q2.type_name, q2.theta, q2.ring):
        raise UsageError("correspondences are not composable")
    ct = _ct_of(q1)
    p = q1.modulus
    m1 = q1.normalized()
    m2 = q2.normalized()
    out = {}
    for (a, b), c2 in m2.items():
        for (c, d), c1 in m1.items():
            if ct.dual_index(b) != c:
                continue
            v = (out.get((a, d), 0) + c1 * c2) % p
            if v:
                out[(a, d)] = v
            else:
                out.pop((a, d), None)
    return _from_matrix(q1.type_name, q1.theta, q1.ring, out)


def diagonal(type_name, theta, ring="Z/2") -> Correspondence:
    """Delta_X = sum_w [X_w] x [Z_w], the identity of composition."""
    from .schubert import ChowClass

    rs = build_root_system(type_name)
    ct = coset_reps(rs, theta)
    pairs = []
    for k in range(len(ct)):
        pairs.append(
            (
                ChowClass(type_name, ct.theta, ring, {k: 1}),
                ChowClass(type_name, ct.theta, ring, {ct.dual_index(k): 1}),
            )
        )
    return Correspondence(type_name, ct.theta, ring, tuple(pairs))


def idempotent_power(q: Correspondence):
    """Least n with q^(2n) = q^n, found by cycle detection on powers of q."""
    seen = {}
    powers = []
    cur = q
    k = 1
    while True:
        key = tuple(sorted(cur.normalized().items()))
        if key in seen:
            start = seen[key]       # powers repeat with period k - start
            period = k - start
            # least n >= start divisible by the period satisfies q^(2n) = q^n
            n = ((start + period - 1) // period) * period
            return n, powers[n - 1]
        seen[key] = k
        powers.append(cur)
        cur = compose(cur, q)
        k += 1


def projector_rank(q: Correspondence) -> int:
    """Coefficient of pt x pt in q . q^t: the rank of the realization."""
    ct = _ct_of(q)
    p = q.modulus
    m = q.normalized()
    total = 0
    # q^t = sum d x c; (a x b).(d x c) = (a.d) x (b.c), so the pt x pt
    # coefficient needs dual(a) = d and dual(b) = c
    for (a, b), c1 in m.items():
        for (c, d), c2 in m.items():
            if ct.dual_index(a) == d and ct.dual_index(b) == c:
                total += c1 * c2
    return total % p
