"""Tits indices, Tits automata, and J-invariant arithmetic.

A Tits index is a Dynkin type with a circled vertex subset; the anisotropic
kernel is the subdiagram on the uncircled vertices.  A higher-index set is
a collection of circled subsets (ordered by inclusion) closed enough to
define the splitting automaton: from a state C, the vertex i leads to the
unique minimal member containing C and i.

J-invariant data is arithmetic on (d_i, k_i) pairs: the mod-p Chow ring of
the split group is a truncated polynomial ring with generators of degree
d_i and truncation exponents p^{k_i}; profiles (j_1..j_r) plug into the
product formula prod (t^{d_i p^{j_i}} - 1)/(t^{d_i} - 1).

Profiles are inputs here, never computed from field data; the generically
split classification is the published 8-row table used as data.
"""

from __future__ import annotations

import json

from . import univar
from .errors import UsageError
from .rootdata import (
    DynkinType, Record, RootSystem, build_root_system, checked_vertices, is_small_prime,
    root_subsystem,
)


class TitsIndex(Record):
    __slots__ = ("type", "circled")

    def __init__(self, type: DynkinType, circled: tuple):
        checked_vertices(type.rank, circled, "circled vertex")
        super().__init__(type, circled)


def anisotropic_kernel(idx: TitsIndex) -> DynkinType:
    """Dynkin type of the subdiagram on the uncircled vertices."""
    rs = build_root_system(idx.type)
    kept = sorted(set(range(1, rs.rank + 1)) - set(idx.circled))
    return root_subsystem(rs, kept)


def kernel_display_name(dtype: DynkinType, circled) -> str:
    """State label for automata: kernel type, with rank-1 pieces of a B-chain
    shown as B1 (the quadratic-form convention used in the splitting graphs)."""
    kept = set(range(1, dtype.rank + 1)) - set(circled)
    if not kept:
        return "1"
    kernel = root_subsystem(build_root_system(dtype), kept)
    names = [f"{family}{rank}" for family, rank in kernel.components]
    for family, rank, off in dtype.component_ranges():
        # a lone short root at the end of an ambient B-chain displays as B1
        if family == "B" and off + rank in kept and off + rank - 1 not in kept:
            names[names.index("A1")] = "B1"
    return "x".join(sorted(names, reverse=True))


class HigherIndexSet(Record):
    __slots__ = (
        "type",
        "indices",  # tuple of sorted circled-subset tuples
    )

    def __init__(self, type: DynkinType, indices: tuple):
        for m in indices:
            checked_vertices(type.rank, m, "circled vertex")
        members = [set(m) for m in indices]
        minimal = [m for m in members if not any(o < m for o in members)]
        if len(minimal) != 1:
            raise UsageError("higher index set must have a unique minimal element")
        super().__init__(type, indices)

    @staticmethod
    def build(dtype: DynkinType, subsets) -> "HigherIndexSet":
        idx = tuple(sorted({checked_vertices(dtype.rank, s, "circled vertex") for s in subsets}))
        return HigherIndexSet(dtype, idx)

    def minimum(self):
        """The unique minimal member, which every member contains."""
        return min(self.indices, key=len)


class Automaton(Record):
    __slots__ = (
        "type",
        "states",          # circled subsets, sorted
        "labels",          # display name per state
        "transitions",     # (from_state_pos, to_state_pos, label vertex)
    )


def automaton(omega: HigherIndexSet) -> Automaton:
    """States are the members of omega; vertex i maps a state C to the unique
    minimal member containing C and i.  Non-unique minima are rejected."""
    dtype = omega.type
    n = dtype.rank
    states = sorted(omega.indices, key=lambda s: (len(s), s))
    pos = {s: k for k, s in enumerate(states)}
    labels = tuple(kernel_display_name(dtype, s) for s in states)
    transitions = []
    for s in states:
        sset = set(s)
        aniso = [i for i in range(1, n + 1) if i not in sset]
        for i in aniso:
            want = sset | {i}
            candidates = [set(t) for t in states if want <= set(t)]
            minimal = [c for c in candidates if not any(o < c for o in candidates)]
            if len(minimal) != 1:
                raise UsageError(
                    f"ill-formed index set: vertex {i} from state {list(s)} has "
                    f"{len(minimal)} minimal successors"
                )
            t = tuple(sorted(minimal[0]))
            transitions.append((pos[s], pos[t], i))
    return Automaton(dtype, tuple(states), labels, tuple(sorted(transitions)))


def height(a: Automaton) -> int:
    """Longest directed path; the state graph is acyclic by strict inclusion."""
    edges = {}
    for f, t, _ in a.transitions:
        if f != t:
            edges.setdefault(f, set()).add(t)
    order = sorted(range(len(a.states)), key=lambda k: len(a.states[k]), reverse=True)
    longest = {k: 0 for k in range(len(a.states))}
    for k in order:
        for t in edges.get(k, ()):
            longest[k] = max(longest[k], 1 + longest[t])
    return max(longest.values(), default=0)


def automaton_to_dot(a: Automaton) -> str:
    lines = ["digraph tits {"]
    for k, label in enumerate(a.labels):
        lines.append(f'  s{k} [label="{label}"];')
    grouped = {}
    for f, t, i in a.transitions:
        grouped.setdefault((f, t), []).append(i)
    for (f, t), labs in sorted(grouped.items()):
        text = ",".join(str(i) for i in sorted(labs))
        lines.append(f'  s{f} -> s{t} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines)


def automaton_to_json(a: Automaton) -> str:
    return json.dumps(
        {
            "height": height(a),
            "type": a.type.name(),
            "states": [
                {"circled": list(s), "kernel": a.labels[k]} for k, s in enumerate(a.states)
            ],
            "transitions": [
                {"from": f, "to": t, "label": i} for f, t, i in a.transitions
            ],
        },
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# Higher-index tables for F4, E6, E7 (kernel realizations as circled subsets)


# type -> rows (kernel, circled subset, rule): the kernel is in the set when its rule is
# None, or when the rule is (key, value) and invariants.get(key, not value) == value
_HIGHER_INDEX_ROWS = {
    "F4": (("1", (1, 2, 3, 4), None), ("B3", (4,), ("J2_trivial", False)), ("F4", (), None)),
    "E6": (
        ("1", (1, 2, 3, 4, 5, 6), None),
        ("A2xA2", (2, 4), ("J3_j1_nonzero", True)),
        ("D4", (1, 6), ("J2_trivial", False)),
        ("E6", (), None),
    ),
    "E7": (
        ("1", (1, 2, 3, 4, 5, 6, 7), None),
        ("D4", (1, 6, 7), ("J2_trivial", False)),
        ("E6", (7,), ("J3_trivial", False)),
        ("D6", (1,), ("has_zero_cycle", False)),
        ("E7", (), None),
    ),
}


def higher_index_table(type_name: str, invariants: dict) -> HigherIndexSet:
    """Kernel sets of the published table, realized as circled subsets.

    invariants (an absent key takes the generic value: trivial, no J3 j_1,
    a zero-cycle of degree one):
      F4: {"J2_trivial": bool}
      E6: {"J2_trivial": bool, "J3_j1_nonzero": bool}
      E7 (trivial Tits algebras): {"J2_trivial": bool, "J3_trivial": bool,
                                   "has_zero_cycle": bool}
    """
    dtype = DynkinType.parse(type_name)
    rows = _HIGHER_INDEX_ROWS.get(dtype.name())
    if rows is None:
        raise UsageError(f"no higher-index table for type {type_name}")
    return HigherIndexSet.build(dtype, [
        circled for _, circled, rule in rows
        if rule is None or invariants.get(rule[0], not rule[1]) == rule[1]
    ])


# ---------------------------------------------------------------------------
# DegLex order and Kac-table data


def deglex_leq(M, N, degrees) -> bool:
    """M <= N iff |M| < |N|, or equal and m_i <= n_i at the greatest differing i."""
    if len(M) != len(N) or len(M) != len(degrees):
        raise UsageError("tuple lengths differ")
    wm = sum(d * m for d, m in zip(degrees, M))
    wn = sum(d * n for d, n in zip(degrees, N))
    if wm != wn:
        return wm < wn
    for i in range(len(M) - 1, -1, -1):
        if M[i] != N[i]:
            return M[i] <= N[i]
    return True


class KacEntry(Record):
    """(d_i, k_i) pairs of the mod-p Chow presentation of the split group."""

    __slots__ = (
        "type",
        "p",
        "pairs",  # sorted by d
    )

    @property
    def r(self):
        return len(self.pairs)

    def degrees(self):
        return tuple(d for d, _ in self.pairs)

    def exponents(self):
        return tuple(k for _, k in self.pairs)


def _v_p(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _doublings(d, n):
    """The least k with d * 2^k >= n."""
    k = 0
    while d << k < n:
        k += 1
    return k


# (family, rank, p) -> (d, k) pairs of the exceptional groups at their torsion primes (Kac 1985)
_EXCEPTIONAL_KAC = {
    ("G", 2, 2): ((3, 1),),
    ("F", 4, 2): ((3, 1),),
    ("F", 4, 3): ((4, 1),),
    ("E", 6, 2): ((3, 1),),
    ("E", 6, 3): ((1, 1), (4, 1)),
    ("E", 7, 2): ((1, 1), (3, 1), (5, 1), (9, 1)),
    ("E", 7, 3): ((4, 1),),
    ("E", 8, 2): ((3, 3), (5, 2), (9, 1), (15, 1)),
    ("E", 8, 3): ((4, 1), (10, 1)),
    ("E", 8, 5): ((6, 1),),
}


def _simple_kac_pairs(family, rank, p):
    """Transcribed p-exceptional degree data (adjoint forms), split into
    (d, k) with d coprime to p.  Only torsion primes yield entries."""
    if family == "A":
        # PGL_{rank+1}: one degree-1 generator when p | rank+1
        v = _v_p(rank + 1, p)
        return [(1, v)] if v else []
    if family == "B" and p == 2:
        # SO_{2n+1}: generators x_d for odd d <= m - 2, truncated at d 2^k >= m - 1
        m = 2 * rank + 1
        return [(d, _doublings(d, m - 1)) for d in range(1, m - 1, 2)]
    if family == "D" and p == 2:
        # transcription for the isogeny forms arising as kernels inside E7
        # (half-spin-compatible): degrees {1} and odd 3..n-1, so D4 -> {1,3}
        # and D6 -> {1,3,5}
        return [(1, 1)] + [(d, _doublings(d, 2 * rank - 2)) for d in range(3, rank, 2)]
    if family == "C" and p == 2:
        raise UsageError("mod-2 data for adjoint C-type groups is not transcribed")
    return _EXCEPTIONAL_KAC.get((family, rank, p), ())


def kac_entry(dtype, p: int) -> KacEntry:
    """Embedded (d_i, k_i) table; non-torsion primes give the empty entry."""
    if isinstance(dtype, str):
        dtype = DynkinType.parse(dtype)
    if not is_small_prime(p):
        raise UsageError(f"p must be a prime below 2^31, got {p}")
    pairs = []
    for family, rank in dtype.components:
        pairs.extend(_simple_kac_pairs(family, rank, p))
    return KacEntry(dtype, p, tuple(sorted(pairs)))


class JProfile(Record):
    __slots__ = ("p", "values")

    def validate(self, entry: KacEntry):
        if self.p != entry.p:
            raise UsageError(f"a profile for p = {self.p} does not fit the Kac entry for p = {entry.p}")
        if len(self.values) != entry.r:
            raise UsageError(
                f"profile arity {len(self.values)} != r = {entry.r} for this type/prime"
            )
        for j, (_, k) in zip(self.values, entry.pairs):
            if not 0 <= j <= k:
                raise UsageError(f"profile value {j} is outside 0..{k}")


def profile_factor(entry: KacEntry, profile: JProfile) -> tuple:
    """prod (t^{d_i p^{j_i}} - 1)/(t^{d_i} - 1), exactly."""
    profile.validate(entry)
    out = univar.ONE
    for (d, _), j in zip(entry.pairs, profile.values):
        num = univar.t_power_minus_one(d * entry.p ** j)
        den = univar.t_power_minus_one(d)
        out = univar.mul(out, univar.divide_exact(num, den, "profile factor"))
    return out


def kac_poincare(entry: KacEntry) -> tuple:
    """Poincaré polynomial of the truncated ring: full profile j_i = k_i."""
    full = JProfile(entry.p, entry.exponents())
    return profile_factor(entry, full)


def predicted_rational_poincare(rs: RootSystem, theta, entry: KacEntry, profile: JProfile):
    """Divide g(X) by the profile factor; the flag records exact nonnegative
    divisibility (False certifies not-generically-split for this profile)."""
    from .weyl import poincare_polynomial

    g = poincare_polynomial(rs, theta)
    rhs = profile_factor(entry, profile)
    quot, rem = univar.divide(g, rhs)
    ok = rem == univar.ZERO and all(c >= 0 for c in quot)
    return quot, ok


# ---------------------------------------------------------------------------
# Generically-split classification (published table as data)


# type -> rows (vertices, p, i): the variety of parabolics of type `vertex` is not generically
# split when vertex is in vertices and j_i (i from 0) of the p-profile is nonzero
_NOT_GENERICALLY_SPLIT = {
    "F4": (((4,), 2, 0),),
    "E6": (((1, 6), 2, 0), ((2, 4), 3, 0)),
    "E7": (((1, 3, 4, 6), 2, 0), ((1, 6, 7), 2, 1), ((7,), 3, 0)),
    "E8": (((1, 6, 7, 8), 2, 0), ((7, 8), 3, 0)),
}


def is_generically_split(type_name: str, vertex: int, profiles: dict) -> bool:
    """profiles: {p: tuple}, each checked against its Kac entry; a missing prime
    has the trivial profile.

    The 8 published rows say when the variety of parabolics of type `vertex`
    is NOT generically split; everything unmatched is generically split.
    """
    dtype = DynkinType.parse(type_name)
    rows = _NOT_GENERICALLY_SPLIT.get(dtype.name())
    if rows is None:
        raise UsageError("classification covers F4, E6, E7, E8 only")
    checked_vertices(dtype.rank, (vertex,))
    for p, values in profiles.items():
        JProfile(p, tuple(values)).validate(kac_entry(dtype, p))
    return not any(vertex in vertices and p in profiles and profiles[p][i] for vertices, p, i in rows)


def forced_zero_indices(type_name: str, p: int, kernel) -> tuple:
    """Indices i (1-based) with j_i = 0 forced: no kernel generator has degree d_i."""
    kernel_degrees = set(kac_entry(kernel, p).degrees())
    return tuple(i for i, d in enumerate(kac_entry(type_name, p).degrees(), start=1)
                 if d not in kernel_degrees)
