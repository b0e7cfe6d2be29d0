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
    DynkinType, Record, RootSystem, build_root_system, is_small_prime, root_subsystem,
)


class TitsIndex(Record):
    __slots__ = ("type", "circled")

    def __init__(self, type: DynkinType, circled: tuple):
        n = type.rank
        for i in circled:
            if not 1 <= i <= n:
                raise UsageError(f"circled vertex {i} out of range 1..{n}")
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "circled", circled)


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
        n = type.rank
        for m in indices:
            for i in m:
                if not 1 <= i <= n:
                    raise UsageError(f"circled vertex {i} out of range 1..{n}")
        members = [set(m) for m in indices]
        minimal = [m for m in members if not any(o < m for o in members)]
        if len(minimal) != 1:
            raise UsageError("higher index set must have a unique minimal element")
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "indices", indices)

    @staticmethod
    def build(dtype: DynkinType, subsets) -> "HigherIndexSet":
        idx = tuple(sorted({tuple(sorted(set(s))) for s in subsets}))
        return HigherIndexSet(dtype, idx)

    def minimum(self):
        members = [set(m) for m in self.indices]
        for m in members:
            if not any(set(o) < m for o in self.indices):
                return tuple(sorted(m))
        raise AssertionError


class Automaton(Record):
    __slots__ = (
        "type",
        "states",          # circled subsets, sorted
        "labels",          # display name per state
        "transitions",     # (from_state_pos, to_state_pos, label vertex)
    )

    def __init__(self, type: DynkinType, states: tuple, labels: tuple, transitions: tuple):
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "transitions", transitions)


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


_KERNEL_REALIZATION = {
    # type -> kernel name -> circled subset
    "F4": {"F4": (), "B3": (4,), "1": (1, 2, 3, 4)},
    "E6": {"E6": (), "D4": (1, 6), "A2xA2": (2, 4), "1": (1, 2, 3, 4, 5, 6)},
    "E7": {"E7": (), "E6": (7,), "D6": (1,), "D4": (1, 6, 7), "1": (1, 2, 3, 4, 5, 6, 7)},
}


def higher_index_table(type_name: str, invariants: dict) -> HigherIndexSet:
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
    kernels: list
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
    elif type_name == "E7":
        kernels = ["1", "E7"]
        if not invariants.get("J2_trivial", True):
            kernels.insert(1, "D4")
        if not invariants.get("J3_trivial", True):
            kernels.insert(-1, "E6")
        if not invariants.get("has_zero_cycle", True):
            kernels.insert(-1, "D6")
    else:
        raise UsageError(f"unsupported type {type_name}")
    try:
        subsets = [real[k] for k in kernels]
    except KeyError as exc:
        raise UsageError(f"unsupported invariant combination: {exc}") from exc
    return HigherIndexSet.build(dtype, subsets)


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

    def __init__(self, type: DynkinType, p: int, pairs: tuple):
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "pairs", pairs)

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


def kac_entry(dtype, p: int) -> KacEntry:
    """Embedded (d_i, k_i) table; non-torsion primes give the empty entry."""
    if isinstance(dtype, str):
        dtype = DynkinType.parse(dtype)
    if not is_small_prime(p):
        raise UsageError(f"p must be a prime below 2^31, got {p}")
    pairs = []
    for family, rank in dtype.components:
        pairs.extend(_simple_kac_pairs(family, rank, p))
    pairs.sort()
    for d, _ in pairs:
        if d % p == 0:
            raise UsageError("degree not coprime to p in Kac data")
    return KacEntry(dtype, p, tuple(pairs))


class JProfile(Record):
    __slots__ = ("p", "values")

    def __init__(self, p: int, values: tuple):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "values", values)

    def validate(self, entry: KacEntry):
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


def is_generically_split(type_name: str, vertex: int, profiles: dict) -> bool:
    """profiles: {p: tuple}; missing primes are treated as trivial profiles.

    The 8 published rows say when the variety of parabolics of type `vertex`
    is NOT generically split; everything unmatched is generically split.
    """
    dtype = DynkinType.parse(type_name)
    if dtype.components not in {(("F", 4),), (("E", 6),), (("E", 7),), (("E", 8),)}:
        raise UsageError("classification covers F4, E6, E7, E8 only")
    if not 1 <= vertex <= dtype.rank:
        raise UsageError(f"vertex {vertex} out of range")
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


def forced_zero_indices(type_name: str, p: int, kernel) -> tuple:
    """Indices i (1-based) with j_i = 0 forced: no kernel generator has degree d_i."""
    entry = kac_entry(type_name, p)
    if isinstance(kernel, str):
        kernel = DynkinType.parse(kernel)
    kernel_degrees = {d for d, _ in kac_entry(kernel, p).pairs}
    out = []
    for i, (d, _) in enumerate(entry.pairs, start=1):
        if d not in kernel_degrees:
            out.append(i)
    return tuple(out)
