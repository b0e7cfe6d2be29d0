"""Slow, independent reference implementations that only the tests use."""

import json
from fractions import Fraction

from weylchow.errors import InternalComputationError
from weylchow.motive import MotiveSummand, decompose, refine_rost
from weylchow.polynomial import BITS, MASK, Polynomial, _unit, unpack_monomial
from weylchow.rootdata import root_subsystem, weyl_degrees
from weylchow.schubert import (
    _CANDIDATE_POINTS,
    ChowClass,
    _Echelon,
    _orbit,
    _sub_fundamental_seeds,
)
from weylchow.weyl import apply_word, coset_reps, hasse_diagram


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
                es[k] = e.reduce_mod(modulus) if modulus else e
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

    for point in _CANDIDATE_POINTS:
        pt = point[:n]
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


def multiply_by_preimage_product(ctx, a, b, k, ring):
    """a * b from one delta sweep of the product of the two preimage polynomials.

    The package assembles the same product from memoized images of
    generator monomials, without multiplying polynomials.
    """
    da, A = ctx.preimage_of(a)
    db, B = ctx.preimage_of(b)
    scalars = ctx.delta_scalars(A * B, max_len=k)
    coeffs = {}
    for idx, c in scalars.items():
        if ctx.ct.reps[idx].length == k:
            coeffs[ctx.ct.dual_index(idx)] = Fraction(c, da * db)
    return ChowClass(a.type_name, a.theta, ring, coeffs)


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
    h = hasse_diagram(ct)
    adj = {v: [] for v in h.vertices}
    for a, b, label in h.edges:
        if label not in circled:
            adj[a].append(b)
            adj[b].append(a)
    kernel = root_subsystem(rs, sorted(set(range(1, rs.rank + 1)) - circled))
    seen = set()
    out = []
    for start in h.vertices:
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


def hasse_json_by_json_dumps(h):
    payload = {
        "type": h.table.rs.type.name(),
        "theta": list(h.theta),
        "vertices": [
            {"word": list(w.word), "length": w.length} for w in h.table.reps
        ],
        "edges": [{"from": a, "to": b, "label": i} for a, b, i in h.edges],
    }
    return json.dumps(payload, sort_keys=True)


def hasse_dot_by_fstrings(h):
    lines = ["digraph hasse {"]
    for k in h.vertices:
        w = h.table.reps[k]
        label = f"{list(w.word)} ({w.length})"
        lines.append(f'  n{k} [label="{label}"];')
    for a, b, i in h.edges:
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
    h = hasse_diagram(ct)
    summands = decompose(rs, theta, circled)
    colors = ["red", "blue", "green", "orange", "purple", "brown", "cyan",
              "magenta", "gray", "olive", "pink", "navy"]
    color_of = {}
    for n, s in enumerate(summands):
        for v in s.vertices:
            color_of[v] = colors[n % len(colors)]
    circled = set(circled)
    lines = ["digraph motive {"]
    for v in h.vertices:
        w = ct.reps[v]
        lines.append(
            f'  n{v} [label="{list(w.word)} ({w.length})", color={color_of[v]}];'
        )
    for a, b, label in h.edges:
        if label in circled:
            lines.append(f'  n{a} -> n{b} [label="{label}", style=dotted];')
        else:
            lines.append(f'  n{a} -> n{b} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
