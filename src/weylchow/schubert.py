"""The Chow ring of G/P_Theta in the Schubert basis.

Basis classes [X_w] are indexed by positions in the CosetTable of W^Theta;
codim [X_w] = dim X - l(w), so index 0 (the identity) is the point class
and the longest representative is the fundamental class.  The basis class at
position k is the Schubert class xi^v of v = w0 w_k w_Theta, the
representative at `ct.dual_index(k)`, of codimension l(v).

Products and Chern classes are computed by localization at the T-fixed
points, one per representative x (Kostant-Kumar; Billey, Duke Math. J. 96):
an equivariant class is determined by its restrictions to the fixed points,
and the restriction of xi^v to x vanishes unless v <= x, with xi^x(x) the
product of the roots r_j below.  Every restriction is taken at one integer
point, t0 = 2 rho^vee, where each positive root takes the value 2 height > 0.

- Restriction rows.  For the canonical word b_1 ... b_l of x and
  r_j = s_b_1 ... s_b_(j-1)(alpha_b_j), xi^v(x) is the sum over the subwords
  that are reduced words of v of the product of their r_j.  One right-to-left
  walk over the word gives it for every v (`CosetTable.subword_sums`); the
  rows are memoized per flag variety (`_FlagContext.rows`).
- Triangular solve.  F = sum_w c^w xi^w with c^w of degree deg F - l(w) is
  solved for c^w(t0) in increasing length (`_FlagContext.solve`); each
  division is exact in the integers, and a remainder is an internal error.
  The constants c^x with l(x) = deg F are the Schubert coefficients.  A
  product takes F = a b, the Chern class c_k takes F = e_k of the tangent
  weights x(-U), and every degree is solved in one pass.  At each x the e_k
  come from one integer product, every degree a field of the same width
  (`_elementary_symmetric`).
- Only the fixed points that can carry a coefficient.  A Chern class
  visits every x with l(x) <= its degree; a product only those above a
  term of each factor in the Bruhat order, since a(x) b(x) vanishes at
  every other x and so does every c^x (`_FlagContext.fixed_points`).  The
  cut is read off the factors' supports, never off values: a factor with
  terms of both signs can vanish at an x above its support by cancellation.
- Cap before work.  The walk for x holds at most G(l(x)) states, G(l) the
  representatives of length <= l (the table's layers, the coefficients of
  g(X)).  Under ENTRY_CAP for every x with l(x) <= n, the rows a query
  needs are memoized and the Bruhat order is read off them (a product
  needs the rows from the longer of its factors' shortest terms up to n);
  past it a Chern class is refused with ResourceLimitError before any row
  is built, and a product finds the x above both factors by a walk up the
  Bruhat order, with only the lengths the solve reads in their rows, so
  near-complementary products on large flag varieties stay cheap.

No product, Chern class or Steenrod square reads a polynomial.  The Borel
presentation (invariant polynomials, the characteristic map, preimages and
the divided-difference sweep) is kept in the tests as the reference these
routes are held to; the package keeps only `invariant_generators`, which
builds the W_Theta-invariant generators in `polynomial` on first call.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import accumulate, repeat
from math import lcm, prod
from operator import mul, or_
from types import MappingProxyType

from .errors import InternalComputationError, ResourceLimitError, UsageError
from .rootdata import Record, RootSystem, build_root_system, checked_vertices, ring_modulus
from .weyl import CosetTable, WeylElement, checked_word, coset_reps

#: restriction-walk states above which a product or a Chern class is refused before any
#: row is built.  The walk for x holds at most one state per representative of length
#: <= l(x), G(l(x)) of them (read off the table's layers), and leaves the whole row, one
#: value per v <= x; a query is counted as the sum over the x it solves at (a windowed
#: walk as in `_FlagContext._counts`).  Measured with tracemalloc on CPython 3.11 (E8,
#: Theta = {2, ..., 8}: all 2,160 rows, counted 2,380,359, 1.78M values, 157 MB), a value
#: takes about 88 bytes, so rows at the cap take at most about 265 MB.  There the rows
#: took 7-10 s and every integral Chern class a further 15-25 s (187 MB peak RSS), most
#: of it the back-substitution (the range of several runs on a shared 2-core VM).
ENTRY_CAP = 3_000_000

# ---------------------------------------------------------------------------
# Chow classes


class ChowClass(Record):
    """A sparse element of CH*(G/P_Theta) over the Schubert basis.

    Immutable, coefficients included (a read-only mapping), and normalized
    when built: over Z/p every coefficient is reduced into [0, p) (a Fraction
    through the inverse of its denominator), over Z an integral Fraction
    becomes an int, over Q values are kept as given, and zero coefficients
    are dropped.
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
        object.__setattr__(self, "coeffs", MappingProxyType(out))

    def __reduce__(self):
        # a mapping proxy does not pickle; its dict does
        return ChowClass, (self.type_name, self.theta, self.ring, dict(self.coeffs))

    def __hash__(self):
        # nor does it hash; its items do, and equal classes have equal items
        return hash((self.type_name, self.theta, self.ring, frozenset(self.coeffs.items())))

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


def _integral(cls: ChowClass):
    """(L, {position: L * coefficient}): cls read over the integers, L the common
    denominator of its coefficients.  A Z/p coefficient is its representative in
    [0, p), so L = 1 there."""
    L = lcm(*(c.denominator for c in cls.coeffs.values()))
    return L, {k: c.numerator * (L // c.denominator) for k, c in cls.coeffs.items()}


def check_positions(cls: ChowClass, ct: CosetTable):
    """UsageError unless every coefficient key of cls is a position of ct: an int,
    not a bool, in 0..len(ct) - 1."""
    for k in cls.coeffs:
        if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k < len(ct):
            raise UsageError(f"basis position {k!r} must be an integer in 0..{len(ct) - 1}")


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
        rs = build_root_system(data["type"])
        theta = data.get("theta", [])
        if not isinstance(theta, list):  # a string or an object would iterate as vertices
            raise UsageError(f"theta {theta!r} must be a list of integer vertices")
        ct = _flag_context(rs, checked_vertices(rs.rank, theta, "theta vertex")).ct
        ring = data.get("ring", "Z")
        if not isinstance(ring, str):
            raise UsageError(f"ring {ring!r} must be a string such as \"Z/2\"")
        terms = data.get("terms", [])
        if not isinstance(terms, list):  # an object would iterate as its keys
            raise UsageError(f"terms {terms!r} must be a list of terms")
        coeffs: dict = {}
        for term in terms:
            word = term["word"]
            k = ct.index.get(checked_word(rs, word))  # checked first: True would hash as 1
            if k is None:  # not the canonical word of a rep: canonicalize and look again
                w = WeylElement.from_word(rs, word)
                if w.length != len(word):
                    raise UsageError(f"word {word} is not reduced")
                k = ct.index.get(w.word)
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


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _coefficient_from_json(c):
    """An exact coefficient: a JSON integer or a rational string such as "-3/4"."""
    if isinstance(c, int) and not isinstance(c, bool):
        return c
    # Fraction() alone would also read "1_0", " 3", "+3", "1e2", "1.5" and non-ASCII digits
    if isinstance(c, str) and _RATIONAL.fullmatch(c):
        try:
            return Fraction(c)
        except ZeroDivisionError:
            raise UsageError(f"coefficient {c!r} has a zero denominator") from None
    raise UsageError(f"coefficient {c!r} must be an integer or a rational string")


# ---------------------------------------------------------------------------
# Duality


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


class _FlagContext:
    """Per-(root system, theta) machinery: coset table, fixed-point rows, memos.

    Codimension layers are read from the coset table (`ct.of_codim`).
    Products and Chern classes share one memo, the fixed-point restriction
    rows (`rows`), and the Chern classes keep their own.
    """

    def __init__(self, rs: RootSystem, theta):
        self.rs = rs
        self.ct = coset_reps(rs, theta)
        self.theta = self.ct.theta
        self.dim = self.ct.max_length
        self._rows = {}          # position x -> restriction row of x (see rows)
        self._above = {}         # position v -> bitmask of x with v <= x (see fixed_points)
        self._row_entries = 0    # the memo's rows counted as in ENTRY_CAP
        # grow-on-demand memo: integral c_0 .. c_b as coefficient maps serve requests <= b
        self._chern = []

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
        omegas = {pr.omega for pr in U}
        for i in self.theta:
            for pr in U:
                if rs.reflect_weight(i - 1, pr.omega) not in omegas:
                    raise InternalComputationError("unipotent-radical roots not Theta-stable")
        return U

    # -- localization at the fixed points -----------------------------------

    def _counts(self, top, lengths=None):
        """l -> the most states the restriction walk of an x of length l holds at once,
        for l = 0..top (see ENTRY_CAP).

        After j letters the states are reps of length m <= j, at most g_m of
        each.  A whole row ends with one state per v <= x, so at most G(l), the
        reps of length <= l.  With `lengths` (see `CosetTable.subword_sums`), a
        state of length m is kept only while some wanted length lies in
        m..m + (l - j), which bounds every step and so the row.
        """
        sizes = [len(self.ct.of_length(m)) for m in range(top + 1)]
        if lengths is None:
            return list(accumulate(sizes))
        wanted = sorted(lengths)
        reach = [next((n for n in wanted if n >= m), top + 1) for m in range(top + 1)]
        return [max(sum(g for m, g in enumerate(sizes[: j + 1]) if reach[m] <= m + l - j)
                    for j in range(l + 1))
                for l in range(top + 1)]

    @cached_property
    def _layers(self):
        """[(positions of length l, the most states the walks of every x with l(x) <= l
        hold)] for l = 0..dim."""
        out, total = [], 0
        for l, count in enumerate(self._counts(self.dim)):
            layer = self.ct.of_length(l)
            total += len(layer) * count
            out.append((layer, total))
        return out

    def _refuse(self, entries, top):
        return ResourceLimitError(
            f"{entries} restriction-walk states (codim up to {top}) exceed the cap {ENTRY_CAP} "
            f"for type {self.rs.type.name()}, theta={list(self.theta)}"
        )

    def fixed_points(self, top, supports=()):
        """(xs, lengths): the positions of the fixed points a solve up to degree top
        visits, increasing, and the lengths of the v whose xi^v(x) the solve reads
        (None: every v <= x).  Table order is by length, so xs is a valid solve order.

        These are the x with l(x) <= top and, given the two supports of a
        product's factors (positions of classes xi^v), only those above some v
        of each support in the Bruhat order: a(x) b(x) vanishes at every other
        x, and so does every c^x of the product.  The cut is read off the
        supports alone, never off a factor's values.

        Such an x is no shorter than the longest of the two supports'
        shortest terms.  When the walks of every x with l(x) <= top count at
        most ENTRY_CAP states, the rows of the x from that length up to top
        are memoized (`rows`) and the order is read off them: every xi^v(x) at
        t0 is a sum of products of positive values, so v <= x exactly when v
        is a key of row x.  `_above[v]` keeps the x found above v as one
        bitmask, and `_above[0]` (the identity, below every x) the x whose
        rows were read.  The masks are facts of the order, so they outlive
        the rows; the prefix of n positions they lie in counts at least
        1 + 2 + ... + n states, under the cap, so they hold fewer than
        2 ENTRY_CAP bits.

        Past the cap a Chern class is refused before any row is built, and a
        product walks up the Bruhat order instead, its rows holding only the
        values at the supports' lengths and from the longest shortest term
        up.  The smaller of the two upper sets is grown, the two in turn
        until one is complete, then cut to the x above the other support;
        when both pass the cap the product is refused without finishing
        either.
        """
        ct = self.ct
        top = min(top, self.dim)
        entries = self._layers[top][1]
        if entries <= ENTRY_CAP:
            end = ct.of_length(top).stop  # the x with l(x) <= top are the positions below end
            if not supports:
                return range(end), None
            start = ct.of_length(min(top, max(min(map(ct.length, s)) for s in supports))).start
            within = (1 << end) - (1 << start)
            above = self._above
            if missing := within & ~above.get(0, 0):
                self.rows(range(start, end))
                for x in range(start, end):
                    if missing >> x & 1:
                        for v in self._rows[x][0]:
                            above[v] = above.get(v, 0) | 1 << x
            for support in supports:
                within &= reduce(or_, [above.get(v, 0) for v in support], 0)
            return [x for x, bit in enumerate(reversed(bin(within))) if bit == "1"], None
        if not supports:
            raise self._refuse(entries, top)
        terms = [{ct.length(v) for v in s} for s in supports]
        lengths = set.union(*terms, range(max(map(min, terms)), top + 1))
        counts = self._counts(top, lengths)
        walks = [ct.upper_set(s, top) for s in supports]
        found = [[] for _ in walks]
        entries = [0 for _ in walks]
        while min(entries) <= ENTRY_CAP:
            for i, walk in enumerate(walks):
                if entries[i] > ENTRY_CAP:
                    continue
                x = next(walk, None)
                if x is None:
                    other = supports[1 - i]
                    return sorted(x for x in found[i] if ct.bruhat_above(x, other)), lengths
                found[i].append(x)
                entries[i] += counts[ct.length(x)]
        raise self._refuse(min(entries), top)

    def _row(self, x, lengths=None):
        """The restriction row of the fixed point x (see `rows`)."""
        word = self.ct.words[x]
        t = [2] * self.rs.rank
        factors = []
        for b in word:
            tb = t[b - 1]
            factors.append(tb)
            t = [v - tb * a for v, a in zip(t, self.rs.cartan[b - 1])]
        return self.ct.subword_sums(word, factors, lengths), t

    def rows(self, xs, lengths=None):
        """Restriction rows of the fixed points at the positions xs, by position.

        Row x is ({position v: xi^v(x)}, t) at t0 = 2 rho^vee, with t the
        coweight x^-1(t0) as its pairings <alpha_i, t>.  Walking the canonical
        word b_1 ... b_l of x from t = t0 (every <alpha_i, t0> = 2), the letter
        b_j meets r_j(t0) = <alpha_b_j, t> and then reflects t by s_b_j; those
        values are Billey's factors r_j = s_b_1 ... s_b_(j-1)(alpha_b_j), and
        `CosetTable.subword_sums` sums their products over the subwords.

        Whole rows come from the memo, which is emptied when new rows would
        take it past ENTRY_CAP (counted as there), so it holds no more
        than one query may.  With `lengths`, the rows hold only the v of those
        lengths; they are built for this call and not kept.
        """
        if lengths is not None:
            return {x: self._row(x, lengths) for x in xs}
        memo = self._rows
        xs = list(xs)
        missing = [x for x in xs if x not in memo]
        if not missing:
            return memo
        counts = self._counts(self.dim)
        if self._row_entries + sum(counts[self.ct.length(x)] for x in missing) > ENTRY_CAP:
            memo.clear()
            self._row_entries, missing = 0, xs
        for x in missing:
            memo[x] = self._row(x)
            self._row_entries += counts[self.ct.length(x)]
        return memo

    def solve(self, degrees, rhs, supports=()):
        """The degree-0 Schubert coefficients of classes given by their restrictions.

        rhs(row, t) lists the values at one fixed point (see `rows`) of
        equivariant classes F_d, one homogeneous class of degree d per entry of
        the increasing `degrees`.  With F_d = sum_w c_d^w xi^w and c_d^w a
        polynomial of degree d - l(w), going through the x of `fixed_points`
        (supports as there) in increasing length and using xi^w(x) = 0 unless
        w <= x,

            c_d^x = (F_d(x) - sum over w < x of c_d^w xi^w(x)) / xi^x(x),

        all values at t0.  The sum runs over the nonzero c_d^w found so far
        when they are fewer than the keys of row x (a product's sparse
        columns), else over the row (a Chern class's dense ones).  Every
        c_d^w(t0) is an integer, so a division that leaves a remainder raises
        InternalComputationError.  Returns, per degree d, {basis position of
        xi^x: c_d^x} over l(x) = d, the constants that do not depend on t0.
        """
        ct = self.ct
        xs, lengths = self.fixed_points(degrees[-1], supports)
        rows = self.rows(xs, lengths)
        cols = [{} for _ in degrees]  # degree index -> {x: c_d^x}, the nonzero ones
        out = [{} for _ in degrees]
        zeros = repeat(0)
        for x in xs:
            length = ct.length(x)
            first = bisect_left(degrees, length)  # c_d^x = 0 for d < l(x)
            row, t = rows[x]
            acc = rhs(row, t)
            for j in range(first, len(degrees)):
                col = cols[j]  # c_d^x is still 0 in its own sum
                if len(col) < len(row):
                    acc[j] -= sum(map(mul, map(row.get, col, zeros), col.values()))
                else:
                    acc[j] -= sum(map(mul, map(col.get, row, zeros), row.values()))
                if acc[j]:
                    q, r = divmod(acc[j], row[x])
                    if r:
                        raise InternalComputationError(
                            f"restriction at fixed point {x} is not divisible by xi^x(x)"
                        )
                    col[x] = q
            if first < len(degrees) and degrees[first] == length and x in cols[first]:
                out[first][ct.dual_index(x)] = cols[first][x]
        return out

    # -- Chern classes ----------------------------------------------------

    def chern_classes(self, max_codim=None, ring="Z"):
        """Graded Chern classes of the tangent bundle, c_0 .. c_max_codim.

        At x the tangent weights are x(-U) for U the unipotent roots, so c_k^T
        restricts to e_k of their values -<beta, x^-1(t0)>; one `solve` gives
        every c_k over Z, reduced into the ring when the classes are built.
        """
        if max_codim is not None and max_codim < 0:
            raise UsageError(f"codimension must be nonnegative, got {max_codim}")
        ring_modulus(ring)  # a bad ring is refused before any row is built
        top = self.dim if max_codim is None else min(max_codim, self.dim)
        if len(self._chern) <= top:
            roots = [pr.root for pr in self.unipotent_roots]

            def esym(row, t):
                return _elementary_symmetric([-sum(map(mul, root, t)) for root in roots], top)

            self._chern = self.solve(range(top + 1), esym)
        name = self.rs.type.name()
        return [ChowClass(name, self.theta, ring, c) for c in self._chern[: top + 1]]


def _elementary_symmetric(values, top):
    """[e_0, ..., e_top] of the integers `values`, exact, by Kronecker substitution.

    With P the product of the 1 + |g|, every |e_k(g)| <= e_k(|g|) < 2^(B-1) for
    B = bitlen(P) + 1, so each e_k is one balanced base-2^B digit of the product
    of the 1 + g 2^B.  Only the low top + 1 digits are kept after each factor (the
    low digits of a product depend only on its factors' low digits), then each is
    read back through a shift by 2^(B-1), which keeps the digits free of borrows.
    """
    B = prod([1 + abs(g) for g in values]).bit_length() + 1
    low = (1 << B) - 1
    mask = (1 << (top + 1) * B) - 1
    packed = 1
    for g in values:
        packed = (packed + (packed * g << B)) & mask
    half = 1 << B - 1
    packed += mask // low * half  # half in every digit
    return [(packed >> k * B & low) - half for k in range(top + 1)]


def flag_context(rs: RootSystem, theta) -> _FlagContext:
    """The shared _FlagContext of G/P_Theta (cached per root system and theta)."""
    return _flag_context(rs, checked_vertices(rs.rank, theta))


@cache
def _flag_context(rs: RootSystem, theta: tuple) -> _FlagContext:
    return _FlagContext(rs, theta)


def invariant_generators(rs: RootSystem, theta):
    """The W_Theta-invariant generators of the Borel presentation, as polynomials.

    omega_i for i not in theta and one orbit power sum per fundamental degree
    of <Theta>, built by `polynomial._invariant_generators` on first call (the
    only use of `polynomial` in the package) and cached per root system and theta.
    """
    return _invariant_generators(rs, checked_vertices(rs.rank, theta))


@cache
def _invariant_generators(rs: RootSystem, theta: tuple):
    from . import polynomial

    return polynomial._invariant_generators(rs, theta)


def multiply(a: ChowClass, b: ChowClass) -> ChowClass:
    """Product in CH*(G/P_Theta) by localization at the fixed points.

    The factors are read as integer combinations of the classes xi^v (a
    coefficient over Q is scaled by its class's common denominator, one over
    Z/p is its representative in [0, p)); the product of the graded parts of
    codimensions da and db is solved at degree da + db, every degree in one
    pass of `_FlagContext.solve` at the fixed points above both factors'
    supports, and the scales are divided out last.  A coefficient key that
    is not a position of the coset table is a usage error.
    """
    _check_compatible(a, b)
    ctx = _class_context(a.type_name, tuple(a.theta))
    ct = ctx.ct
    check_positions(a, ct)
    check_positions(b, ct)

    def integral_parts(cls):
        """(scale, {codim: [(position of xi^v, integer coefficient)]}) from `_integral`."""
        scale, ints = _integral(cls)
        parts = {}
        for k, c in ints.items():
            parts.setdefault(ct.codim(k), []).append((ct.dual_index(k), c))
        return scale, parts

    la, parts_a = integral_parts(a)
    lb, parts_b = integral_parts(b)
    degrees = sorted({da + db for da in parts_a for db in parts_b if da + db <= ctx.dim})
    where = {n: j for j, n in enumerate(degrees)}
    # (degree index, a's positions, a's coefficients, b's positions, b's coefficients)
    pairs = [(where[da + db], *zip(*ta), *zip(*tb)) for da, ta in parts_a.items()
             for db, tb in parts_b.items() if da + db in where]
    zeros = repeat(0)

    def products(row, t):
        out = [0] * len(degrees)
        get = row.get
        for j, va, ca, vb, cb in pairs:
            if fa := sum(map(mul, map(get, va, zeros), ca)):
                out[j] += fa * sum(map(mul, map(get, vb, zeros), cb))
        return out

    den = la * lb
    coeffs = {}
    if degrees:
        supports = [[v for terms in parts.values() for v, _ in terms]
                    for parts in (parts_a, parts_b)]
        for layer in ctx.solve(degrees, products, supports):
            if den == 1 and a.ring != "Q":  # an integer is its own coefficient over Z and Z/p
                coeffs.update(layer)
            else:
                coeffs.update((k, Fraction(c, den)) for k, c in layer.items())
    return ChowClass(a.type_name, a.theta, a.ring, coeffs)


@cache
def _class_context(type_name: str, theta: tuple) -> _FlagContext:
    """The flag context of classes carrying (type_name, theta), cached by the two as
    spelled, so a class's variety is parsed and checked once."""
    return flag_context(build_root_system(type_name), theta)


def _poly_limit(dim: int) -> int:
    """The route split the recorded products golden pools were drawn with.

    Only perfbench/record_golden.py reads it; multiplication does not.
    """
    return max((dim + 1) // 2 + 1, 9)


def pullback_to_flags(cls: ChowClass) -> ChowClass:
    """CH*(G/P) -> CH*(G/B), [X_w] -> [X_{w w_theta}] (a ring injection)."""
    ct = _class_context(cls.type_name, tuple(cls.theta)).ct
    check_positions(cls, ct)
    flags = coset_reps(ct.rs, ())
    out = {}
    for k, c in cls.coeffs.items():
        w = ct.reps[k] * ct.w_theta
        out[flags.index[w.word]] = c
    return ChowClass(cls.type_name, (), cls.ring, out)


def chern_tangent(rs: RootSystem, theta, max_codim=None, ring="Z"):
    """Graded Chern classes of T_{G/P_Theta}, c_0 .. c_max_codim, by localization."""
    return flag_context(rs, theta).chern_classes(max_codim=max_codim, ring=ring)
