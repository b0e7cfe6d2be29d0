"""Mod-2 Steenrod operations on Ch*(G/P_Theta): Bott-Samelson resolutions, fixed points.

For a reduced word (i_1..i_l) the resolution's Chow ring is

    Z[D_1..D_l] / (D_j^2 - D_j nu_j),
    nu_j = sum_{k<j} < s_{i_{k+1}} ... s_{i_{j-1}}(alpha_{i_j}), alpha_{i_k}^vee > D_k,

an iterated P^1-bundle presentation: nu_j is the first Chern class of the
normal bundle of the canonical section at stage j.  Its pairings, the
pullbacks of line bundles and the check that the word is reduced walk
packed weights (`weyl.packed_steps`, the coset table's encoding), one
shift and multiply-subtract per letter.
Square-free monomials prod_{j in T} D_j are the classes of sub-resolutions
on the complementary position set; such a monomial pushes forward to [X_v]
exactly when the complementary subword is reduced with product v a minimal
coset representative, and to 0 otherwise.

Over Z/2 a ring element is one int bitset over the 2^l square-free
monomials, so addition is xor.  Multiplying by a linear form is one sweep
from the top position down that uses D_k^2 = D_k nu_k; a handful of
big-int operations per position replaces any per-monomial work.  The
pushforward walks the subwords of each ring once, right to left, taking
only letters that are ascents of W^Theta, up to the largest degree asked
for, and reads the element's bit at each pushed subword, so no
monomial is ever listed.

The total operation on a pushed fundamental class is a Wu-type formula

    (I)   S([X_w]) = pi_*( pi^* c(T_X) . c(T_Z)^{-1} ),   or
    (II)  S([X_w]) = pi_*( pi^* c(T_X)^{-1} . c(T_Z) ),

everything evaluated inside the resolution ring mod 2 (pullbacks of line
bundles are explicit linear combinations of the D_j).  Convention I is the
one that gives a ring map (II fails the Cartan formula on A3); it is fixed
as WU_CONVENTION and checked before the first answer with products alone:
on the A2 and A3 full flags, S(h) = h + h^2 for every divisor h and
S(h b) = S(h) S(b) for every basis class b.  These rings are generated by
their divisors, so an additive S that passes is the total square; a
failure raises CalibrationError.  The products h [X_b] are taken once by
`multiply` and serve both sides: once S(h) = h + h^2 holds,
S(h) S(b) = h S(b) + h (h S(b)) is a sum of them, and S(h) S(b) is
multiplied out only for an h that fails it, so the checks are the same as
with every product multiplied out.

A basis class whose canonical word is longer than DIRECT_WORD_LIMIT is
solved at the torus-fixed points instead, as `schubert` solves products.
Mod 2, S sends a character chi to chi + chi^2 and commutes with
restriction, so S(xi^v)(x) is xi^v(x) at tau + tau^2 (squared
coordinatewise), tau a point of GF(2^8) at which no root vanishes
(`_point`, chosen after one pass that groups the positive roots by the
last index of their odd support).  Scaled by lambda, Billey's walk with
the factors lambda (r + lambda r^2) gives S^i(xi^v)(x) as the coefficient
of lambda^(n+i), n = l(v).  A factor acts on a series, one field element
per byte, through the bytes.translate tables of r and r^2; the table of an
element is built on that element's first use (`_table`), so a query builds
only the tables of the elements it meets, not all 255.  The solve reads
only xi^v(x) as a series and every other xi^w(x) at tau, its constant
term, so the walk keeps only the constant term of a state longer than n
(one table lookup per step), and it keeps only the lengths that can still
reach one the solve reads.  The fixed points are the upper set of v, found
by reflecting by every positive root with the pairings read off one coroot
chain (`weyl.coroot_chain`).  The triangular solve
c^x = (S(xi^v)(x) - sum_{w<x} c^w xi^w(x)) / xi^x(x) then gives at
lambda^(l(x)-n) the coefficient of xi^x in S^(l(x)-n)(xi^v): a constant in
{0, 1} with nothing below it, or an internal error.
"""

from __future__ import annotations

from functools import cache, reduce
from operator import xor
from types import MappingProxyType

from .errors import CalibrationError, InternalComputationError, ResourceLimitError, UsageError
from .rootdata import RootSystem, build_root_system
from .schubert import (
    ENTRY_CAP, ChowClass, check_degree, check_position, check_positions, flag_context, multiply,
)
from .weyl import (
    _BIAS, _MASK, CosetTable, checked_word, coset_reps, orbit_bound, pack_weight, packed_steps,
)

#: maximal reduced-word length for direct ring expansion (2^l basis monomials)
DIRECT_WORD_LIMIT = 18

#: the Wu-type formula below that passes the calibration (II fails it on A3)
WU_CONVENTION = "I"


@cache
def _selectors(length):
    """(clear, deg, below) bitset selectors over the 2^length square-free masks.

    clear[k] holds the masks without bit k, deg[d] those with d bits, and
    below[d] those with fewer than d bits.  They depend only on the length,
    so every ring of one word length shares them; kept for every length up
    to DIRECT_WORD_LIMIT, they hold under 4 MB.
    """
    n = 1 << length
    # masks without bit k: runs of 2^k set bits with period 2^(k+1), doubled up to n bits
    clear = []
    for k in range(length):
        sel, width = (1 << (1 << k)) - 1, 2 << k
        while width < n:
            sel |= sel << width
            width <<= 1
        clear.append(sel)
    # deg[d]: masks with d bits, grown one position at a time
    deg = [1]
    for k in range(length):
        deg = [a | (b << (1 << k)) for a, b in zip(deg + [0], [0] + deg)]
    below = [0]
    for piece in deg:
        below.append(below[-1] | piece)
    return tuple(clear), tuple(deg), tuple(below)


class BottSamelsonRing:
    """CH of the Bott-Samelson resolution of a reduced word, mod 2.

    An element is one int bitset: bit m is set when the square-free monomial
    with divisor mask m (bit j of m set means the factor D_{j+1} is present)
    occurs; addition is xor.  The selectors clear, deg and below (see
    `_selectors`) are built once per word length and shared by every ring
    of that length.
    """

    def __init__(self, rs: RootSystem, word):
        word = checked_word(rs, word)
        if len(word) > DIRECT_WORD_LIMIT:
            raise ResourceLimitError(
                f"Bott-Samelson word of length {len(word)} exceeds the direct limit "
                f"{DIRECT_WORD_LIMIT}"
            )
        self.rs = rs
        self.word = word
        self.length = len(word)
        # weights are walked packed (see weyl.packed_steps): steps[k] reflects by letter k
        table = packed_steps(rs)
        self._steps = steps = [table[i - 1] for i in word]
        # reducedness check: appending each letter must go up in length
        y = pack_weight(rs.rho)
        for shift, col in steps:
            f = (y >> shift & _MASK) - _BIAS
            if f < 0:
                raise UsageError(f"word {list(word)} is not reduced")
            y -= f * col
        # nu_j: alpha_{i_j} (the bias plus its packed column) pulled back along the letters before j
        zero = pack_weight([0] * rs.rank)
        self.nu = [self._pull(zero + col, j) for j, (_, col) in enumerate(steps)]
        self.clear, self.deg, self.below = _selectors(self.length)

    def one(self):
        return 1

    def mul_linear(self, elem, form, max_degree=None):
        """Multiply by the sum of the divisors at the positions in `form`.

        pending[k] is what is still to be multiplied by D_k.  Its monomials
        without D_k just gain it (a shift by 2^k); on the rest
        D_k^2 = D_k nu_k, so they move on to pending[m] for m in nu[k], all
        below k: one sweep from the top position down finishes the product.
        Each factor raises the degree by one, so truncating to max_degree
        drops the monomials of degree max_degree and above first.
        """
        if max_degree is not None and max_degree <= self.length:
            elem &= self.below[max(max_degree, 0)]
        if not elem or not form:
            return 0
        pending = [0] * (max(form) + 1)
        for k in form:
            pending[k] ^= elem
        out = 0
        for k in range(len(pending) - 1, -1, -1):
            x = pending[k]
            if x:
                low = x & self.clear[k]
                out ^= low << (1 << k)
                x ^= low
                if x:
                    for m in self.nu[k]:
                        pending[m] ^= x
        return out

    def mul_one_plus_series(self, elem, form, exponent, max_degree):
        """Multiply by (1 + form)^exponent truncated; exponent is +1 or -1.

        Mod 2, (1 + x)^{-1} = 1 + x + x^2 + ...
        """
        acc = elem
        term = elem
        for _ in range(max_degree + 1 if exponent == -1 else 1):
            term = self.mul_linear(term, form, max_degree=max_degree)
            if not term:
                break
            acc ^= term
        return acc

    def _pull(self, p, end):
        """The positions k < end, decreasing, where the packed weight p has an odd
        <s_{i_{k+1}} ... s_{i_{end-1}}(p), alpha_{i_k}^vee>: one shift and
        multiply-subtract per letter."""
        steps = self._steps
        odd = []
        for k in range(end - 1, -1, -1):
            shift, col = steps[k]
            f = (p >> shift & _MASK) - _BIAS
            if f:
                if f & 1:
                    odd.append(k)
                p -= f * col
        return tuple(odd)

    def pull_weight_class(self, mu):
        """c_1 of the pullback of the line bundle of weight mu, as a tuple of positions.

        The coefficient at D_k is <s_{i_{k+1}} ... s_{i_l}(mu), alpha_{i_k}^vee>;
        the positions kept are those where it is odd.  The walk is packed, so a
        weight is refused unless every coordinate it can reach fits its field:
        those are pairings with coroots, at most max |mu_j| times the largest
        coroot height, so roots always fit.
        """
        if max(map(abs, mu), default=0) * orbit_bound(self.rs, ()) >= _BIAS:
            raise UsageError(f"weight {list(mu)} can leave the packed field of its walk")
        return self._pull(pack_weight(mu), self.length)


def bs_pushforward(ring: BottSamelsonRing, elem, theta) -> ChowClass:
    """Push a ring element (an int bitset) to a mod-2 Schubert class on G/P_Theta.

    The monomial prod_{j in T} D_j is the sub-resolution on positions
    S = complement(T); it pushes to [X_v] when the subword at S is reduced
    and its product v is a minimal coset representative, else to 0.  The
    subwords are walked once, up to the top degree of `elem`, and the
    element's bit is read at each pushed subword's mask, so the cost
    follows the number of pushed subwords, not of monomials.
    """
    ct = coset_reps(ring.rs, theta)
    top = next((d for d in range(ring.length, 0, -1) if elem & ring.deg[d]), 0)
    out = set()
    for m, k in ct.subword_positions(ring.word, top).items():
        if elem >> m & 1:
            out ^= {k}
    return ChowClass(ring.rs.type.name(), ct.theta, "Z/2", dict.fromkeys(out, 1))


def _pushed_series(ct: CosetTable, idx, word, top):
    """{d: S^d([X_idx])}, nonzero pieces only, d <= top, by the resolution of `word`.

    `word` is a reduced word of the rep at position idx and Z its
    resolution; the pieces are pi_* of degree d of c(T_X)^eps c(T_Z)^-eps,
    with c(T_X) the product of the line bundles pulled back from the roots of
    the unipotent radical and c(T_Z) = prod_j (1 + nu_j); eps is +1 under
    WU_CONVENTION I and -1 under II, and no other code picks the sign.  A
    degree-d monomial lands in codimension codim(idx) + d, so one push of
    the whole product is split by codimension; degree 0 must give [X_idx].
    """
    eps = 1 if WU_CONVENTION == "I" else -1
    ring = BottSamelsonRing(ct.rs, word)
    elem = ring.one()
    for pr in flag_context(ct.rs, ct.theta).unipotent_roots:
        elem = ring.mul_one_plus_series(elem, ring.pull_weight_class(pr.omega), eps, top)
    for nu in ring.nu:
        elem = ring.mul_one_plus_series(elem, nu, -eps, top)
    base = ct.codim(idx)
    graded = {}
    for k in bs_pushforward(ring, elem, ct.theta).coeffs:
        graded.setdefault(ct.codim(k) - base, {})[k] = 1
    if graded.get(0) != {idx: 1}:
        raise InternalComputationError("resolution is not birational onto its image")
    name = ring.rs.type.name()
    return {d: ChowClass(name, ct.theta, "Z/2", graded[d]) for d in sorted(graded)}


# ---------------------------------------------------------------------------
# Calibration of the Wu-formula convention


def _cartan_failures(name):
    """The checks of the total square by WU_CONVENTION that fail on the full flags of `name`.

    S is the direct route's total square of each basis class, extended
    additively.  On every divisor h it is checked that S(h) = h + h^2 (listed
    as (h, None) when it fails), and on every basis class b other than the
    point class that S(h b) = S(h) S(b) (listed as (h, b)); h pt = 0 needs no
    check.  A full flag ring of type A is generated by its divisors, so an
    additive map that passes every check is the ring map with S(h) = h + h^2,
    the total square itself.

    Every product is taken by `multiply`, and those of two single classes,
    h [X_b], are taken once and reused: once S(h) = h + h^2 holds, S(h) S(b)
    = h S(b) + h (h S(b)) is read off them, and only an h that fails it
    multiplies S(h) S(b) out.  Classes mod 2 are sets of positions, added by
    symmetric difference.
    """
    rs = build_root_system(name)
    ct = coset_reps(rs, ())
    type_name = rs.type.name()

    def cls(positions):
        return ChowClass(type_name, (), "Z/2", dict.fromkeys(positions, 1))

    # S(b) for every basis class b, as the set of positions of its terms
    pieces = [_pushed_series(ct, k, ct.words[k], ct.codim(k)) for k in range(len(ct))]
    total = [set().union(*(piece.coeffs for piece in p.values())) for p in pieces]

    def summed(rows, positions):  # the sum of the classes rows[k] over k in positions
        return reduce(xor, [rows[k] for k in positions], set())

    failures = []
    for h in ct.of_codim(1):
        hh = cls([h])
        # h [X_b] for every b; position 0 is the point class, and h pt = 0
        times_h = [set()] + [set(multiply(hh, cls([b])).coeffs) for b in range(1, len(ct))]
        square = total[h] == {h} ^ times_h[h]
        if not square:
            failures.append((h, None))
        for b in range(1, len(ct)):
            if square:
                hs = summed(times_h, total[b])
                product = hs ^ summed(times_h, hs)
            else:
                product = set(multiply(cls(total[h]), cls(total[b])).coeffs)
            if summed(total, times_h[b]) != product:
                failures.append((h, b))
    return failures


@cache
def _calibrate():
    """Check WU_CONVENTION by the Cartan formula on the A2 and A3 full flags (see
    `_cartan_failures`); convention II fails on A3."""
    for name in ("A2", "A3"):
        failures = _cartan_failures(name)
        if failures:
            raise CalibrationError(
                f"Wu convention {WU_CONVENTION} fails {len(failures)} Cartan-formula checks "
                f"on the {name} full flags, the first at (divisor, class) {failures[0]}"
            )
    return WU_CONVENTION


# ---------------------------------------------------------------------------
# Long words: localization over GF(2^8)


@cache
def _logs():
    """(turn, log) in GF(2^8) = F2[y]/(y^8 + y^4 + y^3 + y + 1) for the generator y + 1:
    turn[k] = (y + 1)^(k mod 255) as bytes for k < 510, and log[c] the k < 255 with
    turn[k] = c, except log[0] = 255, which every table maps to 0."""
    exp = [1]
    for _ in range(254):
        a = exp[-1] ^ exp[-1] << 1
        exp.append(a ^ 0x11B if a & 0x100 else a)
    log = bytearray(256)
    log[0] = 255
    for k, a in enumerate(exp):
        log[a] = k
    return bytes(exp) * 2, bytes(log)


@cache
def _table(c):
    """The bytes.translate table of multiplication by c in GF(2^8), built on c's first use
    by translating the log table through a turn of the antilog table."""
    if not c:
        return bytes(256)
    turn, log = _logs()
    return log.translate(turn[log[c]:log[c] + 255] + b"\0")


def _inverse(c):
    """The inverse of c in GF(2^8), 0 for c = 0."""
    turn, log = _logs()
    return turn[255 - log[c]] if c else 0


@cache
def _point(rs: RootSystem):
    """tau in GF(2^8) on the simple roots, with no positive root vanishing there.

    A root is primitive, so mod 2 its simple-root coordinates have an odd
    support; tau_j is the least unit that keeps nonzero every root whose odd
    support ends at j, the roots grouped by that last index in one pass.  On
    every type under the positive-root cap the values stay at most 32, far
    inside the field."""
    groups = [[] for _ in range(rs.rank)]
    for pr in rs.positive_roots:
        odd = [k for k, c in enumerate(pr.root) if c & 1]
        groups[odd[-1]].append(odd[:-1])
    tau = []
    for group in groups:
        taken = {reduce(xor, [tau[k] for k in ks], 0) for ks in group}
        tau.append(next(c for c in range(1, 256) if c not in taken))
    return tuple(tau)


def _steenrod_by_localization(rs, theta, idx, want):
    """{d: S^d([X_idx])} for d <= want, nonzero pieces only, solved at the fixed points
    x above v, for [X_idx] = xi^v and n = l(v) (see the module docstring).

    A value is a series in lambda truncated at `size` terms, one int with
    coefficient k in byte k.  One walk and the memo of columns hold at most
    one entry per rep of length below n + size; past ENTRY_CAP the class is
    refused before any walk.
    """
    ct = coset_reps(rs, theta)
    n, v = ct.codim(idx), ct.dual_index(idx)
    size = min(want, ct.max_length - n) + 1
    if (entries := ct.of_length(n + size - 1).stop) > ENTRY_CAP:
        raise ResourceLimitError(
            f"{entries} fixed-point states (S^<= {size - 1} of a codimension-{n} class) exceed "
            f"the cap {ENTRY_CAP} for type {rs.type.name()}, theta={list(ct.theta)}")
    odd = [[a & 1 for a in row] for row in rs.cartan]

    def scale(series, c):
        return int.from_bytes(series.to_bytes(size, "little").translate(_table(c)), "little")

    def times(series, tables):  # series (r + lambda r^2), truncated, by the tables of r and r^2
        raw = series.to_bytes(size, "little")
        return (int.from_bytes(raw.translate(tables[0]), "little")
                ^ int.from_bytes(raw[:-1].translate(tables[1]), "little") << 8)

    def constant(series, tables):  # the constant term of series (r + lambda r^2): r series(0)
        return tables[0][series & 255]

    col = {}  # x -> its nonzero column c^x
    pieces = {}
    for x in sorted(ct.upper_set([v], n + size - 1)):
        word, t, factors = ct.words[x], list(_point(rs)), []
        for b in word:  # Billey's factors r as `_FlagContext._row` walks them, mod 2
            r = t[b - 1]
            table = _table(r)
            factors.append((table, _table(table[r])))
            t = [ti ^ r if a else ti for ti, a in zip(t, odd[b - 1])]
        # only xi^v(x) is read whole; past length n a state keeps its constant term
        row = ct.subword_sums(word, factors, range(n, n + size),
                              [times] * (n + 1) + [constant] * (len(word) - n))
        acc = row.get(v, 0)
        for w, c in col.items():
            if w in row:
                acc ^= scale(c, row[w] & 255)
        acc = scale(acc, _inverse(row[x] & 255))
        i = len(word) - n
        if acc & (1 << 8 * i) - 1 or acc >> 8 * i & 255 > 1:
            raise InternalComputationError(f"Steenrod coefficient at fixed point {x} is not in F2")
        if acc:
            col[x] = acc
            if acc >> 8 * i & 1:
                pieces.setdefault(i, {})[ct.dual_index(x)] = 1
    if pieces.get(0) != {idx: 1}:
        raise InternalComputationError("S^0 at the fixed points is not the identity")
    return {d: ChowClass(rs.type.name(), ct.theta, "Z/2", pieces[d]) for d in sorted(pieces)}


def steenrod_basis_element(rs, theta, idx, up_to=None):
    """Graded Steenrod pieces {i: S^i} of one mod-2 basis class, i <= up_to (cached).

    The bound is clipped to the class's codimension first, so every bound at
    or above it shares one entry.  A position or bound of the wrong kind is
    a usage error.
    """
    check_degree(up_to, "Steenrod degree")
    ct = coset_reps(rs, theta)
    check_position(idx, ct)
    codim = ct.codim(idx)
    return _basis_pieces(rs, ct.theta, idx, codim if up_to is None else min(up_to, codim))


@cache
def _basis_pieces(rs, theta, idx, want):
    """S^0..S^want of [X_idx] by the direct ring or, for a long word, at the fixed points.

    Read-only, as every caller shares the cached mapping.
    """
    _calibrate()
    ct = coset_reps(rs, theta)
    if ct.length(idx) <= DIRECT_WORD_LIMIT:
        return MappingProxyType(_pushed_series(ct, idx, ct.words[idx], want))
    return MappingProxyType(_steenrod_by_localization(rs, theta, idx, want))


def steenrod_total(cls: ChowClass, up_to=None):
    """The graded list S^0(cls)..S^max(cls) for a mod-2 class.

    S is additive, so the class is expanded over the basis; each basis
    element goes through its own resolution (or, for a long word, the
    fixed points).
    """
    if cls.ring != "Z/2":
        raise UsageError("steenrod_total expects a Z/2 class")
    check_degree(up_to, "Steenrod degree")
    rs = build_root_system(cls.type_name)
    ct = coset_reps(rs, cls.theta)
    check_positions(cls, ct)
    if cls.is_zero():
        return [cls]
    top = max(ct.codim(k) for k in cls.coeffs)
    want = top if up_to is None else min(up_to, top)
    pieces = [set() for _ in range(want + 1)]
    for k, c in cls.coeffs.items():
        if c % 2 == 0:
            continue
        for d, piece in steenrod_basis_element(rs, cls.theta, k, up_to=want).items():
            pieces[d].symmetric_difference_update(piece.coeffs)
    return [ChowClass(cls.type_name, cls.theta, "Z/2", dict.fromkeys(p, 1)) for p in pieces]


def wu_convention():
    """The Wu convention name, checked by the calibration on first use.

    "I": S(f_* a) = c(T_Y) f_*(c(T_X)^{-1} S(a)).
    """
    return _calibrate()
