import itertools

import pytest

from weylchow import univar
from weylchow.errors import UsageError
from weylchow.rootdata import DynkinType, build_root_system
from weylchow.titsjinv import (
    _EXCEPTIONAL_KAC,
    _HIGHER_INDEX_ROWS,
    Automaton,
    HigherIndexSet,
    JProfile,
    TitsIndex,
    anisotropic_kernel,
    automaton,
    automaton_to_dot,
    automaton_to_json,
    deglex_leq,
    forced_zero_indices,
    height,
    higher_index_table,
    is_generically_split,
    kac_entry,
    kac_poincare,
    kernel_display_name,
    predicted_rational_poincare,
    profile_factor,
)

from oracles import (
    higher_index_table_by_ladder,
    is_generically_split_by_ladder,
    simple_kac_pairs_by_ladder,
)


def E7():
    return DynkinType.parse("E7")


def test_anisotropic_kernel_examples():
    assert anisotropic_kernel(TitsIndex(E7(), (1, 6, 7))).name() == "D4"
    assert anisotropic_kernel(TitsIndex(E7(), (1,))).name() == "D6"
    assert anisotropic_kernel(TitsIndex(E7(), tuple(range(1, 8)))).name() == "1"


def edges_by_label(a: Automaton):
    return {(a.labels[f], i): a.labels[t] for f, t, i in a.transitions}


def test_automaton_b2_example():
    b2 = DynkinType.parse("B2")
    omega = HigherIndexSet.build(b2, [(), (1,), (1, 2)])
    a = automaton(omega)
    e = edges_by_label(a)
    assert e == {("B2", 1): "B1", ("B2", 2): "1", ("B1", 2): "1"}
    assert height(a) == 2


def test_automaton_b3_trivial_clifford():
    b3 = DynkinType.parse("B3")
    omega = HigherIndexSet.build(b3, [(), (1, 2, 3)])
    a = automaton(omega)
    e = edges_by_label(a)
    assert e == {("B3", 1): "1", ("B3", 2): "1", ("B3", 3): "1"}
    assert height(a) == 1


def test_automaton_b3_general():
    b3 = DynkinType.parse("B3")
    omega = HigherIndexSet.build(b3, [(), (1,), (1, 2), (1, 2, 3)])
    a = automaton(omega)
    e = edges_by_label(a)
    assert e == {
        ("B3", 1): "B2",
        ("B3", 2): "B1",
        ("B3", 3): "1",
        ("B2", 2): "B1",
        ("B2", 3): "1",
        ("B1", 3): "1",
    }
    assert height(a) == 3


def test_automaton_split_state_is_sink():
    b3 = DynkinType.parse("B3")
    omega = HigherIndexSet.build(b3, [(), (1,), (1, 2), (1, 2, 3)])
    a = automaton(omega)
    split = a.labels.index("1")
    assert all(f != split for f, _, _ in a.transitions)


def test_automaton_requires_unique_minimum():
    b2 = DynkinType.parse("B2")
    with pytest.raises(UsageError):
        HigherIndexSet.build(b2, [(1,), (2,)])


def test_automaton_exports():
    b2 = DynkinType.parse("B2")
    a = automaton(HigherIndexSet.build(b2, [(), (1,), (1, 2)]))
    dot = automaton_to_dot(a)
    assert '"B2"' in dot and '"1"' in dot
    js = automaton_to_json(a)
    assert '"transitions"' in js


def test_higher_index_table_f4():
    t = higher_index_table("F4", {"J2_trivial": True})
    assert set(t.indices) == {(), (1, 2, 3, 4)}
    t2 = higher_index_table("F4", {"J2_trivial": False})
    assert set(t2.indices) == {(), (4,), (1, 2, 3, 4)}
    kernels = {kernel_display_name(t2.type, s) for s in t2.indices}
    assert kernels == {"F4", "B3", "1"}


def test_higher_index_table_e6_rows():
    # row: J2=(1), J3=(j1,*) j1 != 0 -> {1, 2A2, D4, E6}
    t = higher_index_table("E6", {"J2_trivial": False, "J3_j1_nonzero": True})
    kernels = {kernel_display_name(t.type, s) for s in t.indices}
    assert kernels == {"1", "A2xA2", "D4", "E6"}
    t2 = higher_index_table("E6", {"J2_trivial": True, "J3_j1_nonzero": False})
    assert {kernel_display_name(t2.type, s) for s in t2.indices} == {"1", "E6"}


def test_higher_index_table_e7_rules():
    t = higher_index_table(
        "E7", {"J2_trivial": False, "J3_trivial": False, "has_zero_cycle": False}
    )
    kernels = {kernel_display_name(t.type, s) for s in t.indices}
    assert kernels >= {"1", "D4", "D6", "E6", "E7"}


def test_table_coherence_with_classification():
    """Minimal-state transitions go straight to split iff the classification says so."""
    cases = [
        ("F4", {"J2_trivial": False}, {2: (1,)}),
        ("F4", {"J2_trivial": True}, {2: (0,)}),
        ("E6", {"J2_trivial": False, "J3_j1_nonzero": False}, {2: (1,), 3: (0, 0)}),
        ("E6", {"J2_trivial": False, "J3_j1_nonzero": True}, {2: (1,), 3: (1, 0)}),
        ("E6", {"J2_trivial": True, "J3_j1_nonzero": True}, {2: (0,), 3: (1, 1)}),
        # E7 with trivial Tits algebras: j1 = 0; J2 nontrivial via j2
        (
            "E7",
            {"J2_trivial": False, "J3_trivial": False, "has_zero_cycle": False},
            {2: (0, 1, 0, 0), 3: (1,)},
        ),
        (
            "E7",
            {"J2_trivial": False, "J3_trivial": True, "has_zero_cycle": False},
            {2: (0, 1, 0, 0), 3: (0,)},
        ),
    ]
    for type_name, flags, profiles in cases:
        omega = higher_index_table(type_name, flags)
        a = automaton(omega)
        start = a.states.index(omega.minimum())
        split = next(k for k, s in enumerate(a.states) if len(s) == a.type.rank)
        outgoing = {i: t for f, t, i in a.transitions if f == start}
        for vertex, target in outgoing.items():
            direct = target == split
            assert direct == is_generically_split(type_name, vertex, profiles), (
                type_name,
                vertex,
            )


def test_deglex():
    assert deglex_leq((1, 1), (1, 1), (1, 2))
    # d=(1,2): |(2,0)| = |(0,1)| = 2; greatest differing index has 0 <= 1
    assert deglex_leq((2, 0), (0, 1), (1, 2))
    assert not deglex_leq((0, 1), (2, 0), (1, 2))
    assert deglex_leq((1, 0), (0, 2), (1, 2))  # smaller weight


def test_deglex_total_order():
    degrees = (1, 2, 3)
    tuples = list(itertools.product(range(3), repeat=3))
    for M, N in itertools.product(tuples, tuples):
        le1 = deglex_leq(M, N, degrees)
        le2 = deglex_leq(N, M, degrees)
        assert le1 or le2
        if le1 and le2:
            assert M == N
    for M, N, P in itertools.product(tuples[:12], tuples[:12], tuples[:12]):
        if deglex_leq(M, N, degrees) and deglex_leq(N, P, degrees):
            assert deglex_leq(M, P, degrees)


def test_kac_entries():
    f4 = kac_entry("F4", 2)
    assert f4.pairs == ((3, 1),)
    e7 = kac_entry("E7", 2)
    assert e7.degrees() == (1, 3, 5, 9)
    assert e7.exponents() == (1, 1, 1, 1)
    e6 = kac_entry("E6", 3)
    assert e6.r == 2 and e6.degrees()[0] == 1
    # non-torsion prime: empty
    assert kac_entry("F4", 7).pairs == ()
    assert kac_entry("A2", 2).pairs == ()
    assert kac_entry("A2", 3).pairs == ((1, 1),)


def test_kac_exponents_of_the_classical_families():
    # k is the least integer with d * 2^k >= 2n for B_n and >= 2n - 2 for D_n
    assert kac_entry("B3", 2).pairs == ((1, 3), (3, 1), (5, 1))
    assert kac_entry("D6", 2).pairs == ((1, 1), (3, 2), (5, 1))


def test_kac_entry_sorted_and_coprime():
    cases = [("B3", 2), ("D4", 2), ("D6", 2), ("A5", 2), ("A5", 3), ("A8", 3)]
    cases += [(f"{family}{rank}", p) for family, rank, p in _EXCEPTIONAL_KAC]
    for name, p in cases:
        e = kac_entry(name, p)
        degs = e.degrees()
        assert degs == tuple(sorted(degs)) and degs
        assert all(d % p for d in degs)


def test_kac_poincare_vs_monomial_enumeration():
    # independent oracle: count monomials x^M with m_i < p^{k_i} by weight
    for name, p in [("F4", 2), ("E7", 2), ("E6", 3)]:
        e = kac_entry(name, p)
        want = {}
        ranges = [range(p ** k) for _, k in e.pairs]
        for M in itertools.product(*ranges):
            wgt = sum(d * m for (d, _), m in zip(e.pairs, M))
            want[wgt] = want.get(wgt, 0) + 1
        poly = univar.tpoly(want.get(i, 0) for i in range(max(want) + 1))
        assert kac_poincare(e) == poly


def test_profile_factor_examples():
    f4 = kac_entry("F4", 2)
    assert profile_factor(f4, JProfile(2, (0,))) == (1,)
    assert profile_factor(f4, JProfile(2, (1,))) == (1, 0, 0, 1)  # 1 + t^3
    e7 = kac_entry("E7", 2)
    rhs = profile_factor(e7, JProfile(2, (1, 1, 1, 1)))
    want = univar.ONE
    for d in (1, 3, 5, 9):
        want = univar.mul(want, univar.tpoly([1] + [0] * (d - 1) + [1]))
    assert rhs == want


def test_profile_validation():
    f4 = kac_entry("F4", 2)
    with pytest.raises(UsageError, match=r"profile for p = 3 does not fit the Kac entry for p = 2"):
        profile_factor(f4, JProfile(3, (1,)))
    with pytest.raises(UsageError, match=r"profile value 2 is outside 0\.\.1"):
        profile_factor(f4, JProfile(2, (2,)))  # exceeds k = 1
    with pytest.raises(UsageError, match=r"profile value -1 is outside 0\.\.1"):
        profile_factor(f4, JProfile(2, (-1,)))
    with pytest.raises(UsageError):
        profile_factor(f4, JProfile(2, (0, 0)))  # wrong arity


def test_predicted_rational_poincare():
    e6 = build_root_system("E6")
    entry = kac_entry("E6", 2)
    # E6/P1 at p=2 with J=(1): 1+t^3 does not divide g -> False
    quot, ok = predicted_rational_poincare(e6, (2, 3, 4, 5, 6), entry, JProfile(2, (1,)))
    assert not ok
    # zero profile -> quotient = g itself, True
    from weylchow.weyl import poincare_polynomial

    quot0, ok0 = predicted_rational_poincare(e6, (2, 3, 4, 5, 6), entry, JProfile(2, (0,)))
    assert ok0 and quot0 == poincare_polynomial(e6, (2, 3, 4, 5, 6))


def test_forced_zero_indices():
    # E7 kernel D4 at p=2: degrees {1,3} survive, indices of d=5 and d=9 forced to 0
    assert forced_zero_indices("E7", 2, "D4") == (3, 4)
    # empty kernel: everything forced
    assert forced_zero_indices("E7", 2, DynkinType.parse("")) == (1, 2, 3, 4)
    # E6 kernel A2xA2 at p=3: d=1 retained, d=4 forced
    assert forced_zero_indices("E6", 3, "A2xA2") == (2,)


def test_is_generically_split_rows():
    assert not is_generically_split("F4", 4, {2: (1,)})
    assert is_generically_split("F4", 1, {2: (1,), 3: (1,)})
    assert not is_generically_split("E7", 7, {3: (1,)})
    assert not is_generically_split("E6", 2, {3: (1, 0)})
    assert is_generically_split("E6", 3, {2: (1,), 3: (1, 1)})
    assert not is_generically_split("E8", 7, {3: (1, 0)})
    assert is_generically_split("E8", 2, {2: (0, 1, 0, 0)})


def _profiles(name, p):
    """Every valid p-profile of the type, and None for a missing prime."""
    return [None] + list(itertools.product(*(range(k + 1) for k in kac_entry(name, p).exponents())))


def test_generically_split_table_matches_the_ladder():
    cases = 0
    for name in ("F4", "E6", "E7", "E8"):
        for j2, j3 in itertools.product(_profiles(name, 2), _profiles(name, 3)):
            profiles = {p: j for p, j in ((2, j2), (3, j3)) if j is not None}
            for vertex in range(1, DynkinType.parse(name).rank + 1):
                got = is_generically_split(name, vertex, profiles)
                want = is_generically_split_by_ladder(name, vertex, profiles)
                assert got == want, (name, vertex, profiles)
                cases += 1
    assert cases == 36 + 90 + 357 + 1960  # vertices x (p = 2 profiles) x (p = 3 profiles)


def test_higher_index_table_matches_the_ladder():
    for name, rows in _HIGHER_INDEX_ROWS.items():
        keys = sorted({rule[0] for _, _, rule in rows if rule is not None})
        for values in itertools.product((None, True, False), repeat=len(keys)):
            invariants = {k: v for k, v in zip(keys, values) if v is not None}
            assert higher_index_table(name, invariants) == higher_index_table_by_ladder(name, invariants)


def test_higher_index_rows_name_their_kernels():
    for name, rows in _HIGHER_INDEX_ROWS.items():
        dtype = DynkinType.parse(name)
        assert [kernel for kernel, _, _ in rows] == [kernel_display_name(dtype, c) for _, c, _ in rows]


def test_kac_table_matches_the_ladder():
    for name in ("A1", "A5", "B3", "C3", "D4", "D6", "G2", "F4", "E6", "E7", "E8"):
        (family, rank), = DynkinType.parse(name).components
        for p in (2, 3, 5, 7, 11):
            try:
                want = tuple(sorted(simple_kac_pairs_by_ladder(family, rank, p)))
            except UsageError:
                with pytest.raises(UsageError):
                    kac_entry(name, p)
                continue
            assert kac_entry(name, p).pairs == want, (name, p)


def test_type_spelling_does_not_change_the_classification():
    assert not is_generically_split("f4", 4, {2: (1,)})
    assert is_generically_split("e7", 7, {3: (0,)}) and not is_generically_split("e7", 7, {3: (1,)})
    for name, invariants in [("F4", {"J2_trivial": False}), ("E7", {"J3_trivial": False})]:
        assert higher_index_table(name.lower(), invariants) == higher_index_table(name, invariants)


def test_profiles_are_checked_before_the_table():
    for name, vertex, profiles in [
        ("E7", 1, {2: (5,)}),           # arity 1 where r = 4
        ("F4", 4, {2: (2,)}),           # 2 is outside 0..1
        ("E6", 2, {3: (1,)}),           # arity 1 where r = 2
        ("E8", 8, {3: (1, 0), 2: ()}),  # an empty profile is not a missing one
    ]:
        with pytest.raises(UsageError, match="profile"):
            is_generically_split(name, vertex, profiles)
