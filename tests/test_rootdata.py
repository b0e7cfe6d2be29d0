import copy
import math
import pickle
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from weylchow import rootdata
from weylchow.errors import InternalComputationError, ResourceLimitError, UsageError
from weylchow.motive import Correspondence, MotiveSummand
from weylchow.rootdata import (
    DynkinType, PositiveRoot, Record, build_root_system, checked_vertices, root_subsystem,
    weyl_degrees,
)
from weylchow.schubert import ChowClass
from weylchow.titsjinv import Automaton, HigherIndexSet, JProfile, KacEntry, TitsIndex
from weylchow.weyl import WeylElement

from oracles import cartan_symmetrizer, positive_roots_by_root_strings

LIE_DIMENSIONS = {
    # dim g = n + 2 * |Phi+| per simple component
    "A1": 3, "A2": 8, "A3": 15, "B2": 10, "B3": 21, "C3": 21,
    "D4": 28, "D6": 66, "G2": 14, "F4": 52, "E6": 78, "E7": 133, "E8": 248,
}


def test_parse_and_name():
    assert DynkinType.parse("E7").components == (("E", 7),)
    assert DynkinType.parse("A2xA2").rank == 4
    assert DynkinType.parse("A2xA2").name() == "A2xA2"
    assert DynkinType.parse("").rank == 0
    assert DynkinType.parse("1").name() == "1"


@pytest.mark.parametrize("bad", ["E9", "F5", "G3", "Q2", "E"])
def test_illegal_types_rejected(bad):
    with pytest.raises(UsageError):
        DynkinType.parse(bad)


def test_type_strings_are_parsed_once_per_spelling(monkeypatch):
    parsed, parse = [], DynkinType.parse
    monkeypatch.setattr(DynkinType, "parse",
                        staticmethod(lambda text: parsed.append(text) or parse(text)))
    spellings = [" e6", "E6\t"]  # unusual, so no other test has cached them
    systems = [build_root_system(text) for text in spellings * 2]
    assert all(rs is systems[0] for rs in systems) and systems[0].type.name() == "E6"
    assert all(parsed.count(text) == 1 for text in spellings)
    for _ in range(2):  # a failed parse is not cached: a bad string raises every time
        with pytest.raises(UsageError):
            build_root_system("E9 ")
    assert parsed.count("E9 ") == 2


def test_a2_positive_roots_by_hand():
    rs = build_root_system("A2")
    roots = {pr.root for pr in rs.positive_roots}
    assert roots == {(1, 0), (0, 1), (1, 1)}


def test_b2_cartan_matrix_bourbaki():
    rs = build_root_system("B2")
    assert rs.cartan == ((2, -1), (-2, 2))


@pytest.mark.parametrize("name,dim", sorted(LIE_DIMENSIONS.items()))
def test_positive_root_counts_against_lie_dimension(name, dim):
    rs = build_root_system(name)
    assert dim == rs.rank + 2 * rs.num_positive_roots()


@pytest.mark.parametrize("name", ["A1", "A5", "B4", "C4", "D5", "G2", "F4", "E6", "E7", "E8", "A2xB2"])
def test_positive_root_count_is_sum_of_degrees_minus_one(name):
    rs = build_root_system(name)
    assert rs.num_positive_roots() == sum(d - 1 for d in weyl_degrees(rs.type))
    # the closed form rank * h / 2 that the root cap reads before the closure runs
    assert rs.num_positive_roots() == sum(
        rank * rootdata._coxeter_number(family, rank) // 2 for family, rank in rs.type.components
    )


def test_root_cap_is_checked_in_constant_memory():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            build_root_system("A3000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_e7_has_63_positive_roots():
    assert build_root_system("E7").num_positive_roots() == 63


def test_cartan_invariants():
    for name in ("A3", "B3", "C3", "D4", "G2", "F4", "E6"):
        rs = build_root_system(name)
        for i in range(rs.rank):
            assert rs.cartan[i][i] == 2
            for j in range(rs.rank):
                if i != j:
                    assert rs.cartan[i][j] in (0, -1, -2, -3)


def test_reflection_is_involution_and_fw_rule():
    for name in ("A2", "B2", "G2", "F4", "D4"):
        rs = build_root_system(name)
        for i in range(rs.rank):
            for j in range(rs.rank):
                omega_j = tuple(1 if k == j else 0 for k in range(rs.rank))
                once = rs.reflect_weight(i, omega_j)
                # s_i(omega_j) = omega_j - delta_ij alpha_i
                expect = omega_j if i != j else tuple(
                    omega_j[k] - rs.alpha_omega(i)[k] for k in range(rs.rank)
                )
                assert once == expect
                assert rs.reflect_weight(i, once) == omega_j


def test_each_reflection_permutes_other_positive_roots():
    for name in ("A2", "B2", "B3", "G2", "F4", "E6", "E7", "E8", "B2xG2"):
        rs = build_root_system(name)
        pos = {pr.omega for pr in rs.positive_roots}
        for i in range(rs.rank):
            images = {rs.reflect_weight(i, omega) for omega in pos}
            # exactly alpha_i goes negative; omega-coordinates determine the root
            assert images - pos == {tuple(-x for x in rs.alpha_omega(i))}
            assert pos - images == {rs.alpha_omega(i)}


ROOT_ORACLE_TYPES = [
    "A1", "A2", "A5", "A44", "B2", "B3", "B7", "C2", "C3", "C8", "D3", "D4", "D5", "D9",
    "E6", "E7", "E8", "F4", "G2", "B2xG2", "G2xB3xC3", "A3xD4", "F4xA2", "C3xB2xG2",
]


@pytest.mark.parametrize("name", ROOT_ORACLE_TYPES)
def test_positive_roots_match_the_root_string_oracle(name):
    # root, omega-coordinates, coroot and order, term for term
    rs = build_root_system(name)
    assert rs.positive_roots == positive_roots_by_root_strings(rs)


@pytest.mark.parametrize("cartan", [((2, -2), (-2, 2)), ((2, -1), (-2, 2))], ids=["affine", "B2"])
def test_a_closure_that_disagrees_with_the_type_is_refused(monkeypatch, cartan):
    # the affine matrix closes to infinitely many roots, the B2 one to four, against three for A2
    monkeypatch.setattr(rootdata, "_simple_cartan", lambda family, rank: [list(row) for row in cartan])
    with pytest.raises(InternalComputationError, match="positive roots, not 3"):
        rootdata.RootSystem(DynkinType((("A", 2),)))


def test_weyl_degrees_tables():
    assert weyl_degrees("E7") == (2, 6, 8, 10, 12, 14, 18)
    assert math.prod(weyl_degrees("E7")) == 2_903_040
    assert weyl_degrees("A1") == (2,)
    assert sorted(weyl_degrees("D6")) == [2, 4, 6, 6, 8, 10]
    assert math.prod(weyl_degrees("D6")) == 23_040
    assert weyl_degrees(DynkinType.parse("")) == ()
    assert weyl_degrees("A2xA2") == (2, 3, 2, 3)


def test_root_subsystem_e7_examples():
    e7 = build_root_system("E7")
    assert root_subsystem(e7, [2, 3, 4, 5, 6, 7]).name() == "D6"
    assert root_subsystem(e7, [1, 2, 3, 4, 5, 6]).name() == "E6"
    assert root_subsystem(e7, [2, 3, 4, 5]).name() == "D4"
    assert root_subsystem(e7, []) == DynkinType(())


def test_checked_vertices_sorts_integer_vertices_in_range():
    assert checked_vertices(3, [3, 1, 3]) == (1, 3)
    assert checked_vertices(3, range(1, 4)) == (1, 2, 3)
    assert checked_vertices(3, ()) == ()
    for bad, message in [([0], "vertex 0 out of range 1..3"), ([1, 4], "vertex 4 out of range 1..3"),
                         ([True], "vertex True must be an integer in 1..3"),
                         ([2.0], "vertex 2.0 must be an integer in 1..3"),
                         ("12", "vertex '1' must be an integer in 1..3")]:
        with pytest.raises(UsageError, match=message):
            checked_vertices(3, bad)
    with pytest.raises(UsageError, match="circled vertex 9 out of range 1..3"):
        checked_vertices(3, [9], "circled vertex")


def test_root_subsystem_more_shapes():
    f4 = build_root_system("F4")
    assert root_subsystem(f4, [1, 2, 3]).name() == "B3"
    assert root_subsystem(f4, [2, 3, 4]).name() == "C3"
    assert root_subsystem(f4, [1, 2, 3, 4]).name() == "F4"
    e6 = build_root_system("E6")
    assert root_subsystem(e6, [1, 3, 5, 6]).name() == "A2xA2"
    assert root_subsystem(e6, [2, 3, 4, 5]).name() == "D4"
    b3 = build_root_system("B3")
    assert root_subsystem(b3, [2, 3]).name() == "B2"
    assert root_subsystem(b3, [1, 2]).name() == "A2"


def _root_counts(rs, support):
    """(positive roots supported on `support`, how many of them have minimal length)."""
    d, a = cartan_symmetrizer(rs.cartan), rs.cartan
    norms = [
        sum(c[i] * c[j] * d[i] * a[i][j] for i in support for j in support)
        for c in (pr.root for pr in rs.positive_roots)
        if all(x == 0 or i in support for i, x in enumerate(c))
    ]
    return len(norms), norms.count(min(norms))


@pytest.mark.parametrize("name", ["A5", "B4", "C4", "D5", "E6", "E7", "E8", "F4", "G2", "B2xG2", "F4xA2"])
def test_subsystem_types_match_their_roots_on_every_subset(name):
    # each component's type must have as many positive roots, and as many
    # of minimal length, as the ambient system has supported on the component
    rs = build_root_system(name)
    for k in range(rs.rank + 1):
        for theta in combinations(range(rs.rank), k):
            left, components = set(theta), []
            while left:
                comp = [left.pop()]
                for x in comp:
                    near = {y for y in left if rs.cartan[x][y]}
                    left -= near
                    comp.extend(near)
                components.append(sorted(comp))
            found = []
            for comp in components:
                dtype = root_subsystem(rs, [i + 1 for i in comp])
                ((family, rank),) = dtype.components
                assert rank == len(comp)
                own = build_root_system(dtype)
                assert _root_counts(rs, comp) == _root_counts(own, range(rank))
                found.append((family, rank))
            assert root_subsystem(rs, [i + 1 for i in theta]).components == tuple(sorted(found))


def test_root_subsystem_builds_no_root_system():
    a44 = build_root_system("A44")
    before = rootdata._cached_root_system.cache_info().currsize
    assert root_subsystem(a44, range(2, 45)).name() == "A43"
    assert rootdata._cached_root_system.cache_info().currsize == before


def test_reducible_system_block_structure():
    rs = build_root_system("A2xA2")
    assert rs.num_positive_roots() == 6
    assert rs.cartan[0][2] == 0 and rs.cartan[2][0] == 0


@pytest.mark.parametrize("name, symmetrizer", [
    ("B3", (2, 2, 1)),
    ("C3", (1, 1, 2)),
    ("F4", (2, 2, 1, 1)),
    ("G2", (1, 3)),
    # components are brought to a common value at their least vertices
    ("B2xG2", (2, 1, 2, 6)),
    ("G2xB2", (2, 6, 2, 1)),
    ("C3xB2xG2", (2, 2, 4, 2, 1, 2, 6)),
    ("E7", (1,) * 7),
])
def test_symmetrizer_values(name, symmetrizer):
    # the oracle's symmetrizer feeds _root_counts and the root-string oracle
    a = build_root_system(name).cartan
    d = cartan_symmetrizer(a)
    assert d == symmetrizer
    assert all(d[i] * a[i][j] == d[j] * a[j][i] for i in range(len(a)) for j in range(len(a)))


def _value_cases():
    """(record class, positional field values, [(bad values, exception, message)])."""
    a2 = build_root_system("A2")
    b3 = DynkinType((("B", 3),))
    z2 = ChowClass("A2", (), "Z/2", {0: 1})
    return [
        (DynkinType, ((("B", 3),),), [
            (((("E", 5),),), UsageError, "E exists only in ranks 6, 7, 8"),
            (((("B", 1),),), UsageError, "B requires rank >= 2"),
        ]),
        (PositiveRoot, ((1, 1), (1, 1), (1, 1)), []),
        (WeylElement, (a2, (1, 2)), []),
        (ChowClass, ("A2", (), "Z/3", {0: 4, 1: 0}), [
            (("A2", (), "Z", {0: Fraction(1, 2)}), InternalComputationError,
             "non-integral coefficient in Z-class"),
            (("A2", (), "Z/2", {0: Fraction(1, 2)}), InternalComputationError,
             "denominator not invertible mod 2"),
        ]),
        (MotiveSummand, ((0, 1), 0, (1, 1), DynkinType((("A", 1),))), []),
        (Correspondence, ("A2", (), "Z/2", ((z2, z2),)), [
            (("A2", (), "Z", ()), UsageError, "finite coefficient ring Z/p"),
            (("A2", (), "Z/3", ((z2, z2),)), UsageError, "must match the correspondence ring"),
        ]),
        (TitsIndex, (b3, (1, 3)), [
            ((b3, (4,)), UsageError, "circled vertex 4 out of range 1..3"),
        ]),
        (HigherIndexSet, (b3, ((), (1,), (1, 2, 3))), [
            ((b3, ((), (1, 2, 3, 99))), UsageError, "circled vertex 99 out of range 1..3"),
            ((b3, ((1,), (2,))), UsageError, "unique minimal element"),
        ]),
        (Automaton, (b3, ((), (1,)), ("B3", "B2"), ((0, 1, 1),)), []),
        (KacEntry, (b3, 2, ((1, 2), (3, 1))), []),
        (JProfile, (2, (1, 0)), []),
    ]


@pytest.mark.parametrize("case", _value_cases(), ids=lambda case: case[0].__name__)
def test_records_are_immutable_values(case):
    cls, values, invalid = case
    assert len(cls.__slots__) == len(values)
    a, b = cls(*values), cls(**dict(zip(cls.__slots__, values)))
    assert not hasattr(a, "__dict__")
    assert a == b and not a != b and a is not b
    assert copy.copy(a) == a
    if cls in (ChowClass, Correspondence):  # a mapping of coefficients pickles as its dict
        assert pickle.loads(pickle.dumps(a)) == a
    assert hash(a) == hash(b)
    assert len({a, b}) == 1

    class Twin(Record):  # another record class with the same fields
        __slots__ = cls.__slots__

    twin = Twin(*(getattr(a, name) for name in cls.__slots__))
    assert a != twin and twin != a and not a == twin

    before = [getattr(a, name) for name in cls.__slots__]
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert [getattr(a, name) for name in cls.__slots__] == before and a == b

    for bad, error, message in invalid:
        with pytest.raises(error, match=message):
            cls(*bad)
        with pytest.raises(error, match=message):
            cls(**dict(zip(cls.__slots__, bad)))

    # every field exactly once, by position or by name, as under a written-out signature
    named = dict(zip(cls.__slots__, values))
    first = cls.__slots__[0]
    missing = [(values[:-1], {}), ((), {k: v for k, v in named.items() if k != first})]
    unknown = [((*values, values[-1]), {}), (values, {"extra": 1}), ((), {**named, "extra": 1})]
    twice = [(values, {first: values[0]}), (values[:1], named)]
    for args, kwargs in missing + unknown + twice:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_record_repr_lists_fields():
    assert repr(DynkinType((("B", 3),))) == "DynkinType(components=(('B', 3),))"
    assert repr(JProfile(2, (1,))) == "JProfile(p=2, values=(1,))"
    assert repr(WeylElement(build_root_system("A2"), (1, 2))) == "w[1, 2]"
