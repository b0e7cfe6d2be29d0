import json
import time

import pytest

from weylchow.cli import run


def test_poincare_command():
    code, out = run(["poincare", "--type", "A2", "--theta", ""])
    assert code == 0
    assert out == "1+2t+2t^2+t^3"


def test_roots_command():
    code, out = run(["roots", "--type", "B2"])
    assert code == 0
    data = json.loads(out)
    assert data["positive_roots"] == 4
    assert data["cartan"] == [[2, -1], [-2, 2]]


def test_cosets_command():
    code, out = run(["cosets", "--type", "B2", "--theta", "2"])
    data = json.loads(out)
    assert code == 0
    assert data["count"] == 4
    assert [r["length"] for r in data["reps"]] == [0, 1, 2, 3]


def test_mult_roundtrip():
    # w0 (s1 s2) w0... the dual of [X_{s1s2}] on A2/B is [X_{s1}]
    a = json.dumps({"type": "A2", "theta": [], "ring": "Z", "terms": [{"word": [1, 2], "coeff": 1}]})
    b = json.dumps({"type": "A2", "theta": [], "ring": "Z", "terms": [{"word": [1], "coeff": 1}]})
    code, out = run(["mult", "--type", "A2", "--theta", "", "--a", a, "--b", b])
    assert code == 0
    result = json.loads(out)
    # complementary codims (1 + 2 = 3): duality puts the point class with coefficient 1
    assert result["terms"] == [{"word": [], "coeff": 1}]
    # emitted JSON is accepted back as input
    code2, out2 = run(["mult", "--type", "A2", "--theta", "", "--a", out, "--b", out])
    assert code2 == 0


def test_chern_command():
    code, out = run(["chern", "--type", "A1", "--theta", ""])
    assert code == 0
    data = json.loads(out)
    assert data[1]["terms"] == [{"word": [], "coeff": 2}]
    # above the dimension the Chern class is zero
    code, out = run(["chern", "--type", "A2", "--codim", "7"])
    assert code == 0
    assert json.loads(out)["terms"] == []


def test_steenrod_command():
    cls = json.dumps({"type": "A2", "theta": [], "ring": "Z/2", "terms": [{"word": [1], "coeff": 1}]})
    code, out = run(["steenrod", "--type", "A2", "--theta", "", "--class", cls])
    assert code == 0
    graded = json.loads(out)
    assert graded[0]["terms"] == [{"word": [1], "coeff": 1}]


def test_decompose_command():
    code, out = run(["decompose", "--type", "B2", "--theta", "", "--circled", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["kernel"] == "A1"
    assert sum(len(s["vertices"]) for s in data["summands"]) == 8


@pytest.mark.heavy
def test_steenrod_e7_point_through_cli():
    cls = json.dumps(
        {
            "type": "E7",
            "theta": [2, 3, 4, 5, 6, 7],
            "ring": "Z/2",
            "terms": [
                {"word": [7, 6, 5, 4, 3, 2, 4, 5, 6, 1, 3, 4, 5, 2, 4, 3, 1],
                 "coeff": 1, "dual": True}
            ],
        }
    )
    code, out = run(
        ["steenrod", "--type", "E7", "--theta", "2,3,4,5,6,7", "--class", cls, "--i", "16"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [{"word": [], "coeff": 1}]  # the point class


def test_decompose_e7_paper_example():
    code, out = run(
        ["decompose", "--type", "E7", "--theta", "1,2,3,4,5,6", "--circled", "1,6,7", "--rost"]
    )
    assert code == 0
    data = json.loads(out)
    singles = [s for s in data["summands"] if len(s["vertices"]) == 1]
    assert sorted(s["twist"] for s in singles) == [0, 1, 9, 10, 17, 18, 26, 27]
    assert data["rost_twists"] == sorted(list(range(2, 23)) + [11, 12, 13])


def test_hasse_command_formats():
    code, out = run(["hasse", "--type", "A2", "--theta", "", "--format", "dot"])
    assert code == 0 and out.startswith("digraph")
    code, out = run(["hasse", "--type", "A2", "--theta", "", "--format", "json"])
    assert code == 0 and json.loads(out)["type"] == "A2"


def test_automaton_command():
    code, out = run(
        ["automaton", "--type", "B3", "--omega", "[[],[1],[1,2],[1,2,3]]", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["height"] == 3
    kernels = {s["kernel"] for s in data["states"]}
    assert kernels == {"B3", "B2", "B1", "1"}
    code, dot = run(
        ["automaton", "--type", "B3", "--omega", "[[],[1],[1,2],[1,2,3]]", "--format", "dot"]
    )
    assert code == 0 and dot.startswith("digraph")


def test_jinv_commands():
    code, out = run(["jinv", "--type", "F4", "--p", "2", "--profile", "1", "rhs"])
    assert code == 0 and out == "1+t^3"
    code, out = run(
        ["jinv", "--type", "E6", "--p", "2", "--profile", "1", "predict", "--theta", "2,3,4,5,6"]
    )
    assert code == 0 and json.loads(out)["is_polynomial"] is False
    code, out = run(
        ["jinv", "--type", "F4", "--p", "2", "--profile", "1", "gensplit", "--vertex", "4"]
    )
    assert code == 0 and json.loads(out)["generically_split"] is False
    code, out = run(
        ["jinv", "--type", "F4", "--p", "2", "--profile", "1", "gensplit", "--vertex", "1"]
    )
    assert code == 0 and json.loads(out)["generically_split"] is True


def test_usage_errors_exit_2():
    code, out = run(["poincare", "--type", "Q9"])
    assert code == 2
    code, out = run(["mult", "--type", "A2", "--a", "{bad json", "--b", "{}"])
    assert code == 2
    code, out = run(["nonsense"])
    assert code == 2
    code, out = run(["chern", "--type", "A2", "--codim", "-1"])
    assert code == 2
    cls = json.dumps({"type": "A2", "theta": [], "ring": "Z/2", "terms": [{"word": [1], "coeff": 1}]})
    code, out = run(["steenrod", "--type", "A2", "--theta", "", "--class", cls, "--i", "-1"])
    assert code == 2


def _a2_class(ring, coeff):
    return json.dumps({"type": "A2", "theta": [], "ring": ring, "terms": [{"word": [1], "coeff": coeff}]})


def test_inexact_coefficients_exit_2():
    # a float (or a bool, which Python treats as an int) must not enter exact arithmetic
    for coeff in (1.5, 1.0, True):
        code, out = run(["mult", "--type", "A2", "--a", _a2_class("Z", coeff), "--b", _a2_class("Z", 1)])
        assert code == 2, coeff
        assert out.startswith("usage error")
    code, out = run(["mult", "--type", "A2", "--a", _a2_class("Q", "-3/4"), "--b", _a2_class("Q", 1)])
    assert code == 0


def test_non_prime_moduli_exit_2():
    assert run(["chern", "--type", "A2", "--mod", "4"])[0] == 2
    assert run(["chern", "--type", "A2", "--mod", "3"])[0] == 0
    # 2^61 - 1 is prime but above the cap, so it is refused without trial division
    for ring in ("Z/4", "Z/1", "Z/x", "Z/%d" % ((1 << 61) - 1)):
        code, out = run(["mult", "--type", "A2", "--a", _a2_class(ring, 1), "--b", _a2_class(ring, 1)])
        assert code == 2, ring


def test_non_invertible_denominators_exit_2():
    for ring in ("Z/2", "Z"):
        code, out = run(["mult", "--type", "A2", "--a", _a2_class(ring, "1/2"), "--b", _a2_class(ring, 1)])
        assert code == 2, ring
        assert out.startswith("usage error")
    code, out = run(["mult", "--type", "A2", "--a", _a2_class("Z/3", "1/2"), "--b", _a2_class("Z/3", 1)])
    assert code == 0


def test_missing_omega_file_exit_2(tmp_path):
    code, out = run(["automaton", "--type", "A2", "--omega", "@" + str(tmp_path / "missing.json")])
    assert code == 2
    assert out.startswith("usage error")


def test_resource_cap_exit_3():
    # a full E6 Weyl enumeration is far beyond a tiny cap; easiest trigger is
    # the steenrod route on a class that fits neither strategy -- use cosets
    # with the library-level cap instead via monkeypatched default? Simpler:
    # the CLI surfaces ResourceLimitError as 3; trigger through weyl directly.
    from weylchow.errors import ResourceLimitError
    import weylchow.cli as cli

    def boom(argv=None):
        raise ResourceLimitError("test")

    old = cli.build_root_system
    try:
        cli.build_root_system = lambda t: (_ for _ in ()).throw(ResourceLimitError("cap"))
        code, out = run(["roots", "--type", "E6"])
        assert code == 3
    finally:
        cli.build_root_system = old


def test_coset_cap_checked_before_enumeration():
    t0 = time.perf_counter()
    code, out = run(["cosets", "--type", "E8", "--theta", ""])
    assert code == 3
    assert time.perf_counter() - t0 < 1.0


def test_internal_error_exit_4():
    from weylchow.errors import InternalComputationError
    import weylchow.cli as cli

    old = cli.build_root_system
    try:
        cli.build_root_system = lambda t: (_ for _ in ()).throw(
            InternalComputationError("invariant violated")
        )
        code, out = run(["roots", "--type", "A2"])
        assert code == 4
    finally:
        cli.build_root_system = old


def test_determinism():
    args = ["decompose", "--type", "B3", "--theta", "", "--circled", "1,2"]
    assert run(args) == run(args)


def test_cache_dir(tmp_path):
    args = ["--cache-dir", str(tmp_path), "poincare", "--type", "B2", "--theta", ""]
    code1, out1 = run(args)
    code2, out2 = run(args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert list(tmp_path.iterdir())
