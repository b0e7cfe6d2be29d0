import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylchow
from weylchow.cli import run
from weylchow.errors import UsageError
from weylchow.rootdata import build_root_system
from weylchow.schubert import class_from_json, flag_context
from weylchow.weyl import coset_reps

from oracles import (
    cosets_by_json_dumps,
    decomposition_dot_by_fstrings,
    decomposition_json_by_json_dumps,
    hasse_dot_by_fstrings,
    hasse_json_by_json_dumps,
    multiply_by_preimage_product,
)


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


def test_mult_refuses_a_misspelled_class_key():
    # "coef" used to be read as coefficient 1, "thetta" as theta [] and "rng" as ring Z,
    # each exiting 0 with another class's answer
    good = {"type": "A2", "theta": [], "ring": "Z", "terms": [{"word": [1, 2], "coeff": 5}]}
    divisor = {**good, "terms": [{"word": [1, 2]}]}
    argv = ["mult", "--type", "A2", "--theta", "", "--b", json.dumps(divisor)]
    code, out = run(argv + ["--a", json.dumps(good)])
    assert code == 0 and json.loads(out)["terms"] == [{"word": [2], "coeff": 5}], out
    for key, bad in [("coef", {**good, "terms": [{"word": [1, 2], "coef": 5}]}),
                     ("thetta", {**good, "thetta": []}),
                     ("rng", {**good, "rng": "Z/2"})]:
        code, out = run(argv + ["--a", json.dumps(bad)])
        assert code == 2 and f"'{key}'" in out, (key, out)


def test_class_json_type_and_theta_are_normalized():
    # a lower-case type and a repeated theta vertex name the same variety as
    # their canonical spellings: the class matches --type/--theta and prints
    # as the canonical class does
    def cls(type_name, theta):
        return json.dumps({"type": type_name, "theta": theta, "ring": "Z/2",
                           "terms": [{"word": [1], "coeff": 1}]})

    for spelled, canonical, theta in [(cls("a2", []), cls("A2", []), ""),
                                      (cls("A2", [2, 2]), cls("A2", [2]), "2")]:
        steenrod = run(["steenrod", "--type", "A2", "--theta", theta, "--class", canonical])
        mult = run(["mult", "--type", "A2", "--theta", theta, "--a", canonical, "--b", canonical])
        assert steenrod[0] == 0 and mult[0] == 0
        for cli_type in ("a2", "A2"):
            assert run(["steenrod", "--type", cli_type, "--theta", theta,
                        "--class", spelled]) == steenrod
            assert run(["mult", "--type", cli_type, "--theta", theta,
                        "--a", spelled, "--b", canonical]) == mult
    parsed = class_from_json(cls("a2", [2, 2]))
    assert (parsed.type_name, parsed.theta) == ("A2", (2,))


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


def test_steenrod_of_a_long_word_class_through_cli():
    # E7/P1 position 88: codim 12 and a 21-letter word, past the resolution ring's limit
    ct = coset_reps(build_root_system("E7"), (2, 3, 4, 5, 6, 7))
    assert (ct.codim(88), ct.length(88)) == (12, 21)
    cls = json.dumps({"type": "E7", "theta": [2, 3, 4, 5, 6, 7], "ring": "Z/2",
                      "terms": [{"word": list(ct.words[88]), "coeff": 1}]})
    base = ["--type", "E7", "--theta", "2,3,4,5,6,7"]
    code, out = run(["steenrod", *base, "--class", cls])
    assert code == 0
    graded = json.loads(out)
    assert len(graded) == 13 and graded[0] == json.loads(cls) | {"theta": [2, 3, 4, 5, 6, 7]}
    # the top square is the square mod 2
    code, square = run(["mult", *base, "--a", cls, "--b", cls])
    assert code == 0 and graded[12] == json.loads(square)
    assert len(graded[12]["terms"]) == 3
    assert run(["steenrod", *base, "--class", cls, "--i", "12"]) == (0, square)


def test_decompose_e7_paper_example():
    code, out = run(
        ["decompose", "--type", "E7", "--theta", "1,2,3,4,5,6", "--circled", "1,6,7", "--rost"]
    )
    assert code == 0
    data = json.loads(out)
    singles = [s for s in data["summands"] if len(s["vertices"]) == 1]
    assert sorted(s["twist"] for s in singles) == [0, 1, 9, 10, 17, 18, 26, 27]
    assert data["rost_twists"] == sorted(list(range(2, 23)) + [11, 12, 13])


@pytest.mark.parametrize(
    "name,theta,circled_sets",
    [("A1", "1", ["", "1"]), ("A3", "", ["", "2"]), ("B3", "", ["1", "1,2,3"]),
     ("G2", "", ["", "2"]), ("D4", "1,3,4", ["2", "1,3,4"]), ("F4", "2,3,4", ["1", "4"]),
     ("E6", "2,3,4,5,6", ["", "1,2,3,4,5,6", "2,4"])],
    ids=["A1/P1", "A3", "B3", "G2", "D4/P2", "F4/P1", "E6/P1"],
)
def test_renderers_match_the_json_dumps_oracles(name, theta, circled_sets):
    rs = build_root_system(name)
    th = tuple(int(x) for x in theta.split(",") if x)
    ct = coset_reps(rs, th)
    base = ["--type", name, "--theta", theta]
    assert run(["cosets", *base]) == (0, cosets_by_json_dumps(ct))
    assert run(["hasse", *base, "--format", "json"]) == (0, hasse_json_by_json_dumps(ct))
    assert run(["hasse", *base, "--format", "dot"]) == (0, hasse_dot_by_fstrings(ct))
    for circled in circled_sets:
        c = tuple(int(x) for x in circled.split(",") if x)
        argv = ["decompose", *base, "--circled", circled]
        assert run(argv + ["--format", "dot"]) == (0, decomposition_dot_by_fstrings(rs, th, c))
        assert run(argv) == (0, decomposition_json_by_json_dumps(rs, th, c))
        try:
            want = (0, decomposition_json_by_json_dumps(rs, th, c, rost=True))
        except UsageError as exc:  # a component whose profile 1 + t^3 does not divide
            want = (2, f"usage error: {exc}")
        assert run(argv + ["--rost"]) == want, circled


def test_e6_full_flag_cosets_match_the_json_dumps_oracle():
    ct = coset_reps(build_root_system("E6"), ())
    assert run(["cosets", "--type", "E6", "--theta", ""]) == (0, cosets_by_json_dumps(ct))


def test_cli_outputs_match_the_benchmark_goldens():
    # the digests the benchmark checks, of stdout as printed (with its newline)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "cli-e6flags.json"
    golden = json.loads(path.read_text(encoding="utf-8"))["outputs"]
    assert len(golden) == 20
    for argv, want in golden.items():
        code, out = run(json.loads(argv))
        assert code == 0, argv
        assert hashlib.sha256((out + "\n").encode()).hexdigest() == want["sha256"], argv


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
    assert out == (
        '{"height": 3, "states": [{"circled": [], "kernel": "B3"}, '
        '{"circled": [1], "kernel": "B2"}, {"circled": [1, 2], "kernel": "B1"}, '
        '{"circled": [1, 2, 3], "kernel": "1"}], "transitions": ['
        '{"from": 0, "label": 1, "to": 1}, {"from": 0, "label": 2, "to": 2}, '
        '{"from": 0, "label": 3, "to": 3}, {"from": 1, "label": 2, "to": 2}, '
        '{"from": 1, "label": 3, "to": 3}, {"from": 2, "label": 3, "to": 3}], "type": "B3"}'
    )
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


@pytest.mark.parametrize("type_name,p,profile,vertex", [
    ("F4", 2, "1", 4), ("E6", 3, "1,0", 2), ("E7", 2, "0,1,0,0", 7), ("E8", 3, "1,0", 8),
])
def test_jinv_reads_the_parsed_type_and_checks_every_profile(type_name, p, profile, vertex):
    head = ["jinv", "--p", str(p)]
    for action in (["rhs"], ["gensplit", "--vertex", str(vertex)]):
        upper = run(head + ["--type", type_name, "--profile", profile] + action)
        lower = run(head + ["--type", type_name.lower(), "--profile", profile] + action)
        assert upper[0] == 0 and lower == upper
    rank = int(type_name[1:])
    theta = ",".join(str(i) for i in range(1, rank + 1) if i != vertex)
    for bad in ("5", "9" + profile[1:], profile + ",0", ""):  # out of range or of the wrong arity
        for action in (["rhs"], ["predict", "--theta", theta], ["gensplit", "--vertex", str(vertex)]):
            code, out = run(head + ["--type", type_name, "--profile", bad] + action)
            assert code == 2 and out.startswith("usage error: profile"), (bad, action)


def test_jinv_non_prime_p_exit_2():
    for p in ("4", "9", "1"):
        code, out = run(["jinv", "--type", "E6", "--p", p, "--profile", "", "rhs"])
        assert code == 2 and out.startswith("usage error"), p


def test_usage_errors_exit_2():
    code, out = run(["poincare", "--type", "Q9"])
    assert code == 2
    code, out = run(["mult", "--type", "A2", "--a", "{bad json", "--b", "{}"])
    assert code == 2
    code, out = run(["nonsense"])
    assert code == 2
    code, out = run(["chern", "--type", "A2", "--codim", "-1"])
    assert code == 2
    code, out = run(["jinv", "--type", "F4", "--p", "2", "--profile", "-1", "rhs"])
    assert (code, out) == (2, "usage error: profile value -1 is outside 0..1")
    cls = json.dumps({"type": "A2", "theta": [], "ring": "Z/2", "terms": [{"word": [1], "coeff": 1}]})
    code, out = run(["steenrod", "--type", "A2", "--theta", "", "--class", cls, "--i", "-1"])
    assert code == 2
    code, out = run(["decompose", "--type", "B2", "--circled", "1", "--format", "dot", "--rost"])
    assert (code, out) == (2, "usage error: --rost needs --format json")


def test_vertices_out_of_range_name_the_range():
    for argv, message in [
        (["decompose", "--type", "B3", "--circled", "0"], "circled vertex 0 out of range 1..3"),
        (["jinv", "--type", "F4", "--p", "2", "--profile", "1", "gensplit", "--vertex", "9"],
         "vertex 9 out of range 1..4"),
        (["cosets", "--type", "B3", "--theta", "4"], "vertex 4 out of range 1..3"),
        (["automaton", "--type", "B3", "--omega", "[[], [true]]"],
         "circled vertex True must be an integer in 1..3"),
    ]:
        assert run(argv) == (2, f"usage error: {message}"), argv


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


def test_non_integer_word_letters_exit_2():
    # a letter is an exact integer: 1.9 is not truncated, true and "2" are not coerced
    for word in ([1.9, 2], [1.0], [True], ["2"]):
        cls = json.dumps({"type": "A2", "theta": [], "ring": "Z/2", "terms": [{"word": word, "coeff": 1}]})
        for argv in (
            ["mult", "--type", "A2", "--a", cls, "--b", _a2_class("Z/2", 1)],
            ["steenrod", "--type", "A2", "--class", cls],
        ):
            code, out = run(argv)
            assert code == 2 and out.startswith("usage error"), (word, argv[0])


def test_non_reduced_words_exit_2():
    # a word that is not reduced names no Schubert class: [1, 1] is not the point class,
    # [1, 2, 1, 2] not [2, 1]; the reduced non-canonical [2, 1, 2] is still accepted
    def argvs(word, dual):
        cls = json.dumps({"type": "A2", "theta": [], "ring": "Z/2",
                          "terms": [{"word": word, "coeff": 1, "dual": dual}]})
        return (["mult", "--type", "A2", "--a", cls, "--b", _a2_class("Z/2", 1)],
                ["steenrod", "--type", "A2", "--class", cls])

    for dual in (False, True):
        for word in ([1, 1], [1, 2, 1, 2]):
            for argv in argvs(word, dual):
                assert run(argv) == (2, f"usage error: word {word} is not reduced"), (word, dual)
        for argv, canonical in zip(argvs([2, 1, 2], dual), argvs([1, 2, 1], dual)):
            code, out = run(argv)
            assert code == 0 and (code, out) == run(canonical), (dual, argv[0])


def test_non_integer_theta_vertices_exit_2():
    # theta entries are JSON integers: true is not vertex 1, 2.0 and "2" are not coerced
    for theta in ([True, 2], [1, 2.0], ["2"], "12"):
        cls = json.dumps({"type": "B3", "theta": theta, "ring": "Z/2", "terms": [{"word": [3], "coeff": 1}]})
        for argv in (
            ["mult", "--type", "B3", "--theta", "1,2", "--a", cls, "--b", cls],
            ["steenrod", "--type", "B3", "--theta", "1,2", "--class", cls],
        ):
            code, out = run(argv)
            assert code == 2 and out.startswith("usage error"), (theta, argv[0])
    for theta in ("", {}):  # empty, but not a list: not read as the empty theta
        cls = json.dumps({"type": "B3", "theta": theta, "ring": "Z/2", "terms": [{"word": [3], "coeff": 1}]})
        code, out = run(["steenrod", "--type", "B3", "--theta", "", "--class", cls])
        assert (code, out) == (2, f"usage error: theta {theta!r} must be a list of integer vertices")


def test_non_bool_dual_flags_exit_2():
    for dual in (1.5, "x", 1, 0, None):
        cls = json.dumps({"type": "B3", "theta": [], "ring": "Z/2",
                          "terms": [{"word": [3], "coeff": 1, "dual": dual}]})
        code, out = run(["steenrod", "--type", "B3", "--class", cls])
        assert code == 2 and out.startswith("usage error"), dual
    # the two JSON booleans still work, and false is the default
    plain = json.dumps({"type": "B3", "theta": [], "ring": "Z/2", "terms": [{"word": [3], "coeff": 1}]})
    for dual, same in ((False, True), (True, False)):
        cls = json.dumps({"type": "B3", "theta": [], "ring": "Z/2",
                          "terms": [{"word": [3], "coeff": 1, "dual": dual}]})
        code, out = run(["steenrod", "--type", "B3", "--class", cls])
        assert code == 0
        assert (out == run(["steenrod", "--type", "B3", "--class", plain])[1]) == same


def test_automaton_omega_vertices_are_integers_in_range():
    for omega in (
        "[[],[1,2,3,99]]",
        "[[],[0,1,2,3]]",
        "[[],[1.7],[1,2],[1,2,3]]",
        "[[],[1],[1,2],[true,2,3]]",
        '[[],["1"],[1,2],[1,2,3]]',
    ):
        code, out = run(["automaton", "--type", "B3", "--omega", omega])
        assert code == 2 and out.startswith("usage error"), omega


def test_non_prime_moduli_exit_2():
    assert run(["chern", "--type", "A2", "--mod", "4"])[0] == 2
    # only an omitted --mod means Z; 0 is a modulus like any other, and not a prime
    assert run(["chern", "--type", "A2", "--mod", "0"])[0] == 2
    assert run(["chern", "--type", "A2", "--mod", "3"])[0] == 0
    # 2^61 - 1 is prime but above the cap, so it is refused without trial division
    for ring in ("Z/4", "Z/1", "Z/x", "Z/%d" % ((1 << 61) - 1)):
        code, out = run(["mult", "--type", "A2", "--a", _a2_class(ring, 1), "--b", _a2_class(ring, 1)])
        assert code == 2, ring


def test_non_canonical_ring_spellings_exit_2():
    # int() reads each of these, and "Z/1_9" as 19; a ring has one spelling, Z/p
    for ring in ("Z/02", "Z/+2", "Z/ 2", "Z/2 ", "Z/1_9"):
        code, out = run(["mult", "--type", "A2", "--a", _a2_class(ring, 1), "--b", _a2_class(ring, 1)])
        assert code == 2 and out.startswith("usage error"), ring


def test_non_canonical_type_spellings_exit_2():
    # int() reads each of these ranks, and "A1_0" as 10; a type has one spelling, like E7
    for name in ("A1_0", "E+7", "E 7", "D05", "B\u0663", "E\uff17", "A2xE 7"):
        code, out = run(["roots", "--type", name])
        assert code == 2 and out.startswith("usage error"), name
    assert run(["roots", "--type", "e7"]) == run(["roots", "--type", "E7"])  # a lower-case family


def test_non_canonical_integer_spellings_exit_2():
    # int() reads each of these, "1_9" as 19 and "\u0663" as 3; an integer argument has one
    # spelling, ASCII digits with an optional minus as str(int) writes them
    spellings = ("1_9", "\u0663", "+1", "01", "-0", "0_1", "1.0", "\uff17")
    cls = _a2_class("Z/2", 1)
    single = [
        ["chern", "--type", "A2", "--codim", "{}"],
        ["chern", "--type", "A2", "--mod", "{}"],
        ["steenrod", "--type", "A2", "--class", cls, "--i", "{}"],
        ["jinv", "--type", "F4", "--p", "{}", "--profile", "1", "rhs"],
        ["jinv", "--type", "F4", "--p", "2", "--profile", "1", "gensplit", "--vertex", "{}"],
    ]
    lists = [
        ["cosets", "--type", "A2", "--theta", "{}"],
        ["decompose", "--type", "B3", "--circled", "{}"],
        ["jinv", "--type", "F4", "--p", "2", "--profile", "{}", "rhs"],
    ]
    for argv in single + lists:
        for bad in spellings + ((" 1", "1 ") if argv in single else ("1,0_2", "2, 01")):
            code, out = run([bad if a == "{}" else a for a in argv])
            assert code == 2 and out.startswith("usage error"), (argv, bad)
    # the one spelling still works, with spaces around the commas of a list
    assert run(["chern", "--type", "A2", "--mod", "3"])[0] == 0
    spaced, plain = (run(["cosets", "--type", "B3", "--theta", t]) for t in (" 1 , 2 ", "1,2"))
    assert spaced == plain and plain[0] == 0


def test_non_invertible_denominators_exit_2():
    for ring in ("Z/2", "Z"):
        code, out = run(["mult", "--type", "A2", "--a", _a2_class(ring, "1/2"), "--b", _a2_class(ring, 1)])
        assert code == 2, ring
        assert out.startswith("usage error")
    code, out = run(["mult", "--type", "A2", "--a", _a2_class("Z/3", "1/2"), "--b", _a2_class("Z/3", 1)])
    assert code == 0


def test_non_string_ring_exit_2():
    for ring in (2, ["Z"], None):
        code, out = run(["mult", "--type", "A2", "--a", _a2_class(ring, 1), "--b", _a2_class("Z", 1)])
        assert code == 2 and out.startswith("usage error"), ring


def test_missing_omega_file_exit_2(tmp_path):
    code, out = run(["automaton", "--type", "A2", "--omega", "@" + str(tmp_path / "missing.json")])
    assert code == 2
    assert out.startswith("usage error")


def test_resource_cap_exit_3(monkeypatch):
    from weylchow.errors import ResourceLimitError
    import weylchow.rootdata

    def refuse(t):
        raise ResourceLimitError("cap")

    monkeypatch.setattr(weylchow.rootdata, "build_root_system", refuse)
    code, out = run(["roots", "--type", "E6"])
    assert code == 3


def test_zero_denominator_coefficient_exit_2():
    code, out = run(["mult", "--type", "A2", "--a", _a2_class("Q", "1/0"), "--b", _a2_class("Q", 1)])
    assert (code, out) == (2, "usage error: coefficient '1/0' has a zero denominator")


def test_non_canonical_coefficient_spellings_exit_2():
    # Fraction() reads every one of these; a coefficient string is ASCII -?digits(/digits)?
    for coeff in ("1_0", " \u0663 ", "\u0663", "1e2", "1.5", "+3", " 3", "3 ", "3/+4", "--3", "3/4/5"):
        for ring in ("Q", "Z"):
            code, out = run(["mult", "--type", "A2", "--a", _a2_class(ring, coeff), "--b", _a2_class(ring, 1)])
            assert code == 2 and out.startswith("usage error: coefficient"), (coeff, ring)


def test_terms_must_be_a_list_exit_2():
    # an object would iterate as its keys: {} read as the zero class
    for terms in ({}, {"word": [1]}, "x", 1):
        cls = json.dumps({"type": "A2", "theta": [], "ring": "Z", "terms": terms})
        code, out = run(["mult", "--type", "A2", "--a", cls, "--b", _a2_class("Z", 1)])
        assert code == 2 and out.startswith("usage error: terms"), terms


def test_root_cap_checked_before_closure():
    big = json.dumps({"type": "A300", "terms": []})
    t0 = time.perf_counter()
    assert run(["roots", "--type", "A300"])[0] == 3
    assert run(["mult", "--type", "A300", "--a", big, "--b", big])[0] == 3
    assert time.perf_counter() - t0 < 1.0


def test_coset_cap_checked_before_enumeration():
    t0 = time.perf_counter()
    code, out = run(["cosets", "--type", "E8", "--theta", ""])
    assert code == 3
    assert time.perf_counter() - t0 < 1.0


def test_internal_error_exit_4(monkeypatch):
    from weylchow.errors import InternalComputationError
    import weylchow.rootdata

    def violate(t):
        raise InternalComputationError("invariant violated")

    monkeypatch.setattr(weylchow.rootdata, "build_root_system", violate)
    code, out = run(["roots", "--type", "A2"])
    assert code == 4


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


def test_cache_dir_interrupted_write_leaves_no_entry(tmp_path, monkeypatch):
    from weylchow import cli

    args = ["--cache-dir", str(tmp_path), "poincare", "--type", "B2", "--theta", ""]
    calls = []
    dispatch = cli._dispatch
    monkeypatch.setattr(cli, "_dispatch", lambda a: calls.append(a) or dispatch(a))

    def fail_replace(src, dst):
        raise OSError("disk full")

    answer = (0, "1+2t+2t^2+2t^3+t^4")
    with monkeypatch.context() as m:
        m.setattr(cli.os, "replace", fail_replace)
        assert run(args) == answer
    assert list(tmp_path.iterdir()) == []
    assert run(args) == answer
    assert len(calls) == 2
    assert [f.suffix for f in tmp_path.iterdir()] == [".out"]
    assert run(args) == answer
    assert len(calls) == 2


def test_unreadable_cache_entries_are_misses(tmp_path):
    args = ["--cache-dir", str(tmp_path), "poincare", "--type", "B2", "--theta", ""]
    cold = run(args[2:])
    assert cold[0] == 0
    assert run(args) == cold
    (entry,) = tmp_path.iterdir()
    entry.write_bytes(b"\xff\xfe")  # not UTF-8
    assert run(args) == cold
    assert entry.read_text(encoding="utf-8") == cold[1]  # rewritten through the temp file
    entry.unlink()
    entry.mkdir()  # a directory where the entry should be
    assert run(args) == cold
    assert entry.is_dir() and list(tmp_path.iterdir()) == [entry]


def test_cache_entries_survive_a_moved_cache_dir(tmp_path):
    args = ["poincare", "--type", "A2", "--theta", ""]
    assert run(["--cache-dir", str(tmp_path / "a")] + args)[0] == 0
    (tmp_path / "a").rename(tmp_path / "b")
    assert run(["--cache-dir", str(tmp_path / "b")] + args)[0] == 0
    assert len(list((tmp_path / "b").iterdir())) == 1


def test_cache_key_includes_version(tmp_path, monkeypatch):
    from weylchow import cli

    args = ["--cache-dir", str(tmp_path), "poincare", "--type", "A2", "--theta", ""]
    run(args)
    monkeypatch.setattr(cli, "__version__", "0.0.0-other")
    run(args)
    assert len(list(tmp_path.iterdir())) == 2


def test_cache_key_follows_the_package_sources(tmp_path, monkeypatch):
    # the version stays put between builds: a changed source byte must miss, unchanged
    # sources must still replay
    import shutil

    from weylchow import cli

    package = tmp_path / "package"
    shutil.copytree(Path(cli.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(cli, "__file__", str(package / "cli.py"))
    calls = []
    dispatch = cli._dispatch
    monkeypatch.setattr(cli, "_dispatch", lambda a: calls.append(a) or dispatch(a))
    cache = tmp_path / "cache"
    args = ["--cache-dir", str(cache), "poincare", "--type", "A2", "--theta", ""]
    answer = (0, "1+2t+2t^2+t^3")
    assert run(args) == run(args) == answer
    assert len(calls) == 1 and len(list(cache.iterdir())) == 1
    source = package / "univar.py"
    source.write_bytes(source.read_bytes().replace(b"t^", b"x^", 1))
    assert run(args) == run(args) == answer
    assert len(calls) == 2 and len(list(cache.iterdir())) == 2


def test_cache_key_follows_omega_file_contents(tmp_path):
    omega = tmp_path / "omega.json"
    args = ["--cache-dir", str(tmp_path / "cache"), "automaton", "--type", "B3",
            "--omega", "@" + str(omega), "--format", "dot"]
    outputs = []
    for subsets in ([[], [1], [1, 2], [1, 2, 3]], [[], [3], [1, 3], [1, 2, 3]]):
        omega.write_text(json.dumps(subsets))
        direct = run(["automaton", "--type", "B3", "--omega", json.dumps(subsets), "--format", "dot"])
        assert direct[0] == 0
        assert run(args) == direct
        outputs.append(direct[1])
    assert outputs[0] != outputs[1]
    omega.unlink()
    code, out = run(args)
    assert code == 2 and out.startswith("usage error")


# --- argv fuzzing -----------------------------------------------------------
# Types of rank <= 4 and names that do not parse or are out of range.  F4 is
# left out of chern, steenrod and mult, where its full flag takes seconds.
_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2",
          "A1xA1", "A2xB2", "1", "", "Q9", "A0", "B1", "D2", "E9", "x", "A"]
_SLOW_ON_F4 = ("chern", "steenrod", "mult")
_junk = st.sampled_from(["", "x", "1,,2", "-1", "1.5", "[", "{}", "null", "2e3", "@", " "])
_ints = st.integers(min_value=-3, max_value=12)
_int_args = st.sampled_from([str(n) for n in range(-3, 13)] + ["", "x", "1.5"])
_vertices = st.one_of(
    st.just(""),
    st.lists(st.integers(min_value=-1, max_value=6), max_size=5).map(lambda v: ",".join(map(str, v))),
    _junk,
)
_formats = st.sampled_from(["json", "dot", "svg"])
_NON_ASCII_DIGITS = ("\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",  # Arabic-Indic
                     "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")  # fullwidth


def _type_argument(type_name):
    """The --type value: the name, or as often its first rank spelled in a way int() reads
    but a Dynkin type does not (a sign, an underscore, an inner space, a leading zero or
    non-ASCII digits)."""
    head, x, rest = type_name.partition("x")
    family, rank = head[:1], head[1:]
    if not rank.isdigit():
        return st.just(type_name)
    ranks = ["+" + rank, "0_" + rank, " " + rank, "0" + rank]
    ranks += [rank.translate(str.maketrans("0123456789", digits)) for digits in _NON_ASCII_DIGITS]
    return st.sampled_from([type_name] * len(ranks) + [family + r + x + rest for r in ranks])


def _json_text(value):
    return st.one_of(value.map(json.dumps), _junk)


def _class(type_name):
    """Class JSON, usually on the full flag of the --type under test."""
    letter = st.sampled_from([1, 2, 1, 2, 3, 0, 5])
    term = st.fixed_dictionaries(
        {"word": st.one_of(st.lists(letter, max_size=4), st.sampled_from([[1.0], ["1"], 3, None]))},
        optional={"coeff": st.one_of(_ints, st.sampled_from(
                      ["1/3", "-2", "x", 1.5, True, None, "1_0", " 3", "1e2", "1.5", "\u0663"])),
                  "dual": st.booleans()},
    )
    theta = st.lists(st.one_of(letter, st.sampled_from([1.5, "1", None])), max_size=3)
    return _json_text(st.fixed_dictionaries(
        {"type": st.sampled_from([type_name] * len(_TYPES) + _TYPES)},
        optional={"theta": theta,
                  "ring": st.sampled_from(["Z/2"] * 3 + ["Z", "Q", "Z/3", "Z/4", "Z/x", 2, ["Z"]]),
                  "terms": st.lists(term, max_size=3)},
    ))


_omega = st.one_of(
    _json_text(st.lists(st.lists(st.integers(min_value=-1, max_value=5), max_size=4), max_size=5)),
    st.sampled_from(['[[],[1],[1,2],[1,2,3]]', '[[],[3],[1,3],[1,2,3]]', '[[],[1,2,3,4]]']),
)


def _options(command, type_name):
    """command -> its options; None marks a flag without a value."""
    return {
        "cosets": {"--theta": _vertices},
        "poincare": {"--theta": _vertices},
        "mult": {"--theta": _vertices, "--a": _class(type_name), "--b": _class(type_name)},
        "chern": {"--theta": _vertices, "--codim": _int_args, "--mod": _int_args},
        "steenrod": {"--theta": _vertices, "--class": _class(type_name), "--i": _int_args},
        "decompose": {"--theta": _vertices, "--circled": _vertices, "--rost": None, "--format": _formats},
        "hasse": {"--theta": _vertices, "--format": _formats},
        "automaton": {"--omega": _omega, "--format": _formats},
        "jinv": {"--p": _int_args, "--profile": _vertices, "--theta": _vertices, "--vertex": _int_args,
                 "action": st.sampled_from(["rhs", "predict", "gensplit", "other"])},
    }.get(command, {})


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["roots", "cosets", "poincare", "mult", "chern", "steenrod",
                                    "decompose", "hasse", "automaton", "jinv", "nonsense"]))
    type_name = draw(st.sampled_from(_TYPES if command in _SLOW_ON_F4 else _TYPES + ["F4"] * 3))
    argv = [command]
    if draw(st.integers(min_value=0, max_value=9)):
        argv += ["--type", draw(_type_argument(type_name))]
    for option, values in _options(command, type_name).items():
        if not draw(st.integers(min_value=0, max_value=7)):
            continue  # leave the option out, required or not
        if option == "action":
            argv.append(draw(values))
        elif values is None:
            argv.append(option)
        else:
            argv += [option, draw(values)]
    return argv


@settings(max_examples=150, deadline=None)
@given(_argvs())
def test_any_argv_maps_to_a_documented_exit_code(argv):
    code, out = run(argv)
    assert code in (0, 2, 3, 4)
    assert isinstance(out, str)


# --- mult on basis classes --------------------------------------------------
_MULT_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "A1xA1", "A2xB2"]


@st.composite
def _basis_products(draw):
    """A type of rank <= 4, a theta, two basis words of its coset table and a ring."""
    name = draw(st.sampled_from(_MULT_TYPES))
    rs = build_root_system(name)
    theta = tuple(sorted(draw(st.sets(st.integers(min_value=1, max_value=rs.rank)))))
    words = st.sampled_from(coset_reps(rs, theta).words)
    return name, theta, draw(words), draw(words), draw(st.sampled_from(["Z", "Z/2", "Z/3"]))


@settings(max_examples=60, deadline=None)
@given(_basis_products())
def test_mult_of_basis_classes_commutes_and_matches_the_preimage_oracle(case):
    name, theta, word_a, word_b, ring = case

    def basis(word):
        return json.dumps({"type": name, "theta": list(theta), "ring": ring,
                           "terms": [{"word": list(word), "coeff": 1}]})

    argv = ["mult", "--type", name, "--theta", ",".join(map(str, theta))]
    code, out = run(argv + ["--a", basis(word_a), "--b", basis(word_b)])
    assert code == 0, out
    assert run(argv + ["--a", basis(word_b), "--b", basis(word_a)]) == (0, out)
    a, b = class_from_json(basis(word_a)), class_from_json(basis(word_b))
    ctx = flag_context(build_root_system(name), theta)
    k = a.codim(ctx.ct) + b.codim(ctx.ct)
    product = class_from_json(out)
    if k > ctx.dim:  # above the top degree: the zero class, with no preimage to compare
        assert product.is_zero()
    else:
        assert product == multiply_by_preimage_product(ctx, a, b, k, ring)


def _weylchow(argv):
    """A `python -m weylchow.cli` process with this package on its path."""
    env = dict(os.environ, PYTHONPATH=str(Path(weylchow.__file__).resolve().parents[1]))
    return [sys.executable, "-m", "weylchow.cli", *argv], env


def test_reader_closing_stdout_early_is_no_error(tmp_path):
    # `weylchow cosets ... | head -c 10`: the rest of the output is dropped,
    # the exit code stays the invocation's own and no traceback is printed;
    # with --cache-dir the entry being written is dropped, not left truncated
    argv = ["cosets", "--type", "E6", "--theta", ""]
    cache = ["--cache-dir", str(tmp_path)]
    for args in (argv, cache + argv):
        cmd, env = _weylchow(args)
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as p:
            assert p.stdout.read(10) == b'{"count": '
            p.stdout.close()
            err = p.stderr.read().decode()
            assert p.wait(timeout=60) == 0
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []
    cmd, env = _weylchow(cache + argv)
    done = subprocess.run(cmd, capture_output=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout == (run(argv)[1] + "\n").encode()
    assert [f.suffix for f in tmp_path.iterdir()] == [".out"]


@pytest.mark.parametrize("name,theta,circled", [("B3", "", "1,3"), ("E6", "2,3,4,5,6", "1,6")],
                         ids=["B3", "E6/P1"])
def test_processes_print_what_run_returns(tmp_path, name, theta, circled):
    # the console script writes its output in pieces, cold and replayed from --cache-dir
    base = ["--type", name, "--theta", theta]
    decompose = ["decompose", *base, "--circled", circled]
    answered = 0
    for argv in (["cosets", *base], ["hasse", *base, "--format", "json"],
                 ["hasse", *base, "--format", "dot"], decompose,
                 decompose + ["--format", "dot"], decompose + ["--rost"]):
        code, out = run(argv)
        answered += code == 0
        for _ in ("cold", "replayed"):
            cmd, env = _weylchow(["--cache-dir", str(tmp_path), *argv])
            done = subprocess.run(cmd, capture_output=True, env=env, timeout=60)
            assert done.returncode == code, argv
            printed, other = (done.stdout, done.stderr) if code == 0 else (done.stderr, done.stdout)
            assert printed == (out + "\n").encode(), argv
            assert other == b""
    assert answered == (6 if name == "E6" else 5)  # 1 + t^3 divides the E6/P1 summands only
    assert len(list(tmp_path.iterdir())) == answered  # one entry per answer, none per refusal


def test_refused_rost_prints_nothing_and_stores_nothing(tmp_path):
    # cut along vertex 1, A2's flag falls into A1 summands of profile 1 + t, which 1 + t^3
    # does not divide: refused before anything is printed or stored
    cmd, env = _weylchow(["--cache-dir", str(tmp_path), "decompose", "--type", "A2",
                          "--theta", "", "--circled", "1", "--rost"])
    done = subprocess.run(cmd, capture_output=True, env=env, timeout=60)
    assert done.returncode == 2
    assert done.stdout == b""
    assert done.stderr.startswith(b"usage error: ")
    assert list(tmp_path.iterdir()) == []


def test_empty_and_dimension_0_tables_print_as_before():
    point = '[{"codim": 0, "length": 0, "word": []}]'
    assert run(["cosets", "--type", "", "--theta", ""]) == (
        0, f'{{"count": 1, "dim": 0, "reps": {point}, "theta": [], "type": "1"}}')
    assert run(["cosets", "--type", "A1", "--theta", "1"]) == (
        0, f'{{"count": 1, "dim": 0, "reps": {point}, "theta": [1], "type": "A1"}}')
    assert run(["hasse", "--type", "A1", "--theta", "1", "--format", "json"]) == (
        0, '{"edges": [], "theta": [1], "type": "A1", "vertices": [{"length": 0, "word": []}]}')
    assert run(["hasse", "--type", "A1", "--theta", "1", "--format", "dot"]) == (
        0, 'digraph hasse {\n  n0 [label="[] (0)"];\n}')
    assert run(["decompose", "--type", "A1", "--theta", "1", "--format", "dot"]) == (
        0, 'digraph motive {\n  n0 [label="[] (0)", color=red];\n}')


@pytest.mark.parametrize("argv", [
    ["cosets", "--type", "E6", "--theta", ""],
    ["hasse", "--type", "E6", "--theta", "", "--format", "json"],
    ["decompose", "--type", "E6", "--theta", "", "--circled", "1,6", "--format", "dot"],
], ids=["cosets", "hasse", "decompose"])
def test_printing_holds_no_copy_of_the_whole_output(monkeypatch, argv):
    # the console script writes cosets and Hasse edges layer by layer: beyond the
    # coset table and its point index, which are built first, its traced peak
    # stays below half the output (the motive cut's summands included)
    import tracemalloc

    from weylchow import cli

    coset_reps(build_root_system("E6"), ())._points
    size = len(run(argv)[1])
    monkeypatch.setattr(sys, "argv", ["weylchow", *argv])
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(SystemExit) as exit_:
                cli.main()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert exit_.value.code == 0
    assert peak - base < size / 2
