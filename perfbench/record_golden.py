"""Record the golden pools of every workload from the current source tree.

    python3 perfbench/record_golden.py [NAME...]

Writes perfbench/golden/NAME.json for each workload (all of them when no
name is given).  The goldens were recorded on the commit that introduced
the benchmark; a later change must reproduce them, so rerun this only when
a workload's pool changes, never to accept new outputs.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from weylchow.rootdata import build_root_system  # noqa: E402
from weylchow.schubert import _poly_limit  # noqa: E402
from weylchow.weyl import coset_reps  # noqa: E402
from workloads import GOLDEN_DIR, ROST_ARGV, class_json  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
E7_P1 = [2, 3, 4, 5, 6, 7]
E6_P1 = [2, 3, 4, 5, 6]

#: README examples that finish in well under a second
README_SMALL = [
    ["poincare", "--type", "A2", "--theta", ""],
    ["roots", "--type", "E7"],
    ["cosets", "--type", "E7", "--theta", "2,3,4,5,6,7"],
    ["mult", "--type", "A2", "--theta", "",
     "--a", '{"type":"A2","theta":[],"ring":"Z","terms":[{"word":[1,2],"coeff":1}]}',
     "--b", '{"type":"A2","theta":[],"ring":"Z","terms":[{"word":[1],"coeff":1}]}'],
    ROST_ARGV,
    ["hasse", "--type", "B2", "--theta", "2", "--format", "dot"],
    ["automaton", "--type", "B3", "--omega", "[[],[1],[1,2],[1,2,3]]", "--format", "dot"],
    ["jinv", "--type", "F4", "--p", "2", "--profile", "1", "rhs"],
    ["jinv", "--type", "E6", "--p", "2", "--profile", "1", "predict", "--theta", "2,3,4,5,6"],
    ["jinv", "--type", "F4", "--p", "2", "--profile", "1", "gensplit", "--vertex", "4"],
]


def child(job):
    p = subprocess.run([sys.executable, str(HERE / "child.py")], input=json.dumps(job),
                       capture_output=True, text=True, env=ENV, check=True)
    out = json.loads(p.stdout)
    if out["failures"]:
        raise SystemExit(f"golden run failed: {out['failures']}")
    return out["answers"]


def words(type_name, theta, codim):
    ct = coset_reps(build_root_system(type_name), tuple(theta))
    return [list(ct.reps[k].word) for k in range(len(ct)) if ct.codim(k) == codim]


def chern(type_name, theta, max_codim, ring):
    space = {"type": type_name, "theta": theta}
    classes = child({"kind": "chern", "spaces": [space],
                     "query": {"max_codim": max_codim, "ring": ring}})[0]
    return {**space, "max_codim": max_codim, "ring": ring, "classes": classes}


def route_pairs(type_name, theta):
    """Basis pairs of positive codimensions below dim, split by the route `multiply` takes.

    Returns (poly, pairing): products computed through preimage
    polynomials, and products assembled from duality pairings.
    """
    ct = coset_reps(build_root_system(type_name), tuple(theta))
    dim, limit = ct.max_length, _poly_limit(ct.max_length)
    poly, pairing = [], []
    for a in range(len(ct)):
        for b in range(len(ct)):
            da, db = ct.codim(a), ct.codim(b)
            if not (da and db and da + db < dim):
                continue
            route = poly if da + db <= limit or max(da, db) < dim - limit else pairing
            route.append((list(ct.reps[a].word), list(ct.reps[b].word)))
    return poly, pairing


def products(spaces):
    """spaces: [(type, theta, ring, draw, [(a_word, b_word)])]."""
    recorded = []
    for type_name, theta, ring, draw, pairs in spaces:
        space = {"type": type_name, "theta": theta}
        job = {"kind": "products", "generators": True, "spaces": [{**space, "pairs": [
            [class_json(space, ring, a), class_json(space, ring, b)] for a, b in pairs]}]}
        outs = child(job)
        recorded.append({**space, "ring": ring, "draw": draw, "pairs": [
            {"a": a, "b": b, "out": o} for (a, b), o in zip(pairs, outs)]})
    return {"spaces": recorded}


def steenrod(type_name, theta, routes):
    """routes: [(name, up_to, pool)]; a pool is a list of words or a codimension."""
    space = {"type": type_name, "theta": theta}
    out = {**space, "routes": []}
    for name, up_to, pool in routes:
        if isinstance(pool, int):
            pool = words(type_name, theta, pool)
        answers = child({"kind": "steenrod", "calibrate": True, "spaces": [space], "queries": [
            {"class": class_json(space, "Z/2", w), "up_to": up_to} for w in pool]})
        out["routes"].append({"name": name, "up_to": up_to, "pool": [
            {"word": w, "out": a} for w, a in zip(pool, answers)]})
    return out


def cli(heavy, circled_argv, circled_pool, small):
    argvs = heavy + [circled_argv + [c] for c in circled_pool] + small
    outputs = {}
    for argv in argvs:
        p = subprocess.run([sys.executable, "-m", "weylchow.cli"] + argv, capture_output=True,
                           env=ENV, check=True)
        outputs[json.dumps(argv)] = {"sha256": hashlib.sha256(p.stdout).hexdigest(),
                                     "bytes": len(p.stdout)}
    return {"heavy": heavy, "circled_argv": circled_argv, "circled_pool": circled_pool,
            "small": small, "outputs": outputs}


GOLDENS = {
    "chern-e7p1": lambda: chern("E7", E7_P1, 11, "Z/2"),
    "products-e6p1": lambda: products([
        ("E6", E6_P1, "Z/2", 88, route_pairs("E6", E6_P1)[0]),
        ("E6", E6_P1, "Z", None, route_pairs("E6", E6_P1)[1]),
    ]),
    # the direct route gets one fixed class, as criterion 5's f is fixed: the
    # codim-20 classes differ by up to 1.6x in pushforward work, while every
    # CH^8 class needs the same 26 Phi entries
    "steenrod-e7p1": lambda: steenrod("E7", E7_P1, [
        ("direct", None, [[2, 3, 1, 4, 3, 5, 4, 2, 6, 5, 4, 3, 1]]), ("duality", 5, 8)]),
    "cli-e6flags": lambda: cli(
        [["cosets", "--type", "E6", "--theta", ""], ["hasse", "--type", "D5", "--format", "json"]],
        ["decompose", "--type", "E6", "--theta", "1", "--circled"],
        ["2", "3", "4", "6", "2,4", "3,5", "1,6", "2,4,6"], README_SMALL),
    "smoke-chern": lambda: chern("B3", [], None, "Z/2"),
    "smoke-products": lambda: products([
        ("B3", [], "Z/2", 2, [(a, b) for a in words("B3", [], 3) for b in words("B3", [], 2)]),
        ("A3", [], "Z", None, [(a, b) for a in words("A3", [], 2) for b in words("A3", [], 2)]),
        ("E6", E6_P1, "Z", 4, route_pairs("E6", E6_P1)[1]),
    ]),
    "smoke-steenrod": lambda: steenrod("A3", [], [("direct", None, 3), ("short", 1, 2)]),
    "smoke-cli": lambda: cli(
        [["cosets", "--type", "A3", "--theta", ""], ["hasse", "--type", "B3", "--format", "json"]],
        ["decompose", "--type", "B3", "--circled"], ["1", "2", "1,3"],
        [README_SMALL[0], ROST_ARGV, README_SMALL[6]]),
}


def main(names):
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or GOLDENS:
        data = GOLDENS[name]()
        with open(GOLDEN_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
