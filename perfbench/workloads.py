"""Workload definitions: seeded inputs, child jobs and answer checks.

Every workload draws its inputs from pools stored in ``golden/``; each pool
entry carries the program's output recorded on the seed commit, which is
what the answers are checked against (``record_golden.py`` wrote them).
The seed picks entries; the program only ever sees the generated class
JSON or argument vector.
"""

import json
import random
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: a second seed, never used while the benchmark was tuned, for verifying
#: later performance claims on inputs they were not developed on
HELD_OUT_SEED = 7062827

#: criterion 7 of the acceptance suite: E7/P7 cut along circled {1,6,7}
ROST_ARGV = ["decompose", "--type", "E7", "--theta", "1,2,3,4,5,6", "--circled", "1,6,7", "--rost"]
ROST_SINGLES = [0, 1, 9, 10, 17, 18, 26, 27]
ROST_TWISTS = sorted(list(range(2, 23)) + [11, 12, 13])


def load_golden(name):
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def class_json(space, ring, word):
    """The class JSON of one Schubert basis element, as the CLI accepts it."""
    return json.dumps({"type": space["type"], "theta": space["theta"], "ring": ring,
                       "terms": [{"word": word, "coeff": 1}]}, sort_keys=True)


def _space(golden):
    return {"type": golden["type"], "theta": golden["theta"]}


class Workload:
    """A golden pool file, the number of set-up-only probes per run, and the child job."""

    kind = None
    setup = {}  # extra set-up steps the child performs before the clock stops

    def __init__(self, golden, probes=3):
        self.golden = golden
        self.probes = probes

    def job(self, inputs):
        return {"kind": self.kind, **self.setup, **inputs}


class ChernWorkload(Workload):
    """Chern classes of the tangent bundle, c_0..c_max, in one query."""

    kind = "chern"

    def inputs(self, seed):
        g = load_golden(self.golden)
        return {"spaces": [_space(g)], "query": {"max_codim": g["max_codim"], "ring": g["ring"]}}

    def queries(self, inputs):
        return 1

    def check(self, inputs, answers, golden=None):
        g = golden or load_golden(self.golden)
        if answers != [g["classes"]]:
            return ["chern classes differ from the golden record"]
        return []


class ProductsWorkload(Workload):
    """General products: a seeded draw from each space's pool of pairs."""

    kind = "products"
    setup = {"generators": True}

    def inputs(self, seed):
        g = load_golden(self.golden)
        rng = random.Random(seed)
        spaces = []
        for sp in g["spaces"]:
            pool = range(len(sp["pairs"]))
            picks = sorted(rng.sample(pool, sp["draw"])) if sp["draw"] else list(pool)
            spaces.append({**_space(sp), "ring": sp["ring"], "picks": picks, "pairs": [
                [class_json(sp, sp["ring"], sp["pairs"][i]["a"]),
                 class_json(sp, sp["ring"], sp["pairs"][i]["b"])] for i in picks]})
        return {"spaces": spaces}

    def queries(self, inputs):
        return sum(len(sp["pairs"]) for sp in inputs["spaces"])

    def check(self, inputs, answers, golden=None):
        g = golden or load_golden(self.golden)
        want = [g["spaces"][s]["pairs"][i]["out"]
                for s, sp in enumerate(inputs["spaces"]) for i in sp["picks"]]
        fails = [f"product {k} differs from the golden record"
                 for k, (a, b) in enumerate(zip(answers, want)) if a != b]
        return fails + ["product missing"] * max(0, len(want) - len(answers))


class SteenrodWorkload(Workload):
    """Total Steenrod operations: one class per route, drawn from the route's pool."""

    kind = "steenrod"
    setup = {"calibrate": True}

    def inputs(self, seed):
        g = load_golden(self.golden)
        rng = random.Random(seed)
        queries = []
        for route in g["routes"]:
            i = rng.randrange(len(route["pool"]))
            queries.append({"route": route["name"], "pick": i, "up_to": route["up_to"],
                            "class": class_json(g, "Z/2", route["pool"][i]["word"])})
        return {"spaces": [_space(g)], "queries": queries}

    def queries(self, inputs):
        return len(inputs["queries"])

    def check(self, inputs, answers, golden=None):
        g = golden or load_golden(self.golden)
        routes = {r["name"]: r for r in g["routes"]}
        fails = []
        for q, got in zip(inputs["queries"], answers):
            entry = routes[q["route"]]["pool"][q["pick"]]
            s0 = json.loads(got[0])["terms"] if got else None
            if s0 != [{"word": entry["word"], "coeff": 1}]:
                fails.append(f"{q['route']}: S^0 is not the identity")
            elif got != entry["out"]:
                fails.append(f"{q['route']}: Steenrod pieces differ from the golden record")
        return fails + ["Steenrod query missing"] * max(0, len(inputs["queries"]) - len(answers))


class CliWorkload(Workload):
    """Separate ``weylchow`` processes: a cold pass, then a replay pass."""

    kind = "cli"

    def inputs(self, seed):
        g = load_golden(self.golden)
        rng = random.Random(seed)
        argvs = [list(a) for a in g["heavy"]]
        argvs.append(g["circled_argv"] + [rng.choice(g["circled_pool"])])
        return {"argvs": argvs + [list(a) for a in g["small"]]}

    def queries(self, inputs):
        return len(inputs["argvs"])

    def check(self, inputs, results, golden=None):
        """results: [(argv, exit code, sha256, stdout bytes)] of one pass."""
        g = golden or load_golden(self.golden)
        fails = []
        for argv, code, digest, out in results:
            want = g["outputs"].get(json.dumps(argv))
            if code != 0:
                fails.append(f"{' '.join(argv)}: exit {code}")
            elif want is None or want["sha256"] != digest:
                fails.append(f"{' '.join(argv)}: output differs from the golden record")
            elif argv == ROST_ARGV:
                data = json.loads(out)
                singles = sorted(s["twist"] for s in data["summands"] if len(s["vertices"]) == 1)
                if singles != ROST_SINGLES or data["rost_twists"] != ROST_TWISTS:
                    fails.append("E7/P7 Rost decomposition differs from the paper")
        return fails


WORKLOADS = {
    "chern-e7p1": ChernWorkload("chern-e7p1"),
    "products-e6p1": ProductsWorkload("products-e6p1", probes=0),
    "steenrod-e7p1": SteenrodWorkload("steenrod-e7p1"),
    "cli-e6flags": CliWorkload("cli-e6flags"),
}

#: the self-test's small versions of the same four workloads
SMOKE = {
    "chern-e7p1": ChernWorkload("smoke-chern", probes=1),
    "products-e6p1": ProductsWorkload("smoke-products", probes=0),
    "steenrod-e7p1": SteenrodWorkload("smoke-steenrod", probes=1),
    "cli-e6flags": CliWorkload("smoke-cli", probes=1),
}
