"""Self-test of the benchmark: ``python3 perfbench/run.py --self-test``.

Runs the small versions of the four workloads (B3, A3, E6/P1 and the E7/P7
README example) through the same runner, traced and untraced, and checks:

* every answer check passes on the real outputs and fails on a golden
  record with one value corrupted;
* the tracer reports every per-layer metric and lists a missing name as
  absent instead of crashing;
* both result objects match BENCHMARK.json (keys, metric names and units);
* in a directory holding only the benchmark, the run exits non-zero
  without printing a result.
"""

import copy
import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracer
from workloads import SMOKE, load_golden

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _corrupt_class(text):
    data = json.loads(text)
    if data["terms"]:
        data["terms"][0]["coeff"] += 1
    else:
        data["terms"].append({"coeff": 1, "word": [1]})
    return json.dumps(data, sort_keys=True)


def _corrupt(kind, golden, inputs):
    """A copy of `golden` with the value the run's first query is checked against changed."""
    g = copy.deepcopy(golden)
    if kind == "chern":
        g["classes"][1] = _corrupt_class(g["classes"][1])
    elif kind == "products":
        pair = g["spaces"][0]["pairs"][inputs["spaces"][0]["picks"][0]]
        pair["out"] = _corrupt_class(pair["out"])
    elif kind == "steenrod":
        q = inputs["queries"][0]
        route = next(r for r in g["routes"] if r["name"] == q["route"])
        out = route["pool"][q["pick"]]["out"]
        out[-1] = _corrupt_class(out[-1])
    else:
        g["outputs"][json.dumps(inputs["argvs"][0])]["sha256"] = "0" * 64
    return g


def _check_answers(root, name, wl, problems):
    work = root / ".bench_work" / f"selftest-{name}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = run.Runner(root, work)
        inputs = wl.inputs(1)
        if wl.kind == "cli":
            answers = []
            for argv in inputs["argvs"]:
                code, _, out = runner.cli_process(argv)
                answers.append((argv, code, hashlib.sha256(out).hexdigest(),
                                out if argv == run.ROST_ARGV else None))
        else:
            answers = runner.api_round(wl.job(inputs))["answers"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    golden = load_golden(wl.golden)
    if wl.check(inputs, answers, golden):
        problems.append(f"{name}: check fails on the recorded outputs")
    if not wl.check(inputs, answers, _corrupt(wl.kind, golden, inputs)):
        problems.append(f"{name}: a corrupted golden value was not reported")


def _check_result(name, trace, result, spec, problems):
    if set(result) != RESULT_KEYS:
        problems.append(f"{name}/trace {trace}: result keys {sorted(result)}")
        return
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{name}/trace {trace}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(want))}")
    for key, m in result["metrics"].items():
        v = m["value"]
        if not isinstance(v, (int, float)) or math.isnan(v) or (not trace and v <= 0):
            problems.append(f"{name}/trace {trace}: {key} = {v!r}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{name}/trace {trace}: correct={result['correct']} "
                        f"failed={result['failed']} attempted={result['attempted']}")


def _check_tracer(root, problems):
    sys.path.insert(0, str(root / "src"))
    layers = dict(tracer.LAYERS)
    mod, names = layers["polynomial"]
    layers["polynomial"] = (mod, names + ["no_such_function", "Polynomial.no_such_method"])
    t = tracer.Tracer(layers)
    t.install()
    from weylchow import rootdata
    rootdata.build_root_system("A2")
    rep = t.report()
    if rep["absent"] != ["polynomial.no_such_function", "polynomial.Polynomial.no_such_method"]:
        problems.append(f"tracer: absent names reported as {rep['absent']}")
    if rep["metrics"]["rootdata.calls"] < 1 or set(rep["metrics"]) != set(tracer.metric_names()):
        problems.append("tracer: calls not counted or metric names incomplete")


def _check_missing_program(root, problems):
    bare = root / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(root / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chern-e7p1",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or '"correct"' in p.stdout:
        problems.append("a directory without the program did not fail")


def main(root):
    root = Path(root)
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name, wl in SMOKE.items():
        _check_answers(root, name, wl, problems)
        for trace in (0, 1):
            result, record = run.run_workload(root, name, 1, 0.1, trace, wl=wl,
                                              work=root / ".bench_work" / f"selftest-{name}")
            _check_result(name, trace, result, spec, problems)
            if record["failures"]:
                problems.append(f"{name}/trace {trace}: {record['failures'][:3]}")
        print(f"self-test: {name} done")
    _check_tracer(root, problems)
    _check_missing_program(root, problems)
    for p in problems:
        print(f"self-test FAIL: {p}")
    print("self-test: " + ("OK" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0
