"""One cold weylchow process of the benchmark.

Two forms:

    python child.py < job.json
        Runs one round of an API workload: set up the workload's context,
        then answer its queries.  Prints one JSON object on stdout with the
        monotonic times at which set-up finished and the queries started and
        ended, the answers (class JSON strings, as the CLI prints them) and,
        when the job asks for it, the layer trace.

    python child.py --cli TRACE_FILE ARG...
        Runs ``weylchow`` with ARG... exactly as the console script does,
        with the layer tracer installed, and writes the trace to TRACE_FILE.

The package is found through PYTHONPATH, which the runner sets.
"""

import importlib
import json
import sys
import time

from tracer import Tracer


def _modules():
    return {name: importlib.import_module(f"weylchow.{name}")
            for name in ("rootdata", "weyl", "schubert", "steenrod")}


def _setup_space(m, space, generators=False):
    rs = m["rootdata"].build_root_system(space["type"])
    theta = tuple(space["theta"])
    ct = m["weyl"].coset_reps(rs, theta)
    m["schubert"].flag_context(rs, theta)
    if generators:
        m["schubert"].invariant_generators(rs, theta)
    return rs, theta, ct


def _chern(m, job, state):
    rs, theta, ct = state[0]
    q = job["query"]
    classes = m["schubert"].chern_tangent(rs, theta, max_codim=q["max_codim"], ring=q["ring"])
    yield [m["schubert"].class_to_json(c, ct) for c in classes]


def _products(m, job, state):
    sch = m["schubert"]
    for (rs, theta, ct), space in zip(state, job["spaces"]):
        for a, b in space["pairs"]:
            yield sch.class_to_json(sch.multiply(sch.class_from_json(a), sch.class_from_json(b)), ct)


def _steenrod(m, job, state):
    sch = m["schubert"]
    rs, theta, ct = state[0]
    for q in job["queries"]:
        graded = m["steenrod"].steenrod_total(sch.class_from_json(q["class"]), up_to=q["up_to"])
        yield [sch.class_to_json(c, ct) for c in graded]


KINDS = {"chern": _chern, "products": _products, "steenrod": _steenrod}


def run_job(job):
    m = _modules()
    tracer = None
    if job.get("trace"):
        tracer = Tracer()
        tracer.install()
    state = [_setup_space(m, s, job.get("generators", False)) for s in job["spaces"]]
    if job.get("calibrate"):
        m["steenrod"].wu_convention()
    t_ready = time.monotonic()
    out = {"t_ready": t_ready, "answers": [], "failures": []}
    if not job.get("setup_only"):
        top0 = tracer.top_ns if tracer else 0
        t0 = time.monotonic()
        try:
            for answer in KINDS[job["kind"]](m, job, state):
                out["answers"].append(answer)
        except Exception as exc:  # a query that raises is a failed query
            out["failures"].append(f"{type(exc).__name__}: {exc}")
        out["t_solve"] = [t0, time.monotonic()]
        if tracer:
            out["solve_top_s"] = (tracer.top_ns - top0) / 1e9
    if tracer:
        out["trace"] = tracer.report()
    return out


def run_cli(trace_file, argv):
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("weylchow.cli")
    sys.argv = ["weylchow"] + argv
    code = 0
    try:
        cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.stdout.flush()
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)
    return code


def main():
    if len(sys.argv) > 2 and sys.argv[1] == "--cli":
        sys.exit(run_cli(sys.argv[2], sys.argv[3:]))
    job = json.load(sys.stdin)
    out = run_job(job)
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
