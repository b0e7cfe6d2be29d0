"""The weylchow benchmark: cold-process workloads with checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Each round of a workload is a fresh child
process (or, for cli-e6flags, a sequence of ``weylchow`` processes), run one
at a time, so every round sees the cold per-process caches a CLI user sees.
Rounds repeat while one more round of average length still ends within S
seconds (there is always at least one).

Times are wall times rescaled to a reference CPU speed.  The runner, its
children and a speed probe (probe.py) share one CPU; the probe times a
fixed chunk of interpreter work every 20 ms, and each interval is scaled by
PROBE_REF_S / (median probe sample inside it).  On a shared host the speed
of a CPU swings by a quarter or more within seconds, and this removes most
of that from the figures.  The raw wall times are kept in the record.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics (setup_s, solve_s, peak_rss_mb, invocation_p50_s), each
the median over the run's samples.  With --trace 1 the run makes one
untraced and one traced round and reports the per-layer metrics of the
traced one, with the tracing overhead.  The lines above the last one list
every metric by name and unit, then the run record: seed, code version,
machine, load, and every per-sample value.

Exit status is 0 when a result was printed (wrong answers are reported in
it as failures), 2 when the package cannot be found.
"""

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

from tracer import metric_names, merge  # noqa: E402
from workloads import HELD_OUT_SEED, ROST_ARGV, WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170  # every child is killed before the run's 180 s are up

#: probe chunk time that defines the reference speed (its median on the
#: 2-core VM the benchmark was tuned on)
PROBE_REF_S = 0.0005

END_TO_END = {
    "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB", "invocation_p50_s": "s",
}
TRACE_EXTRA = {
    "schubert.grid_useful_ratio": "ratio", "cli.replay_s": "s",
    "trace.overhead_ratio": "ratio", "trace.uncovered_share": "ratio",
    "trace.absent_names": "count", "trace.hook_errors": "count",
}


class SpeedProbe:
    """probe.py on the runner's CPU; scale() turns a wall interval into reference seconds."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "probe.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.times, self.samples = [], []

    def stop(self):
        try:
            out, _ = self.proc.communicate("stop\n", timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return
        for t, d in json.loads(out):
            self.times.append(t)
            self.samples.append(d)

    def scale(self, t0, t1):
        """Reference seconds for the wall interval [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo < 5:  # too short an interval: use the 5 nearest samples
            mid = bisect.bisect_left(self.times, (t0 + t1) / 2)
            lo = max(0, min(mid - 2, len(self.times) - 5))
            hi = lo + 5
        inside = self.samples[lo:hi]
        if not inside:
            return t1 - t0
        return (t1 - t0) * PROBE_REF_S / statistics.median(inside)


class Runner:
    """Spawns the processes of one benchmark run and collects their intervals."""

    def __init__(self, root, work):
        self.root = Path(root)
        self.work = Path(work)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.attempted = 0
        self.failures = []

    def _timeout(self):
        return max(1.0, self.deadline - time.monotonic())

    def fail(self, what):
        self.failures.append(what)

    # -- API workloads: one child process per round ------------------------

    def api_round(self, job):
        """Run one child; returns its output with monotonic t_spawn and t_end added, or None."""
        t_spawn = time.monotonic()
        try:
            p = subprocess.run([sys.executable, str(CHILD)], input=json.dumps(job),
                               capture_output=True, text=True, env=self.env,
                               cwd=self.work, timeout=self._timeout())
        except subprocess.TimeoutExpired:
            self.fail(f"{job['kind']} child timed out")
            return None
        t_end = time.monotonic()
        if p.returncode != 0:
            tail = p.stderr.strip().splitlines()[-1:] or ["no output"]
            self.fail(f"{job['kind']} child exited {p.returncode}: {tail[0]}")
            return None
        out = json.loads(p.stdout)
        out["t_spawn"], out["t_end"] = t_spawn, t_end
        return out

    def api_probe(self, wl, inputs):
        """A set-up-only child; returns its (spawn, ready) interval or None."""
        self.attempted += 1
        out = self.api_round({**wl.job(inputs), "setup_only": True})
        return None if out is None else (out["t_spawn"], out["t_ready"])

    def api_solve(self, wl, inputs, trace=False):
        n = wl.queries(inputs)
        self.attempted += n
        out = self.api_round({**wl.job(inputs), "trace": trace})
        if out is None:
            self.failures += ["query not answered"] * (n - 1)
            return None
        self.failures += out["failures"]
        self.failures += wl.check(inputs, out["answers"])
        return out

    # -- CLI workload: one process per invocation ----------------------------

    def cli_process(self, argv, trace_file=None):
        """Returns (exit code or None on timeout, (t0, t1), stdout bytes)."""
        if trace_file is None:
            cmd = [sys.executable, "-m", "weylchow.cli"] + argv
        else:
            cmd = [sys.executable, str(CHILD), "--cli", str(trace_file)] + argv
        t0 = time.monotonic()
        try:
            p = subprocess.run(cmd, capture_output=True, env=self.env, cwd=self.work,
                               timeout=self._timeout())
        except subprocess.TimeoutExpired:
            return None, (t0, time.monotonic()), None
        return p.returncode, (t0, time.monotonic()), p.stdout

    def cli_probe(self, wl, inputs):
        self.attempted += 1
        code, interval, _ = self.cli_process(["--help"])
        if code != 0:
            self.fail(f"weylchow --help exited {code}")
            return None
        return interval

    def cli_pass(self, wl, inputs, cache_dir, traces=None, cold=None):
        """One pass over the argument vectors; returns (intervals, digests, trace reports).

        With `cold` (the digests of the cold pass) the outputs must replay
        byte-identically; without it they are checked against the goldens.
        """
        intervals, digests, reports, results = [], [], [], []
        for k, argv in enumerate(inputs["argvs"]):
            self.attempted += 1
            trace_file = None if traces is None else self.work / f"trace-{traces}-{k}.json"
            code, interval, out = self.cli_process([f"--cache-dir={cache_dir}"] + argv, trace_file)
            digest = hashlib.sha256(out).hexdigest() if out is not None else None
            intervals.append(interval)
            digests.append(digest)
            if cold is not None and (code != 0 or digest != cold[k]):
                self.fail(f"{' '.join(argv)}: replay did not reproduce the cold output")
            results.append((argv, code, digest, out if argv == ROST_ARGV else None))
            if trace_file is not None and trace_file.exists():
                reports.append(json.loads(trace_file.read_text(encoding="utf-8")))
        if cold is None:
            self.failures += wl.check(inputs, results)
        return intervals, digests, reports


def _median(xs):
    return statistics.median(xs) if xs else 0.0  # no sample: the run is already failed


def run_timed(runner, wl, inputs, seconds):
    """Untraced rounds until `seconds` are spent; returns wall intervals per metric."""
    cli = wl.kind == "cli"
    probe = runner.cli_probe if cli else runner.api_probe
    setups = (probe(wl, inputs) for _ in range(wl.probes))
    iv = {"setup": [s for s in setups if s is not None], "solve": [], "invocation": [],
          "replay": []}
    t_start = time.monotonic()
    rounds = 0
    # start a round only if one more of average length still ends within `seconds`
    while rounds == 0 or (time.monotonic() - t_start) * (rounds + 1) / rounds <= seconds:
        rounds += 1
        if cli:
            cache = runner.work / f"cache-{rounds}"
            cold_iv, digests, _ = runner.cli_pass(wl, inputs, cache)
            iv["solve"].append(cold_iv)
            iv["invocation"] += cold_iv
            iv["replay"].append(runner.cli_pass(wl, inputs, cache, cold=digests)[0])
            shutil.rmtree(cache, ignore_errors=True)
        else:
            out = runner.api_solve(wl, inputs)
            if out is not None:
                iv["setup"].append((out["t_spawn"], out["t_ready"]))
                iv["solve"].append([tuple(out["t_solve"])])
                iv["invocation"].append((out["t_spawn"], out["t_end"]))
        if runner.failures or time.monotonic() > runner.deadline - 60:
            break
    return iv, rounds


def timed_metrics(iv, speed):
    """End-to-end metrics in reference seconds, and every raw and scaled sample."""
    def scaled(intervals):
        return [speed.scale(t0, t1) for t0, t1 in intervals]

    setups = scaled(iv["setup"])
    solves = [sum(scaled(r)) for r in iv["solve"]]
    invocations = scaled(iv["invocation"])
    metrics = {
        "setup_s": _median(setups),
        "solve_s": _median(solves),
        "peak_rss_mb": iv["peak_rss_kb"] / 1024,
        "invocation_p50_s": _median(invocations),
    }
    samples = {
        "setup_s": setups, "solve_s": solves, "invocation_s": invocations,
        "replay_s": [sum(scaled(r)) for r in iv["replay"]],
        "raw_setup_s": [t1 - t0 for t0, t1 in iv["setup"]],
        "raw_solve_s": [sum(t1 - t0 for t0, t1 in r) for r in iv["solve"]],
        "raw_invocation_s": [t1 - t0 for t0, t1 in iv["invocation"]],
    }
    return metrics, samples


def run_traced(runner, wl, inputs):
    """One untraced and one traced round; returns their intervals and the merged trace."""
    if wl.kind == "cli":
        plain_iv, _, _ = runner.cli_pass(wl, inputs, runner.work / "cache-plain")
        cache = runner.work / "cache-traced"
        traced_iv, digests, reports = runner.cli_pass(wl, inputs, cache, traces="cold")
        replay_iv, _, rreports = runner.cli_pass(wl, inputs, cache, traces="replay", cold=digests)
        return {"plain": plain_iv, "traced": traced_iv, "replay": replay_iv,
                "covered_s": merge(reports)["top_s"], "report": merge(reports + rreports)}
    plain = runner.api_solve(wl, inputs)
    out = runner.api_solve(wl, inputs, trace=True)
    if plain is None or out is None:
        return None
    return {"plain": [tuple(plain["t_solve"])], "traced": [tuple(out["t_solve"])], "replay": [],
            "covered_s": out["solve_top_s"], "report": merge([out["trace"]])}


def traced_metrics(tr, speed):
    if tr is None:
        return {}, {}
    base = sum(speed.scale(*i) for i in tr["plain"])
    traced = sum(speed.scale(*i) for i in tr["traced"])
    traced_raw = sum(t1 - t0 for t0, t1 in tr["traced"])
    report = tr["report"]
    m = dict(report["metrics"])
    imaged = m["schubert.grid_imaged"]
    m["schubert.grid_useful_ratio"] = m["schubert.grid_pivots"] / imaged if imaged else 0.0
    m["cli.replay_s"] = sum(speed.scale(*i) for i in tr["replay"])
    m["trace.overhead_ratio"] = traced / base if base else 0.0
    m["trace.uncovered_share"] = max(0.0, 1 - tr["covered_s"] / traced_raw) if traced_raw else 0.0
    m["trace.absent_names"] = len(report["absent"])
    m["trace.hook_errors"] = report["hook_errors"]
    return m, {"untraced_solve_s": base, "traced_solve_s": traced, "absent": report["absent"]}


def per_layer_units():
    units = {}
    for name in metric_names():
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("output_bytes"):
            units[name] = "bytes"
        else:
            units[name] = "count"
    units.update(TRACE_EXTRA)
    return units


def _git_rev(root):
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def _src_digest(root):
    h = hashlib.sha256()
    for path in sorted((Path(root) / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _summary(inputs):
    """The seeded choices of a run, without the class JSON they expand to."""
    if "argvs" in inputs:
        return inputs
    out = {k: v for k, v in inputs.items() if k not in ("spaces", "queries")}
    out["spaces"] = [{k: v for k, v in sp.items() if k != "pairs"} for sp in inputs["spaces"]]
    if "queries" in inputs:
        out["queries"] = [{k: v for k, v in q.items() if k != "class"} for q in inputs["queries"]]
    return out


def run_workload(root, name, seed, seconds, trace, wl=None, work=None):
    """One benchmark run; returns (result dict, record dict)."""
    wl = wl or WORKLOADS[name]
    work = Path(work or root / ".bench_work" / f"run-{os.getpid()}")
    work.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": name, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds, "trace": trace,
        "git_rev": _git_rev(root), "src_sha256": _src_digest(root),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})  # children and the probe inherit it
    speed = SpeedProbe()
    try:
        runner = Runner(root, work)
        inputs = wl.inputs(seed)
        record["inputs"] = _summary(inputs)
        if trace:
            tr = run_traced(runner, wl, inputs)
        else:
            iv, record["rounds"] = run_timed(runner, wl, inputs, seconds)
            # read before the probe is reaped, so that only the workload's processes count
            iv["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    finally:
        speed.stop()
        os.sched_setaffinity(0, affinity)
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        metrics, samples = traced_metrics(tr, speed)
        units = per_layer_units()
    else:
        metrics, samples = timed_metrics(iv, speed)
        units = END_TO_END
    record["loadavg_after"] = os.getloadavg()
    record["probe_median_s"] = _median(speed.samples)
    record["samples"] = samples
    record["failures"] = runner.failures
    result = {
        "correct": not runner.failures and bool(metrics),
        "attempted": max(1, runner.attempted),
        "failed": min(len(runner.failures), max(1, runner.attempted)),
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u}
                    for k, u in units.items()},
    }
    return result, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="small versions of every workload, checks and output schema")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "weylchow" / "__init__.py").is_file():
        print(f"weylchow sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest
        return selftest.main(ROOT)
    if not args.workload:
        ap.error("--workload is required")
    result, record = run_workload(ROOT, args.workload, args.seed, args.seconds, args.trace)
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    if record["failures"]:
        print("failures: " + "; ".join(record["failures"][:10]))
    print("record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
