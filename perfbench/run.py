"""Run one benchmark workload through the public colat API and print its metrics.

    python3 perfbench/run.py --workload sweep|corpus|census --seed N \\
        --seconds S --trace 0|1 [--smoke]

Run it from the repository root; it imports colat from ./src.  With
``--trace 0`` it repeats untraced passes over the workload's jobs until
``--seconds`` have passed and reports the end-to-end metrics.  With
``--trace 1`` it makes one untraced and one traced pass, reports the
per-layer metrics, prints a table of the spans and writes them to
``.perfbench_out/``.  Every answer is checked against ``golden.json``; a
wrong answer or an error counts as a failed job.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
answer is right, 1 when one is wrong and 2 when the sources are missing.
README.md in this directory says what each workload and metric is for.
"""

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sweep", "corpus", "census")
DEFAULT_SEED = 1
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# traced call -> per-layer time metric, the sum of that call's spans
LAYER_TIMES = {
    "poset.co_lattice": "poset.co_lattice_s",
    "lattice.direct_product": "lattice.direct_product_s",
    "lattice.surjection_search": "lattice.surjection_search_s",
    "lattice.lattices_of_size": "lattice.enumerate_s",
    "lattice.monolith": "lattice.monolith_s",
    "terms.check": "terms.check_s",
    "terms.check_sigma": "terms.check_sigma_s",
    "membership.decide_sub_lo": "membership.decide_s",
    "membership.verify_certificate": "membership.verify_s",
    "membership.brute_force_oracle": "membership.oracle_s",
    "depend.check_dependency_invariants": "depend.invariants_s",
    "depend.interval_value_check": "depend.invariants_s",
    "catalog.classify_si": "catalog.classify_s",
    "project.retract_section": "project.retract_s",
}
LAYER_COUNTS = (
    "lattice.surjections", "lattice.lattices", "terms.check_calls", "terms.cells",
    "membership.accepted", "membership.oracle_agree", "catalog.classified",
    "project.sections",
)
# modules that do work inside a pass; poset and star are only called in set-up
SHARE_MODULES = ("lattice", "terms", "depend", "membership", "catalog", "project")
PER_LAYER = dict(
    {metric: "s" for metric in LAYER_TIMES.values()},
    **{key: "count" for key in LAYER_COUNTS},
    **{f"{module}.share": "ratio" for module in SHARE_MODULES},
    **{"lattice.hit_ratio": "ratio", "terms.cells_per_s": "1/s",
       "terms.check_ms_per_call": "ms", "bench.self_s": "s", "trace.overhead_s": "s",
       # job latency: which job is the median depends on noise on sweep and
       # census, so it is reported here and not among the end-to-end metrics
       "job_p50_ms": "ms", "job_p95_ms": "ms"},
)


def use_sources():
    """Put ./src first on the import path; stop if colat is not there."""
    src = ROOT / "src"
    if not (src / "colat" / "__init__.py").is_file():
        print(f"error: no colat sources under {src}; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def probe_setup(workload, smoke):
    """Child process: import colat, build the inputs, print the seconds taken."""
    start = time.perf_counter()
    import workloads

    workloads.SETUP[workload](workloads.Api(), smoke)
    print(time.perf_counter() - start)


def setup_samples(workload, smoke):
    """Set-up seconds, each measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__)), "--probe-setup", "--workload", workload]
    if smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def machine_facts():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__}


def run_pass(workload, jobs, api, golden, tracer=None):
    """One pass over the jobs: wall time, per-job latency, failures, counts."""
    from workloads import digest, summarise

    state, answers, counts, latency = {}, {}, {}, {}
    failed = 0
    gc.collect()
    start = time.perf_counter()
    for name, fn in jobs:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                answer, job_counts = fn(api, state)
            else:
                with tracer.span("job", job=name):
                    answer, job_counts = fn(api, state)
            # the round trip turns tuples into the lists golden.json holds
            answer = json.loads(json.dumps(answer))
            want = golden["answers"].get(name)
            ok = (digest(answer) if isinstance(want, str) else answer) == want
        except Exception:
            traceback.print_exc()
            ok, answer, job_counts = False, None, {}
        latency[name] = time.perf_counter() - t0
        answers[name] = answer
        if not ok:
            failed += 1
            print(f"wrong answer: {workload} job {name}", file=sys.stderr)
        for key, value in job_counts.items():
            counts[key] = counts.get(key, 0) + value
    wall = time.perf_counter() - start
    summary_ok = False
    if not failed:
        summary_ok = json.loads(json.dumps(summarise(workload, answers))) == golden["summary"]
        if not summary_ok:
            print(f"summary differs from golden.json: {workload}", file=sys.stderr)
    return {"wall": wall, "latency": latency, "failed": failed, "counts": counts,
            "correct": summary_ok, "jobs": len(jobs)}


def end_to_end(passes, setups):
    """The end-to-end metrics, and job latency over the untraced passes."""
    walls = [p["wall"] for p in passes]
    # corpus latency is per lattice; its enumeration step is not a lattice
    lat = [s for p in passes for name, s in p["latency"].items() if name != "enumerate"]
    p95 = statistics.quantiles(lat, n=20, method="inclusive")[18] if len(lat) > 1 else lat[0]
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "job_p50_ms": statistics.median(lat) * 1e3,
        "job_p95_ms": p95 * 1e3,
    }
    print(f"wall_s: median {values['wall_s']:.4f} s over {len(walls)} passes "
          f"(min {min(walls):.4f}, max {max(walls):.4f})")
    print(f"setup_s: median {values['setup_s']:.4f} s over {len(setups)} probes "
          f"(min {min(setups):.4f}, max {max(setups):.4f})")
    print(f"job latency: p50 {values['job_p50_ms']:.3f} ms, p95 {values['job_p95_ms']:.3f} ms "
          f"over {len(lat)} jobs")
    return values


def per_layer(tracer, traced, e2e):
    from tracing import self_times

    def in_setup(span):
        return span[4] == "setup"

    setup_s, setup_calls = self_times(tracer.spans, in_setup)
    pass_s, pass_calls = self_times(tracer.spans, lambda span: not in_setup(span))
    counts = traced["counts"]
    wall = traced["wall"]
    values = {metric: 0.0 for metric in LAYER_TIMES.values()}
    for span, metric in LAYER_TIMES.items():
        values[metric] += setup_s.get(span, 0.0) + pass_s.get(span, 0.0)
    for key in LAYER_COUNTS:
        values[key] = counts.get(key, 0)
    searches = pass_calls.get("lattice.surjection_search", 0)
    values["lattice.hit_ratio"] = counts.get("lattice.hits", 0) / searches if searches else 0.0
    calls = counts.get("terms.check_calls", 0)
    check_s = values["terms.check_s"]
    values["terms.cells_per_s"] = counts.get("terms.cells", 0) / check_s if check_s else 0.0
    values["terms.check_ms_per_call"] = check_s / calls * 1e3 if calls else 0.0
    module_s = {}
    for name, seconds in pass_s.items():
        if name != "job":
            module = name.split(".")[0]
            module_s[module] = module_s.get(module, 0.0) + seconds
    for module in SHARE_MODULES:
        values[f"{module}.share"] = module_s.get(module, 0.0) / wall
    values["bench.self_s"] = wall - sum(module_s.values())
    untraced_wall = e2e["wall_s"]
    values["trace.overhead_s"] = wall - untraced_wall
    values["job_p50_ms"] = e2e["job_p50_ms"]
    values["job_p95_ms"] = e2e["job_p95_ms"]

    print(f"traced pass {wall:.4f} s, untraced {untraced_wall:.4f} s; "
          f"{sum(pass_calls.values())} spans in the pass, {sum(setup_calls.values())} in set-up")
    print("counts: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    print(f"{'span':36s} {'calls':>6s} {'self_s':>10s} {'share':>7s}")
    for name in sorted(pass_s, key=lambda k: -pass_s[k]):
        print(f"{name:36s} {pass_calls[name]:6d} {pass_s[name]:10.4f} {pass_s[name] / wall:7.2%}")
    for name in sorted(setup_s):
        print(f"{'(set-up) ' + name:36s} {setup_calls[name]:6d} {setup_s[name]:10.4f}")
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="permutes the job order; the answers do not depend on it")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="untraced passes repeat until this many seconds have passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, for the benchmark's own tests")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    use_sources()
    if args.probe_setup:
        probe_setup(args.workload, args.smoke)
        return 0

    load_start = os.getloadavg()
    import tracing
    import workloads

    facts = machine_facts()
    size = "smoke" if args.smoke else "full"
    with open(HERE / "golden.json") as f:
        golden = json.load(f)[size][args.workload]
    setups = setup_samples(args.workload, args.smoke)

    tracer = tracing.Tracer() if args.trace else None
    api = workloads.Api()
    if tracer:
        traced_api = workloads.Api(tracer)
        with tracer.span("job", job="setup"):
            jobs = workloads.SETUP[args.workload](traced_api, args.smoke)
    else:
        jobs = workloads.SETUP[args.workload](api, args.smoke)
    random.Random(args.seed).shuffle(jobs)
    # the corpus enumerates its lattices before any job can use them
    jobs.sort(key=lambda job: job[0] != "enumerate")
    # keep the long-lived set-up objects out of every later collection
    gc.collect()
    gc.freeze()

    passes = []
    measure_start = time.perf_counter()
    while not passes or (not tracer and time.perf_counter() - measure_start < args.seconds):
        passes.append(run_pass(args.workload, jobs, api, golden))
    runs = list(passes)
    if tracer:
        traced = run_pass(args.workload, jobs, traced_api, golden, tracer)
        runs.append(traced)
    load_end = os.getloadavg()

    print(f"machine: nproc={facts['nproc']} cpu={facts['cpu']!r} python={facts['python']} "
          f"numpy={facts['numpy']} loadavg_start={'/'.join(f'{x:.2f}' for x in load_start)} "
          f"loadavg_end={'/'.join(f'{x:.2f}' for x in load_end)}")
    print(f"workload {args.workload} ({size}), seed {args.seed}, {len(jobs)} jobs per pass, "
          f"{len(passes)} untraced passes" + (", 1 traced pass" if tracer else ""))
    attempted = sum(p["jobs"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    correct = all(p["correct"] for p in runs)
    print(f"error_rate: {failed / attempted:.4f} ({failed} of {attempted} jobs failed)")
    e2e = end_to_end(passes, setups)
    if tracer:
        values = per_layer(tracer, traced, e2e)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"spans-{args.workload}-{size}-seed{args.seed}.json"
        with open(dump, "w") as f:
            json.dump({"machine": facts, "loadavg_start": load_start, "loadavg_end": load_end,
                       "fields": ["name", "start_ns", "end_ns", "parent", "job"],
                       "spans": tracer.spans}, f)
        print(f"spans written to {dump.relative_to(ROOT)}")
    else:
        values, units = e2e, END_TO_END
    for name, unit in units.items():
        print(f"{name}: {values[name]} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
