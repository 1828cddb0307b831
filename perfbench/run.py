"""rsurf benchmark.

    python3 perfbench/run.py --workload {jacobian,kernels,exact,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of an rsurf checkout; rsurf is imported from ./src.  The
inputs come from the seed; rsurf runs in a worker process (perfbench/worker.py)
in a closed loop with one client, repeating one round of ops until S seconds
have passed; every output is then checked here against the references in
perfbench/oracles.py.  The last line of standard output is one JSON object:
with --trace 0 it holds the end-to-end metrics, with --trace 1 the per-layer
metrics of a separate traced run.  The exit status is 1 when an output check
fails and 2 when rsurf cannot be found.  Results and traces are written to
perfbench/results/.  See perfbench/README.md.
"""

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys

import numpy as np

import checks
import tracing
import workloads
from clock import now, probe, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")

# set-up is measured this many times per run (the worker that runs the ops
# included) and reported as the median
SETUPS = 7

# rsurf modules each in-process workload imports during set-up
MODULES = {
    "jacobian": ["periods", "theta"],
    "kernels": ["theta", "torus"],
    "exact": ["wpvol", "algebra", "fundform", "newton", "divisors"],
    "cli": [],
}

PER_LAYER = [
    ("periods.build_curve.self_s", "s"),
    ("periods.period_matrix.self_s", "s"),
    ("periods.period_matrix.calls", "count"),
    ("periods.period_matrix.failed", "count"),
    ("algebra.roots_univariate.self_s", "s"),
    ("algebra.resultant_y.self_s", "s"),
    ("algebra.parse_poly.self_s", "s"),
    ("theta.theta.calls", "count"),
    ("theta.theta.self_s", "s"),
    ("theta.bergman_theta.self_s", "s"),
    ("theta.calls_per_kernel", "ratio"),
    ("theta.fay_check.self_s", "s"),
    ("theta.bound_misses", "count"),
    ("theta.bound_checked", "count"),
    ("torus.weierstrass_p.self_s", "s"),
    ("torus.reduce_modular.self_s", "s"),
    ("wpvol.volume.self_s", "s"),
    ("wpvol.w_laurent.calls", "count"),
    ("wpvol.terms", "count"),
    ("fundform.correction_polynomial.self_s", "s"),
    ("newton.genus.self_s", "s"),
    ("divisors.rr_genus0.self_s", "s"),
    ("strebel.classify_pants.self_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.import_s", "s"),
    ("cli.run_s", "s"),
]


def warmup_index(workload, ops):
    """A cheap op of fixed kind, so set-up does not depend on the op order."""
    want = {
        "jacobian": lambda op: op[1]["name"] == "x^4 - 1",
        "kernels": lambda op: op[0] == "theta",
        "exact": lambda op: op[0] == "correction",
        "cli": lambda op: op[1]["argv"][0] == "genus",
    }[workload]
    return next(i for i, op in enumerate(ops) if want(op))


def spawn(job, root):
    """Run the worker once; returns its result with ``setup_s`` added."""
    before = probe()
    started = now()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=root,
    )
    try:
        out, _ = proc.communicate(pickle.dumps(job), timeout=150)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError("worker exited with status %d" % proc.returncode)
    result = pickle.loads(out)
    result["setup_s"] = scaled(result["ready"] - started, before, probe())
    return result


class LowerVolumes:
    """V(g, n) from rsurf in this process, for the string and dilaton checks."""

    def __init__(self, src):
        sys.path.insert(0, src)
        from rsurf import wpvol

        self.wpvol = wpvol
        self.cache = {}

    def __call__(self, g, n):
        if (g, n) not in self.cache:
            vol = self.wpvol.volume(g, n)
            self.cache[(g, n)] = {ms: dict(pp.coeffs) for ms, pp in vol.terms.items()}
        return self.cache[(g, n)]


def check_records(workload, rounds, records, src):
    lower = LowerVolumes(src) if workload in ("exact", "cli") else None
    schemas = checks.load_schemas(src) if workload == "cli" else None
    checker = checks.Checker(rounds, lower, schemas)
    problems = []
    verdicts = []
    for rnd, idx, dt, status, out, *_ in records:
        kind, args = checker.op(rnd, idx)
        if status == "failed":
            if not (kind == "jacobian" and checks.period_fault_expected(args)):
                problems.append("op %d (%s) raised %s" % (idx, kind, out))
            verdicts.append(None)
            continue
        verdict = checker.check(rnd, idx, out)
        if not verdict.ok:
            problems.append("op %d (%s): %s" % (idx, kind, verdict.why))
        verdicts.append(verdict)
    return verdicts, problems


def op_seconds(record):
    """The op's time, scaled by the probes around it (perfbench/clock.py)."""
    return scaled(record[2], record[5], record[6])


def end_to_end(workload, result, verdicts, setup_times):
    records = result["records"]
    times = [op_seconds(r) for r in records]
    passed = [t for t, v in zip(times, verdicts) if v is not None and v.ok]
    digits = [v.digits for v in verdicts if v is not None and v.ok and v.digits is not None]
    rss = result["maxrss_kb"]
    peak_kb = rss["children"] if workload == "cli" else max(rss["self"], rss["children"])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(passed) / sum(times), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(passed), "ms"),
        "op_tail_ms": (
            1e3 * float(np.percentile(passed, workloads.TAIL_PERCENTILE[workload])),
            "ms",
        ),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "digits_min": (min(digits) if digits else checks.DIGITS_CAP, "digits"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def op_kind(rounds, record):
    return rounds[record[0] % len(rounds)][record[1]][0]


def per_layer(rounds, result, verdicts):
    n_rounds = 1 + max(r[0] for r in result["records"])
    scale = {(r[0], r[1]): op_seconds(r) / r[2] for r in result["records"] if r[2] > 0}
    rows, kernel_theta = tracing.summarize(result["spans"], result["counts"], scale)
    for child in result["cli_spans"]:
        child_rows, child_kernel = tracing.summarize(
            child["spans"], child["counts"], {None: scale.get(child["op"], 1.0)})
        kernel_theta += child_kernel
        for name, row in child_rows.items():
            acc = rows.setdefault(name, {"calls": 0, "self_s": 0.0, "failed": 0})
            for key in acc:
                acc[key] += row[key]

    def row(name):
        return rows.get(name, {"calls": 0, "self_s": 0.0, "failed": 0})

    values = {}
    for name, unit in PER_LAYER:
        fn, _, field = name.rpartition(".")
        if field in ("self_s", "calls", "failed") and not fn.startswith("cli"):
            values[name] = row(fn)[field] / n_rounds
    kernels = row("theta.bergman_theta")["calls"]
    values["theta.calls_per_kernel"] = kernel_theta / kernels if kernels else 0.0
    theta_verdicts = [
        v for r, v in zip(result["records"], verdicts)
        if op_kind(rounds, r) == "theta" and v is not None and v.ok
    ]
    values["theta.bound_checked"] = len(theta_verdicts) / n_rounds
    values["theta.bound_misses"] = sum(v.bound_miss for v in theta_verdicts) / n_rounds
    terms = 0
    for rnd, idx, _, status, out, *_ in result["records"]:
        kind, args = rounds[rnd % len(rounds)][idx]
        if status != "ok":
            continue
        if kind == "volume":
            terms += sum(len(inner) for inner in out.values())
        elif kind == "cli" and args["argv"][0] == "wp":
            terms += len(json.loads(out["stdout"])["terms"])
    values["wpvol.terms"] = terms / n_rounds
    for key in ("startup_s", "import_s", "run_s"):
        samples = [child[key] * scale.get(child["op"], 1.0) for child in result["cli_spans"]]
        values["cli." + key] = statistics.median(samples) if samples else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def write_json(name, doc):
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(doc, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    # every process of the run shares one CPU, so the probes that scale the
    # op times see the CPU the ops ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(src, "rsurf", "__init__.py")):
        print("no rsurf package under %s; run from an rsurf checkout" % src, file=sys.stderr)
        return 2

    rounds = [workloads.make_round(args.workload, args.seed, rnd)
              for rnd in range(workloads.FRESH_ROUNDS.get(args.workload, 1))]
    job = {
        "workload": args.workload,
        "rounds": rounds[:1],
        "warmup": warmup_index(args.workload, rounds[0]),
        "modules": MODULES[args.workload],
        "src": src,
        "out_dir": RESULTS,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "setup_only": True,
    }
    os.makedirs(RESULTS, exist_ok=True)
    setup_times = []
    if not args.trace:
        setup_times = [spawn(job, root)["setup_s"] for _ in range(SETUPS - 1)]
    result = spawn(dict(job, rounds=rounds, setup_only=False), root)
    setup_times.append(result["setup_s"])

    verdicts, problems = check_records(args.workload, rounds, result["records"], src)
    for line in problems[:20]:
        print("CHECK FAILED: " + line, file=sys.stderr)
    attempted = len(result["records"])
    failed = sum(r[3] == "failed" for r in result["records"])
    if args.trace:
        metrics = per_layer(rounds, result, verdicts)
        write_json(
            "trace-%s-seed%d.json" % (args.workload, args.seed),
            {"spans": result["spans"], "cli": result["cli_spans"]},
        )
    else:
        metrics = end_to_end(args.workload, result, verdicts, setup_times)
    doc = {"correct": not problems, "attempted": attempted, "failed": failed,
           "metrics": metrics}
    stored = dict(doc)
    if args.trace:
        # end-to-end figures of the traced run, for the tracing overhead
        stored["traced_end_to_end"] = end_to_end(args.workload, result, verdicts, setup_times)
    write_json("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace), stored)
    print("%s seed %d: %d rounds, %d ops attempted, %d failed, %s"
          % (args.workload, args.seed, 1 + result["records"][-1][0], attempted, failed,
             "all outputs checked" if not problems else "%d CHECKS FAILED" % len(problems)))
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(doc))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
