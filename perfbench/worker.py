"""Runs one workload's ops against rsurf in a process of its own.

Reads a pickled job on stdin and writes a pickled result on stdout.  The
process imports only rsurf, numpy and the standard library, so its start-up
and peak memory are rsurf's.  It runs one untimed warm-up op, records the
monotonic time at which it is ready (the end of set-up), and with
``setup_only`` stops there.  Otherwise it repeats the round until
``seconds`` have passed, timing each op around its calls into rsurf alone
and recording a clock.probe() before and after it.

Each ``jacobian`` and ``volume`` op runs in a child forked from the
warmed-up worker: their inputs repeat every round, and this way no op starts
with anything an earlier op memoised, whatever caching rsurf uses; every
volume starts with no W(g, n).  The other kernels and exact ops get fresh
inputs each round, and each cli op is a process of its own.
"""

import os
import pickle
import resource
import subprocess
import sys
import time
import traceback

from clock import now, probe

HERE = os.path.dirname(os.path.abspath(__file__))

# ops whose inputs repeat from round to round, run in a forked child each
FORKED_KINDS = {"jacobian", "volume"}


class Runner:
    def __init__(self, job, tracer):
        self.job = job
        self.tracer = tracer
        self.child_spans = []

    # each op method returns (seconds spent in rsurf, plain output)

    def jacobian(self, a):
        import numpy as np
        from rsurf import periods, theta

        g = a["genus"]
        # even characteristics (a, b) as half-integer vectors; at genus 2
        # and 3 the op evaluates theta at b + tau a for each of them
        chars = [
            (0.5 * np.array(ab), 0.5 * np.array(bb))
            for ab in np.ndindex(*(2,) * g)
            for bb in np.ndindex(*(2,) * g)
            if sum(x * y for x, y in zip(ab, bb)) % 2 == 0
        ] if g in (2, 3) else []
        start = time.perf_counter()
        curve = periods.build_curve(a["coeffs"])
        tau, ma, mb = periods.period_matrix(curve)
        args = [bb + tau @ ab for ab, bb in chars] if chars else a["points"]
        values = [theta.theta(u, tau) for u in args]
        dt = time.perf_counter() - start
        return dt, {"tau": tau.tolist(), "ma": ma.tolist(), "mb": mb.tolist(),
                    "values": [complex(v) for v in values]}

    def theta(self, a):
        from rsurf import theta

        start = time.perf_counter()
        value, bound = theta.theta(a["u"], a["tau"], with_error=True)
        return time.perf_counter() - start, (complex(value), float(bound))

    def bergman(self, a):
        from rsurf import theta

        start = time.perf_counter()
        out = theta.bergman_theta(a["tau"], a["up"], a["uq"], a["dup"], a["duq"],
                                  shift=a["shift"])
        return time.perf_counter() - start, complex(out)

    def szego(self, a):
        from rsurf import theta

        start = time.perf_counter()
        out = theta.szego_g1(a["z"], a["w"], a["zeta"], a["tau"])
        return time.perf_counter() - start, complex(out)

    def third_kind(self, a):
        from rsurf import theta

        start = time.perf_counter()
        out = theta.third_kind_form_g1(a["z"], a["q1"], a["q2"], a["tau"])
        return time.perf_counter() - start, complex(out)

    def fay(self, a):
        from rsurf import theta

        start = time.perf_counter()
        out = theta.fay_check(a["tau"], a["zeta"], a["pairs"])
        return time.perf_counter() - start, float(out)

    def weierstrass_p(self, a):
        from rsurf import torus

        start = time.perf_counter()
        value, err = torus.weierstrass_p(a["z"], a["tau"], with_error=True)
        return time.perf_counter() - start, (complex(value), float(err))

    def volume(self, a):
        from rsurf import wpvol

        start = time.perf_counter()
        vol = wpvol.volume(a["g"], a["n"])
        dt = time.perf_counter() - start
        return dt, {ms: dict(pp.coeffs) for ms, pp in vol.terms.items()}

    def resultant(self, a):
        from rsurf import algebra

        p = algebra.BivariatePoly(a["p"])
        q = algebra.BivariatePoly(a["q"])
        start = time.perf_counter()
        res = algebra.resultant_y(p, q)
        return time.perf_counter() - start, dict(res.coeffs)

    def correction(self, a):
        from rsurf import fundform

        start = time.perf_counter()
        out = fundform.correction_polynomial(a["poly"])
        return time.perf_counter() - start, dict(out.terms)

    def genus(self, a):
        from rsurf import newton

        start = time.perf_counter()
        out = newton.genus(a["support"])
        return time.perf_counter() - start, int(out)

    def rr_genus0(self, a):
        from rsurf import divisors

        div = divisors.Divisor(a["divisor"])
        start = time.perf_counter()
        out = divisors.rr_genus0(div)
        return time.perf_counter() - start, (out.r_minus_D, out.i_D)

    def cli(self, a):
        env = dict(os.environ)
        env["PYTHONPATH"] = self.job["src"]
        if self.job["trace"]:
            spans_file = os.path.join(self.job["out_dir"], "cli-spans-%d.pickle" % os.getpid())
            env["PERFBENCH_SPANS"] = spans_file
            cmd = [sys.executable, os.path.join(HERE, "cli_launcher.py")]
        else:
            cmd = [sys.executable, "-m", "rsurf.cli"]
        spawned = now()
        start = time.perf_counter()
        proc = subprocess.run(cmd + a["argv"], env=env, capture_output=True, text=True,
                              timeout=120)
        dt = time.perf_counter() - start
        if self.job["trace"]:
            with open(spans_file, "rb") as fh:
                child = pickle.load(fh)
            os.unlink(spans_file)
            child["startup_s"] = child.pop("first") - spawned
            child["op"] = self.tracer.op
            self.child_spans.append(child)
        return dt, {"returncode": proc.returncode, "stdout": proc.stdout,
                    "stderr": proc.stderr}

    def timed(self, kind, args):
        """(seconds, "ok" or "failed", output or error text) of one op."""
        start = time.perf_counter()
        try:
            dt, out = getattr(self, kind)(args)
            return dt, "ok", out
        except (ArithmeticError, ValueError) as exc:
            return time.perf_counter() - start, "failed", "%s: %s" % (type(exc).__name__, exc)

    def run_op(self, op):
        return self.forked(*op) if op[0] in FORKED_KINDS else self.timed(*op)

    def forked(self, kind, args):
        """timed() in a child forked from this process, which never runs an
        op itself: whatever the op memoises dies with the child."""
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                self.tracer.reset()
                record = self.timed(kind, args)
                with os.fdopen(write_fd, "wb") as fh:
                    pickle.dump((record, self.tracer.spans, self.tracer.counts), fh)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
        _, status = os.waitpid(pid, 0)
        if status != 0:
            raise RuntimeError("forked %s op exited with status %d" % (kind, status))
        record, spans, counts = pickle.loads(data)
        base = len(self.tracer.spans)
        self.tracer.spans.extend(
            (n, s, e, p + base if p >= 0 else -1, self.tracer.op, f)
            for n, s, e, p, _, f in spans
        )
        for name, k in counts.items():
            self.tracer.counts[name] = self.tracer.counts.get(name, 0) + k
        return record


def main():
    job = pickle.load(sys.stdin.buffer)
    result_stream = sys.stdout.buffer
    sys.stdout = sys.stderr  # keep the pickle stream clean
    sys.path.insert(0, job["src"])
    workload = job["workload"]
    if workload != "cli":
        import numpy  # noqa: F401  (part of rsurf's set-up cost)
        import rsurf  # noqa: F401
        for name in job["modules"]:
            __import__("rsurf." + name)
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        if workload != "cli":
            tracing.install(tracer)
    else:
        from tracing import Tracer

        tracer = Tracer()
    runner = Runner(job, tracer)
    rounds = job["rounds"]
    # the warm-up runs here, not forked, so lazy imports and set-up caches
    # are warm in every child
    runner.timed(*rounds[0][job["warmup"]])
    tracer.reset()
    runner.child_spans = []
    ready = now()
    records = []
    if not job["setup_only"]:
        probe()  # the first probe imports numpy in the cli worker
        deadline = time.perf_counter() + job["seconds"]
        rnd = 0
        while True:
            # one repeated round, or fresh rounds until they run out
            ops = rounds[rnd] if len(rounds) > 1 else rounds[0]
            for idx, op in enumerate(ops):
                tracer.op = (rnd, idx)
                before = probe()
                dt, status, out = runner.run_op(op)
                records.append((rnd, idx, dt, status, out, before, probe()))
            rnd += 1
            if time.perf_counter() >= deadline or rnd == len(rounds) > 1:
                break
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    pickle.dump(
        {
            "ready": ready,
            "records": records,
            "maxrss_kb": {"self": self_rss, "children": child_rss},
            "spans": tracer.spans,
            "counts": tracer.counts,
            "cli_spans": runner.child_spans,
        },
        result_stream,
    )
    result_stream.flush()


if __name__ == "__main__":
    main()
