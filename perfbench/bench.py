"""One run of one benchmark workload, in its own process.

``run.py`` starts this file with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP
pinned to one thread.  The run generates its inputs from the seed, then
drives ``maxlinbn.cli.run`` in-process as a closed loop with one client
until the timed calls add up to ``--seconds``.  Every output is checked
outside the timed region; a failed check, an exception or an unexpected
non-zero exit makes the call fail, and a failed call never counts as a
fast one.  The last line of standard output is the result as JSON.

Workloads, and why each was chosen:

* ``learn``: ``sample --out x.csv`` then ``--json learn`` on a sparse d=50
  model with n=20000.  Sample CSV I/O and the ``n * d * d`` ratio tensor
  that ``learn`` builds three times do most of the work; the closure is
  small.  Afterwards a fixed recovery set measures how often
  identification succeeds.
* ``fit``: the known-DAG pipeline ``closure``, ``minimize``, ``sample``,
  ``estimate gmle``, ``estimate alt`` on a wide sparse d=200 model with
  n=2000: closures at d=200 and the ``n * d * d`` propagation temporary,
  but no ratio tensor.
* ``separation``: ``query --method both`` calls, ``statements`` and
  ``enumerate_independences`` on unweighted DAGs; no numeric layer runs, so
  a kernel change should leave it unchanged.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from statistics import median

import numpy as np

import maxlinbn
import maxlinbn.cli

import checks
import inputs
import spans

WORKLOADS = ("learn", "fit", "separation")
SETUP_REPEATS = 5
#: No new operation starts after this much wall time, so a run that has
#: become very slow still ends well inside the three-minute limit.
WALL_LIMIT_S = 120.0

#: End-to-end metrics of every workload, as declared in BENCHMARK.json.
#: ``op_p50_ref`` is the median operation time divided by the median time of
#: a reference block timed before each operation in the same run: on a
#: shared host the machine's speed drifts by tens of percent over minutes,
#: and the ratio cancels most of that drift.
END_TO_END = (("setup_s", "s"), ("op_p50_ref", "ref"), ("peak_rss_mb", "MB"))
#: Calls of ``reference_work`` in one reference block (about 60 ms), timed
#: outside the timed region.
REFERENCE_CALLS = 5
_REFERENCE_INPUT = np.random.default_rng(0).random((200, 50))


def reference_work() -> None:
    """A fixed mix of the kinds of work the program does, to track the speed
    of the machine during a run: float formatting and parsing as in the CSV
    and JSON formats, set traversal as in the graph code, and a broadcast
    max-times product as in the numeric layers."""
    x = _REFERENCE_INPUT
    text = "\n".join(",".join(format(v, ".17g") for v in row) for row in x[:40])
    json.loads(json.dumps([[float(t) for t in line.split(",")] for line in text.split("\n")]))
    children = {v: {(v * 7 + k) % 400 for k in range(3) if (v * 7 + k) % 400 > v} for v in range(400)}
    seen, stack = set(), [0]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(children[v])
    np.max(x[:, None, :] * x[None, :, :], axis=2)


class Call:
    """One timed call: its kind, duration and whether its output passed."""

    __slots__ = ("kind", "seconds", "ok", "out", "why")

    def __init__(self, kind, seconds, ok, out, why=""):
        self.kind = kind
        self.seconds = seconds
        self.ok = ok
        self.out = out
        self.why = why


class Recorder:
    """Calls of one run, grouped into operations."""

    def __init__(self, tracer: spans.Tracer):
        self.tracer = tracer
        self.traced = False
        self.ops: list[tuple[list[Call], bool]] = []
        self._op: list[Call] = []
        self.reference: list[float] = []

    def time_reference(self) -> None:
        start = time.perf_counter()
        for _ in range(REFERENCE_CALLS):
            reference_work()
        self.reference.append(time.perf_counter() - start)

    def _timed(self, kind, fn):
        span = self.tracer.span(f"bench.{kind}") if self.traced else contextlib.nullcontext()
        installed = self.tracer.installed() if self.traced else contextlib.nullcontext()
        with installed:
            start = time.perf_counter()
            with span:
                result = fn()
            seconds = time.perf_counter() - start
        return seconds, result

    def cli(self, kind: str, argv: list[str]) -> Call:
        """Run ``maxlinbn.cli.run(argv)`` with its output captured in memory."""

        def invoke():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = maxlinbn.cli.run(argv)
                except Exception:  # a crash of the program fails the call, not the run
                    traceback.print_exc(limit=2)
                    rc = 1
            return rc, out.getvalue(), err.getvalue()

        seconds, (rc, out, err) = self._timed(kind, invoke)
        why = "" if rc == 0 else f"exit {rc}: {err.strip()[-200:]}"
        return self._add(Call(kind, seconds, rc == 0, out, why))

    def library(self, kind: str, fn, *args) -> Call:
        try:
            seconds, out = self._timed(kind, lambda: fn(*args))
        except Exception as exc:  # a crash of the program fails the call, not the run
            return self._add(Call(kind, 0.0, False, None, f"raised {exc!r}"))
        return self._add(Call(kind, seconds, True, out))

    def skip(self, kind: str, why: str) -> None:
        self._add(Call(kind, 0.0, False, None, why))

    def check(self, call: Call, fn, *args):
        """Run an output check; a failure marks ``call`` failed."""
        if not call.ok:
            return None
        try:
            return fn(*args)
        except checks.CheckFailed as exc:
            call.ok, call.why = False, f"check: {exc}"
        except Exception:  # a malformed output must fail the call, not the run
            call.ok, call.why = False, "check raised " + traceback.format_exc(limit=2)
        return None

    def _add(self, call: Call) -> Call:
        self._op.append(call)
        return call

    def end_op(self) -> None:
        op, self._op = self._op, []
        for call in op:
            call.out = None  # checked by now; keep the run's memory the program's
        self.ops.append((op, self.traced))

    # --- results ------------------------------------------------------------

    def calls(self):
        return [c for op, _ in self.ops for c in op]

    def failures(self) -> list[Call]:
        return [c for c in self.calls() if not c.ok]

    def timed_total(self) -> float:
        return sum(c.seconds for c in self.calls())

    def op_seconds(self, traced: bool) -> list[float]:
        """Operation times; a failed operation reads as the whole timed
        total, so failures can only raise a median."""
        worst = self.timed_total()
        return [
            sum(c.seconds for c in op) if all(c.ok for c in op) else worst
            for op, t in self.ops
            if t == traced
        ]

    def op_p50_ref(self) -> float:
        return median(self.op_seconds(False)) / median(self.reference)

    def kind_seconds(self, kind: str) -> list[float]:
        worst = self.timed_total()
        return [c.seconds if c.ok else worst for c in self.calls() if c.kind == kind]


# --- workloads ---------------------------------------------------------------


def argv_list(vertices) -> str:
    return ",".join(str(v) for v in sorted(vertices))


class Learn:
    kinds = ("sample", "learn")

    def __init__(self, sizes: inputs.Sizes, workdir: str):
        self.sizes = sizes
        self.workdir = workdir
        self.csv = os.path.join(workdir, "x.csv")
        self.recovery = Counter()
        self.recovery_cells = defaultdict(Counter)

    def setup(self, seed: int) -> None:
        self.inp = inputs.learn_inputs(seed, self.sizes, self.workdir)

    def prepare(self) -> None:
        self.refs = []
        for m in self.inp["models"]:
            b = checks.best_path_matrix(m["d"], m["weights"])
            g, _ = maxlinbn.model.minimal_dag(b)
            self.refs.append((set(g.edges), b))

    def op(self, i: int, rec: Recorder) -> None:
        k = i % len(self.refs)
        sample = rec.cli("sample", [
            "sample", "--model", self.inp["models"][k]["path"], "--n", str(self.sizes.learn_n),
            "--noise", "frechet", "--alpha", "1", "--seed", str(self.inp["seeds"][i]),
            "--out", self.csv,
        ])
        if not sample.ok:
            rec.skip("learn", "sample failed")
            return
        learn = rec.cli("learn", ["--json", "learn", "--samples", self.csv])
        rec.check(learn, checks.check_learn, learn.out, *self.refs[k])

    def finish(self, rec: Recorder) -> None:
        """Identification on the fixed recovery set; failures here are the
        measured defect, not failed operations."""
        for label, d, weights, seed in self.inp["recovery"]:
            g = maxlinbn.Dag(d, weights.keys())
            model = maxlinbn.MaxLinearModel(g, weights)
            x = model.sample(self.sizes.recovery_n, maxlinbn.NoiseSpec.frechet(1.0, seed))
            reference, _ = maxlinbn.minimal_dag(checks.best_path_matrix(d, weights))
            try:
                found, _ = maxlinbn.identify_structure(x)
                outcome = "exact" if found == reference else "wrong DAG"
            except maxlinbn.MaxLinError as exc:
                text = str(exc)
                outcome = next(
                    (k for k in ("not antisymmetric", "not transitively closed") if k in text),
                    text,
                )
            self.recovery[outcome] += 1
            self.recovery_cells[label][outcome] += 1


class Fit:
    kinds = ("closure", "minimize", "sample", "estimate_gmle", "estimate_alt")

    def __init__(self, sizes: inputs.Sizes, workdir: str):
        self.sizes = sizes
        self.workdir = workdir
        self.csv = os.path.join(workdir, "x.csv")
        self.b_path = os.path.join(workdir, "b.json")
        self.recovery = Counter()

    def setup(self, seed: int) -> None:
        self.inp = inputs.fit_inputs(seed, self.sizes, self.workdir)

    def prepare(self) -> None:
        self.refs = [checks.best_path_matrix(m["d"], m["weights"]) for m in self.inp["models"]]

    def op(self, i: int, rec: Recorder) -> None:
        k = i % len(self.refs)
        m = self.inp["models"][k]
        n, d, weights, model = self.sizes.fit_n, m["d"], m["weights"], m["path"]
        closure = rec.cli("closure", ["--json", "closure", "--dag", model])
        b = rec.check(closure, checks.check_closure, closure.out, self.refs[k])
        if b is None:
            for kind in self.kinds[1:]:
                rec.skip(kind, "closure failed")
            return
        with open(self.b_path, "w") as fh:
            fh.write(closure.out)
        minimize = rec.cli("minimize", ["--json", "minimize", "--matrix", self.b_path])
        rec.check(minimize, checks.check_minimize, minimize.out, b)

        seed = self.inp["seeds"][i]
        sample = rec.cli("sample", [
            "sample", "--model", model, "--n", str(n), "--noise", "lognormal",
            "--mu", "0", "--sigma", "1", "--seed", str(seed), "--out", self.csv,
        ])
        x = rec.check(sample, checks.read_csv, self.csv, n, d)
        if x is None:
            rec.skip("estimate_gmle", "sample failed")
            rec.skip("estimate_alt", "sample failed")
            return
        z = maxlinbn.noise_matrix(maxlinbn.NoiseSpec.lognormal(0.0, 1.0, seed), n, d)
        rec.check(sample, checks.check_recursion, x, z, d, weights)

        gmle = rec.cli("estimate_gmle", [
            "--json", "estimate", "--dag", model, "--samples", self.csv, "--estimator", "gmle",
        ])
        b_hat = rec.check(gmle, checks.check_gmle, gmle.out, d, weights)
        alt = rec.cli("estimate_alt", [
            "--json", "estimate", "--dag", model, "--samples", self.csv, "--estimator", "alt",
        ])
        if b_hat is None:
            alt.ok, alt.why = False, "no GMLE closure to compare against"
        rec.check(alt, checks.check_alt, alt.out, b_hat)

    def finish(self, rec: Recorder) -> None:
        pass


class Separation:
    kinds = ("query", "statements", "independences")

    def __init__(self, sizes: inputs.Sizes, workdir: str):
        self.sizes = sizes
        self.workdir = workdir
        self.recovery = Counter()

    def setup(self, seed: int) -> None:
        self.inp = inputs.separation_inputs(seed, self.sizes, self.workdir)

    def prepare(self) -> None:
        self.oracles, self.small, self.statements, self.independences = [], [], [], []
        for (_, d, edges), (sd, small_edges) in zip(self.inp["dags"], self.inp["small"]):
            oracle = checks.SeparationOracle(d, edges)
            expected = {kind: oracle.statements(kind) for kind in ("local", "ordered")}
            for stmts in expected.values():
                checks.verify_statements_hold(oracle, stmts)
            self.oracles.append(oracle)
            self.statements.append(expected)
            small = checks.SeparationOracle(sd, small_edges)
            verdicts = small.independences(self.sizes.indep_max_cond)
            # the one-pass oracle must agree with networkx on a sample of triples
            for x, y, s, holds in verdicts[::97]:
                if holds != small.separated({x}, {y}, s):
                    raise checks.CheckFailed("independence oracle disagrees with networkx")
            self.independences.append(verdicts)
            self.small.append(maxlinbn.Dag(sd, small_edges))

    def op(self, i: int, rec: Recorder) -> None:
        k = i % len(self.oracles)
        path = self.inp["dags"][k][0]
        pool = self.inp["queries"]
        per_round = self.sizes.sep_queries_per_round
        for q in range(i * per_round, (i + 1) * per_round):
            a, b, s = pool[q % len(pool)]
            argv = ["--json", "query", "--dag", path, "--left", argv_list(a),
                    "--right", argv_list(b)]
            if s:
                argv += ["--given", argv_list(s)]
            call = rec.cli("query", argv + ["--method", "both"])
            rec.check(call, checks.check_query, call.out, self.oracles[k].separated(a, b, s))
        for kind in ("local", "ordered"):
            call = rec.cli("statements", ["--json", "statements", "--dag", path, "--kind", kind])
            rec.check(call, checks.check_statements, call.out, self.statements[k][kind])
        call = rec.library(
            "independences",
            lambda g: maxlinbn.separation.enumerate_independences(g, self.sizes.indep_max_cond),
            self.small[k],
        )
        rec.check(call, checks.check_independences, call.out, self.independences[k])

    def finish(self, rec: Recorder) -> None:
        pass


# --- reporting -----------------------------------------------------------------


def environment() -> dict:
    """Machine, interpreter, numpy and the BLAS threads actually in effect."""
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    blas_threads = None
    with contextlib.suppress(OSError), open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    blas_threads = getattr(handle, symbol)()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads,
        **{k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS")},
    }


def summary(values: list[float]) -> tuple[float, str]:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"n={n} min={min(values):.6g} max={max(values):.6g}"
    for p in (99.9, 99, 90):
        if n * (1 - p / 100) >= 10:
            text = f"p{p:g}={float(np.percentile(values, p)):.6g} {text}"
            break
    return median(values), text


def end_to_end_report(name: str, w, rec: Recorder, setup_s: float, rss: float) -> list[str]:
    """The named end-to-end metrics of one workload, one line each."""
    lines = [f"{'setup_s':<24}{setup_s:.6g} s  n={SETUP_REPEATS}"]
    ops = rec.op_seconds(False)
    p50, tail = summary(ops)
    lines.append(f"{'op_p50_s':<24}{p50:.6g} s  {tail}")
    p50, tail = summary(rec.reference)
    lines.append(f"{'reference_s':<24}{p50:.6g} s  {tail}")
    lines.append(f"{'op_p50_ref':<24}{rec.op_p50_ref():.6g} ref")
    scale = {"query": (1e3, "ms")}
    for kind in w.kinds:
        values = rec.kind_seconds(kind)
        factor, unit = scale.get(kind, (1.0, "s"))
        p50, tail = summary([v * factor for v in values])
        label = {"query": "query_p50_ms"}.get(kind, f"{kind}_s")
        lines.append(f"{label:<24}{p50:.6g} {unit}  {tail}")
    if name == "separation":
        queries = [c for c in rec.calls() if c.kind == "query"]
        rate = sum(c.ok for c in queries) / sum(c.seconds for c in queries)
        lines.append(f"{'queries_per_s':<24}{rate:.6g} 1/s  n={len(queries)}")
    if name == "learn":
        total = sum(w.recovery.values())
        cells = "; ".join(
            f"{label}: " + ", ".join(f"{k} {v}" for k, v in sorted(c.items()))
            for label, c in w.recovery_cells.items()
        )
        lines.append(
            f"{'learn_exact_share':<24}{w.recovery['exact'] / total:.6g} share  "
            f"{w.recovery['exact']}/{total} exact ({cells})"
        )
    lines.append(f"{'peak_rss_mb':<24}{rss:.6g} MB")
    attempted, failed = len(rec.calls()), len(rec.failures())
    lines.append(f"{'failed_share':<24}{failed / attempted:.6g} share  {failed}/{attempted} calls")
    return lines


def import_seconds() -> float:
    """Time to import the package, measured in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import maxlinbn; print(time.perf_counter() - t)"
    src = os.path.dirname(os.path.dirname(maxlinbn.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    return float(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    args = parser.parse_args(argv)
    sizes = inputs.SMOKE if args.smoke else inputs.FULL
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run(args, sizes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(workdir))


def run(args, sizes, workdir) -> int:
    started = time.perf_counter()
    w = {"learn": Learn, "fit": Fit, "separation": Separation}[args.workload](sizes, workdir)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        w.setup(args.seed)
        setups.append(import_seconds() + time.perf_counter() - t0)
    setup_s = median(setups)
    w.prepare()
    # the checker's reference data stays out of the collections the timed code triggers
    gc.collect()
    gc.freeze()

    tracer = spans.Tracer()
    rec = Recorder(tracer)
    i = 0
    # in a traced run, odd operations are traced and even ones give the
    # untraced times that the tracing overhead is measured against
    while (
        rec.timed_total() < args.seconds or (args.trace and i < 2)
    ) and time.perf_counter() - started < WALL_LIMIT_S:
        rec.traced = bool(args.trace and i % 2)
        gc.collect()
        rec.time_reference()
        w.op(i, rec)
        rec.end_op()
        i += 1
    w.finish(rec)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(environment()))
    failures = rec.failures()
    for call in failures[:10]:
        print(f"FAILED {call.kind}: {call.why}")
    if args.trace:
        traced = rec.op_seconds(True)
        untraced = rec.op_seconds(False)
        values = spans.layer_metrics(
            tracer, len(traced), median(traced), median(untraced), w.recovery
        )
        metrics = {name: (values[name], unit) for name, unit in spans.PER_LAYER}
        for name, (value, unit) in metrics.items():
            print(f"{name:<44}{value:.6g} {unit}")
    else:
        for line in end_to_end_report(args.workload, w, rec, setup_s, rss):
            print(line)
        values = {"setup_s": setup_s, "op_p50_ref": rec.op_p50_ref(), "peak_rss_mb": rss}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    result = {
        "correct": not failures,
        "attempted": len(rec.calls()),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
