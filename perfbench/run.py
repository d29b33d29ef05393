"""annulab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload ma-solve --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Set-up imports the package, does the workload's one-off generation,
builds the seeded inputs and runs one untimed warm-up operation of every
input kind; all of it counts in ``setup_s``.  The timed loop then runs
whole cycles, one operation of every input kind each in a seeded order,
until ``--seconds`` have passed (at least two cycles).  With ``--trace 1``
every other cycle, starting with the first, runs with span wrappers
installed, and the last line reports the per-layer metrics instead of the
end-to-end ones.

Human-readable lines come first; the last line of standard output is the
JSON result.  The full record (environment, every sample, spans) is written
to ``.perfbench/results/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
MIN_CYCLES = 2

# every end-to-end metric the benchmark prints, with its unit.  The JSON
# result carries the end_to_end (or, traced, the per_layer) metrics that
# BENCHMARK.json names.
E2E_UNITS = {
    "setup_s": "s", "solve_s": "s", "solve_wide_s": "s", "solve_linear_s": "s",
    "analyze_s": "s", "potential_ongrid_targets_per_s": "targets/s",
    "potential_offgrid_targets_per_s": "targets/s", "gap_ratio": "1",
    "error_rate": "1", "peak_rss_mb": "MB", "op_geomean_s": "s",
}


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ma-solve", "analyze", "potential"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_annulab(sink):
    """Import the checkout's package; exit non-zero when it is not there."""
    src = ROOT / "src"
    if not (src / "annulab" / "__init__.py").is_file():
        sys.exit(f"error: no annulab package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    # the command binds its console stream when the module is imported
    with contextlib.redirect_stdout(sink):
        import annulab
    if Path(annulab.__file__).resolve().parent != (src / "annulab").resolve():
        sys.exit(f"error: imported annulab from {annulab.__file__}, not {src}")
    return annulab


def _blas_threads():
    """Threads the BLAS that numpy loaded will use, when it says so."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(seed):
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": _git_commit(),
        "seed": seed,
    }


def _cpu_times():
    """Machine-wide CPU seconds by state, to show contention from outside."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()[1:9]
    except OSError:
        return {}
    tick = os.sysconf("SC_CLK_TCK")
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    return {n: int(v) / tick for n, v in zip(names, fields)}


def _summary(samples):
    """Median and sample count, plus the highest percentile with 10 beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    for p in (99, 95, 90, 75, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
            break
    return out


class Runner:
    """Runs cycles of one workload and keeps every operation's record."""

    def __init__(self, workload, tracer, seed):
        self.workload = workload
        self.tracer = tracer
        self.order_rng = np.random.default_rng([seed, 1])
        self.ops = []
        self.layers = []
        self.tree_problems = []

    def cycle(self, index, traced):
        kinds = list(self.workload.kinds)
        order = [kinds[i] for i in self.order_rng.permutation(len(kinds))]
        installed = self.tracer.installed() if traced else contextlib.nullcontext()
        with installed:
            for kind in order:
                self.operation(index, kind, traced)

    def operation(self, index, kind, traced):
        wl, tracer = self.workload, self.tracer
        wl.before(kind)
        root = len(tracer.spans)
        record = {"kind": kind, "cycle": index, "traced": traced, "gap": None,
                  "error": None}
        start = time.perf_counter()
        try:
            if traced:
                with tracer.span("op"):
                    raw = wl.call(kind, tracer)
            else:
                raw = wl.call(kind, None)
            record["seconds"] = time.perf_counter() - start
            record["gap"] = wl.check(kind, raw)
        except Exception as exc:  # a failed operation is counted, not fatal
            record.setdefault("seconds", time.perf_counter() - start)
            record["gap"] = getattr(exc, "gap", None)
            record["error"] = f"{type(exc).__name__}: {exc}"
            record["traceback"] = traceback.format_exc(limit=-4)
        if traced:
            record["root_span"] = root
            self.tree_problems.extend(
                tracing.check_tree(tracer.spans, root, record["seconds"]))
            self.layers.append((kind, tracing.layer_metrics(tracer.spans, root)))
        self.ops.append(record)


def _medians(ops, kinds):
    by_kind = {k: [op["seconds"] for op in ops if op["kind"] == k] for k in kinds}
    return {k: statistics.median(v) for k, v in by_kind.items()}, by_kind


def _layer_cycle(layers, kinds):
    """Per cycle: each kind's median per metric, summed over the kinds."""
    out = {name: sum(statistics.median([m[name] for k, m in layers if k == kind])
                     for kind in kinds)
           for name in layers[0][1]}
    iters, trials = out["nonlinear.newton_iterations"], out["nonlinear.trial_evals"]
    out["nonlinear.accepted_ratio"] = iters / trials if trials else 0.0
    return out


def _print_table(title, rows):
    print(title)
    for name, value, unit, note in rows:
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {text:>14} {unit:<10} {note}")


def main(argv=None):
    args = _parse_args(argv)
    annulab = _import_annulab(workloads.SINK)
    import_s = time.perf_counter() - T_START
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = _environment(args.seed)
    state = ROOT / ".perfbench"
    work = state / f"work-{args.workload}-{os.getpid()}"
    try:
        result, record = _run(args, spec, annulab, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"] = env
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


def _run(args, spec, annulab, work, import_s):
    wl = workloads.WORKLOADS[args.workload](annulab, work, args.seed)
    start = time.perf_counter()
    try:
        wl.generate()
    except RuntimeError as err:
        sys.exit(f"error: set-up failed: {err}")
    generate_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    runner = Runner(wl, tracer, args.seed)
    # every kind is warm before the timed loop, so traced and untraced
    # cycles alike see no first-call costs, and those costs count here
    start = time.perf_counter()
    wl.prepare()
    for kind in wl.kinds:
        runner.operation(-1, kind, False)
    warmup_s = time.perf_counter() - start
    setup_s = import_s + generate_s + warmup_s

    cpu_before = _cpu_times()
    start = time.perf_counter()
    cycles = 0
    while cycles < MIN_CYCLES or time.perf_counter() - start < args.seconds:
        runner.cycle(cycles, bool(args.trace) and cycles % 2 == 0)
        cycles += 1
    measured_s = time.perf_counter() - start
    cpu = {k: v - cpu_before[k] for k, v in _cpu_times().items()}

    ops = runner.ops
    timed = [op for op in ops if op["cycle"] >= 0]
    failed = sum(op["error"] is not None for op in ops)
    gaps = [op["gap"] for op in ops if op["gap"] is not None]
    # with no measurable output at all the run reads as failing, not as exact
    gap_ratio = max(gaps, default=1.0)
    plain = [op for op in timed if not op["traced"]]
    medians, samples = _medians(plain, wl.kinds)
    e2e = {"setup_s": setup_s, "gap_ratio": gap_ratio,
           "error_rate": failed / len(ops),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           # every input kind weighs the same, whatever its size
           "op_geomean_s": statistics.geometric_mean(
               wl.op_time(v) for v in samples.values()),
           **wl.headline(medians)}
    correct = failed == 0 and gap_ratio < 1.0 and not runner.tree_problems

    print(f"annulab benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {cycles} cycles in {measured_s:.1f} s, "
          f"{len(ops)} operations ({failed} failed); machine CPU s during the loop: "
          + ", ".join(f"{k} {v:.2f}" for k, v in cpu.items() if v))
    for op in ops:
        if op["error"]:
            print(f"  FAILED {op['kind']} (cycle {op['cycle']}): {op['error']}")
    _print_table("end-to-end (untraced operations):",
                 [(name, e2e.get(name), unit,
                   "" if name in e2e else f"not measured on {args.workload}")
                  for name, unit in E2E_UNITS.items()])
    for kind in wl.kinds:
        s = _summary(samples[kind])
        extra = "".join(f", {k} {v:.4g} s" for k, v in s.items() if k[0] == "p")
        if wl.op_time is min:
            extra += f", fastest {min(samples[kind]):.4g} s (gated)"
        print(f"  {kind}: median {s['median']:.4g} s over {s['n']} operations{extra}")

    record = {
        "args": vars(args), "cycles": cycles, "measured_s": measured_s,
        "machine_cpu_s": cpu,
        "setup": {"import_s": import_s, "generate_s": generate_s,
                  "prepare_and_warmup_s": warmup_s},
        "operations": ops, "end_to_end": e2e,
        "timings": {k: _summary(v) for k, v in samples.items()},
        "output_digests": workloads.digests(wl.reference),
    }
    if args.trace:
        traced = [op for op in timed if op["traced"]]
        t_medians, _ = _medians(traced, wl.kinds)
        layers = _layer_cycle(runner.layers, wl.kinds)
        layers["trace.overhead_s"] = sum(t_medians[k] - medians[k] for k in medians)
        _print_table("per layer (traced operations, one cycle = one operation "
                     "of each kind):",
                     [(m["name"], layers[m["name"]], m["unit"], "")
                      for m in spec["per_layer"]])
        for problem in runner.tree_problems:
            print(f"  SPAN TREE: {problem}")
        record["per_layer"] = layers
        record["tree_problems"] = runner.tree_problems
        record["spans"] = [dict(s, start=s["start"] - T_START, end=s["end"] - T_START)
                           for s in tracer.spans]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    return result, record


if __name__ == "__main__":
    sys.exit(main())
