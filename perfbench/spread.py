"""Run-to-run spread of the benchmark over several seeds.

    python3 perfbench/spread.py --workload ma-solve --seeds 1-10 [--trace-check]
    python3 perfbench/spread.py --workload ma-solve --seeds 11-20 \
        --against .perfbench/spread-ma-solve-1-10.json

Runs ``perfbench/run.py`` once per seed for BENCHMARK.json's
``run_seconds``, one run at a time, and prints for each end-to-end metric
(the BENCHMARK.json ones and the named per-workload ones from the run
records) its median, its spread (distance between the first and third
quartile, as a share of the median), the worst seed's distance from the
median, and the bound.  Every gated metric's spread must stay within its
bound.  ``--trace-check`` adds one traced run.  Every output (a report per
input kind, a potential batch per target set) must have the same digest in
every run that produced it, traced or not.  ``--against`` names an earlier
set's summary; every gated metric's median must then be no worse than that
set's by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" / "results"
                         / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace-check", action="store_true")
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    gated = {m["name"]: m for m in spec["end_to_end"]}

    values, digests, ok = {}, {}, True
    for seed in args.seeds:
        result, record = _run(args.workload, seed, seconds, 0)
        ok = ok and result["correct"] and result["failed"] == 0
        for name, value in record["end_to_end"].items():
            values.setdefault(name, []).append(value)
        for key, digest in record["output_digests"].items():
            digests.setdefault(key, set()).add(digest)
        print(f"seed {seed}: correct {result['correct']}, "
              + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    if args.trace_check:
        result, record = _run(args.workload, args.seeds[0], seconds, 1)
        ok = ok and result["correct"]
        for key, digest in record["output_digests"].items():
            digests.setdefault(key, set()).add(digest)
        print(f"traced seed {args.seeds[0]}: correct {result['correct']}")
    same = all(len(d) == 1 for d in digests.values())
    ok = ok and same
    print(f"{args.workload}: every output identical in every run that made it: {same}")

    before = (json.loads(args.against.read_text())["metrics"]
              if args.against else {})
    print(f"{'metric':<34} {'median':>12} {'spread':>8} {'worst':>8} {'bound':>6}"
          + (f" {'vs ' + args.against.name:>10}" if before else ""))
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med)
            worst = max(abs(v - med) for v in vals) / abs(med)
        else:
            spread = worst = 0.0
        bound = gated[name]["bound"] if name in gated else None
        summary[name] = {"median": med, "spread": spread, "worst": worst,
                         "bound": bound, "values": vals}
        line = (f"{name:<34} {med:>12.5g} {spread:>8.4f} {worst:>8.4f} "
                f"{'' if bound is None else bound:>6}")
        if bound is not None and spread > bound:
            ok = False
        if name in before and before[name]["median"]:
            # relative change of this set's median from the earlier set's
            change = med / before[name]["median"] - 1.0
            line += f" {change:>+10.4f}"
            if name in gated:
                worse = change if gated[name]["better"] == "lower" else -change
                ok = ok and worse <= bound
        print(line)
    out = ROOT / ".perfbench" / (f"spread-{args.workload}-{args.seeds[0]}"
                                 f"-{args.seeds[-1]}.json")
    out.write_text(json.dumps({"seeds": args.seeds, "seconds": seconds,
                               "metrics": summary, "ok": ok}, indent=1) + "\n")
    print(f"{'ok' if ok else 'NOT OK'}: written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
