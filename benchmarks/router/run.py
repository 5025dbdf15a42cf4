"""Router benchmark: bytes in → results out through ``DocumentBroker.submit``.

One command prints every metric by name with its unit and checks the outputs
against the DOM evaluator::

    python benchmarks/router/run.py [--seed 7] [--workload NAME]
                                    [--out FILE] [--trace-out FILE] [--quick]
    python benchmarks/router/run.py --compare A.json B.json

With ``--trace 0|1`` (the form ``BENCHMARK.json`` names) it runs one workload
and ends its output with one JSON line: the end-to-end metrics measured with
tracing off, or the per-layer metrics from the traced pass.

Each workload runs in a worker subprocess of its own with ``PYTHONHASHSEED=0``
and ``REPRO_STREAMING_BACKEND`` unset, so the default serving path is what is
measured.  See README.md beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from statistics import median
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME),
                        help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=workloads.REFERENCE_SECONDS,
                        help="length of the timed passes on the reference "
                             "sandbox; scales the fixed document counts")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one workload, one JSON result line: 0 = "
                             "end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--out", help="write the full report as JSON")
    parser.add_argument("--trace-out", help="write the spans as JSON lines")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the documents, one pass: smoke only")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="apply the bounds to two reports")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trace is not None and not args.workload:
        parser.error("--trace needs --workload")
    return args


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _worker(args: argparse.Namespace) -> int:
    import harness

    report = harness.run_workload(
        args.workload, args.seed, args.seconds,
        end_to_end=args.trace != 1, traced=args.trace != 0,
        quick=args.quick, trace_out=args.trace_out)
    print(json.dumps(report))
    return 0


def _run_worker(args: argparse.Namespace, name: str) -> Dict:
    env = dict(os.environ)
    env.pop("REPRO_STREAMING_BACKEND", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(HERE / "run.py"), "--worker",
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if args.trace is not None:
        command += ["--trace", str(args.trace)]
    if args.quick:
        command.append("--quick")
    if args.trace_out:
        command += ["--trace-out", args.trace_out]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{name}: worker exited with code {done.returncode}")
    for line in lines[:-1]:     # what the worker logged about failures
        print(f"[{name}] {line}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _fingerprint(args: argparse.Namespace) -> Dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
    }


def _print_report(name: str, report: Dict) -> None:
    print(f"\n== {name}: {report['passes']} x {report['docs_per_pass']} documents, "
          f"{report['attempted']} operations attempted, {report['failed']} failed")
    print(f"   inputs sha256 {report['inputs_sha256']}")
    print(f"   warm-up routing sha256 {report['routing_sha256']}")
    for section in ("end_to_end", "per_layer"):
        for metric, entry in report[section].items():
            note = (f"  ({entry['samples']} samples, {entry['samples_beyond']} beyond)"
                    if "samples_beyond" in entry else "")
            print(f"   {metric:<42} {entry['value']:>14.4f} {entry['unit']}{note}")


def _contract_line(args: argparse.Namespace, report: Dict) -> str:
    """The one-line result ``BENCHMARK.json``'s command ends with."""
    if args.trace == 0:
        names = list(metrics.GATED)
    else:
        # The end-to-end metrics BENCHMARK.json cannot gate ride with the
        # per-layer ones (0 where they do not exist): see metrics.py.
        names = ([row[0] for row in metrics.PER_LAYER]
                 + [row[0] for row in metrics.END_TO_END
                    if row[0] not in metrics.GATED])
    values = {**report["per_layer"], **report["end_to_end"]}
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name]["value"] if name in values else 0.0,
                           "unit": metrics.UNITS[name]}
                    for name in names},
    })


# ---------------------------------------------------------------------------
# Compare
# ---------------------------------------------------------------------------

def _spread(entry: Dict) -> float:
    passes = entry.get("passes") or []
    if len(passes) < 2:
        return 0.0
    return (max(passes) - min(passes)) / median(passes)


def _verdict(better: str, bound: float, before: Dict, after: Dict) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (after["value"] - before["value"]) / before["value"]
    if _spread(before) > bound:
        ahead = (before.get("passes") and after.get("passes")
                 and all(sign * (b - a) < 0
                         for a in before["passes"] for b in after["passes"]))
        return "better" if ahead else "unresolved"
    if worsening > bound:
        return "worse"
    return "better" if worsening < -bound else "within bound"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        before = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        after = json.load(handle)
    if not (before["comparable"] and after["comparable"]):
        print("a --quick report is not comparable")
        return 2
    status = 0
    print(f"{'workload':<22} {'metric':<22} {'A':>12} {'B':>12} {'change':>8} "
          f"{'bound':>6}  verdict")
    for name, report_a in before["workloads"].items():
        report_b = after["workloads"].get(name)
        if report_b is None:
            continue
        for metric, (better, bound) in metrics.bounds_for(name).items():
            a = report_a["end_to_end"].get(metric)
            b = report_b["end_to_end"].get(metric)
            if a is None or b is None:
                continue
            verdict = _verdict(better, bound, a, b)
            change = (b["value"] - a["value"]) / a["value"]
            print(f"{name:<22} {metric:<22} {a['value']:>12.4f} {b['value']:>12.4f} "
                  f"{change:>+8.1%} {bound:>6.0%}  {verdict}")
            if verdict == "worse":
                status = 1
        share_a = report_a["failed"] / report_a["attempted"]
        share_b = report_b["failed"] / report_b["attempted"]
        if share_b > share_a:
            print(f"{name:<22} failed share rose from {share_a:.4%} to {share_b:.4%}")
            status = 1
    return status


# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if args.compare:
        return compare(*args.compare)
    if args.worker:
        return _worker(args)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    for path in (args.out, args.trace_out):
        if path:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    if args.trace_out:
        args.trace_out = os.path.abspath(args.trace_out)
        open(args.trace_out, "w").close()   # workers append
    names = [args.workload] if args.workload else list(workloads.BY_NAME)
    fingerprint = _fingerprint(args)
    print("router benchmark: " + ", ".join(
        f"{key}={value}" for key, value in fingerprint.items()))
    reports = {}
    for name in names:
        reports[name] = _run_worker(args, name)
        _print_report(name, reports[name])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"benchmark": "router", "comparable": not args.quick,
                       "fingerprint": fingerprint, "workloads": reports},
                      handle, indent=1)
    correct = all(report["correct"] for report in reports.values())
    if args.trace is not None:
        print(_contract_line(args, reports[args.workload]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
