"""spo-bench benchmark: one workload per run, one JSON result line at the end.

Usage:
    python3 benchmarks/run.py --workload {compare,serve_spo,serve_blocking}
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``. With
``--trace 0`` the result carries the end-to-end metrics; with ``--trace 1``
a separate run installs span wrappers around every layer's public calls and
carries the per-layer metrics. Lines before the result give provenance,
digests of the program's outputs, and each metric with its unit. RATIONALE.md
explains the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("compare", "serve_spo", "serve_blocking")


def load_program():
    """Import ``spo`` from this checkout's ``src/``, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "spo", "__init__.py")):
        raise SystemExit(f"benchmark: no spo sources under {SRC}")
    sys.path.insert(0, SRC)
    import spo

    if os.path.dirname(os.path.dirname(os.path.abspath(spo.__file__))) != SRC:
        raise SystemExit(f"benchmark: imported spo from {spo.__file__}, not {SRC}")
    return spo


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    return f"unknown ({ref[5:]} is packed)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def provenance(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name == "compare":
        import compare_workload

        return compare_workload.run(seed, seconds, trace)
    import serve_workload
    from spo.harness import BaselineKind

    kind = BaselineKind.SPO if name == "serve_spo" else BaselineKind.BLOCKING
    return serve_workload.run(kind, seed, seconds, trace)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    from metrics import END_TO_END, PER_LAYER

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(END_TO_END) - set(result.metrics)) if not args.trace else []
    if missing:
        raise SystemExit(f"benchmark: workload did not measure {missing}")
    # Per-layer metrics a workload does not report are layers doing no work in it.
    idle_layers = sorted(set(PER_LAYER) - set(result.metrics)) if args.trace else []
    metrics = {name: float(result.metrics.get(name, 0.0)) for name in wanted}

    print(json.dumps({"provenance": provenance(args)}))
    print(json.dumps({"info": result.info, "no_work_in_this_workload": idle_layers}))
    for failure in result.failures[:20]:
        print(f"FAILED: {failure}")
    width = max(map(len, wanted))
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {wanted[name]}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": wanted[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
