"""Run one benchmark workload and print its result as a JSON last line.

    python3 warpbench/run.py --workload separation --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, untraced. ``--trace 1``
reports the per-layer metrics of a traced run and writes its spans to
``warpbench/out/``. Workloads and metrics are described in
``warpbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment():
    """Machine and library versions, printed with every result."""
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def metric_units():
    """Unit of every metric, as declared in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def report_lines(result, env, units):
    """Human-readable lines, then the result as one JSON object."""
    lines = ["env " + json.dumps(env)]
    lines += [f"check {name} = {value:.6g} ({note})"
              for name, (value, note) in result["checks"].items()]
    lines += [f"{name} = {value:.6g} {units[name]}"
              for name, value in result["metrics"].items()]
    lines.append(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()}}))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one BLAS thread: the single-threaded baseline, steady on a shared box
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    src = ROOT / "src"
    if not (src / "warpski" / "__init__.py").is_file():
        print(f"error: no warpski sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]

    from warpbench.workloads import WORKLOADS, run

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    if result["spans"] is not None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({"env": env, "workload": args.workload,
                       "seed": args.seed, "metrics": result["metrics"],
                       "spans": result["spans"]}, fh)
        print(f"spans written to {path.relative_to(ROOT)}")
    print("\n".join(report_lines(result, env, metric_units())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
