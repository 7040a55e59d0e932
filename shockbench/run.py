"""Benchmark of the shockstab pipeline, run from the root of a checkout:

    python3 shockbench/run.py --workload steady-weno --seed 1 --seconds 8 --trace 0

Prints one record line (environment, per-point outcomes with failure reasons)
and then, as the last line, the result: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics and writes the spans to ``shockbench/results/``.
"""

import os

# BLAS/OpenMP read these once, when numpy is first imported.  One thread keeps
# all work on the thread the speed probe samples (see speed.py).
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"


def import_package():
    """Import shockstab from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import shockstab
    except ImportError as exc:
        sys.exit(f"shockbench: cannot import shockstab from {SRC}: {exc}")
    if Path(shockstab.__file__).resolve().parent.parent != SRC:
        sys.exit(f"shockbench: shockstab was imported from {shockstab.__file__}, not {SRC}")


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    import_package()
    import harness
    import pipeline
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    reference = pipeline.load_reference()
    missing = [p.key for p in workload.points if p.key not in reference["points"].get(workload.name, {})]
    if missing:
        sys.exit(f"shockbench: no reference for {missing}; run shockbench/make_reference.py")

    if args.trace:
        result, record, tracer = harness.run_traced(workload, args.seed, reference)
        RESULTS.mkdir(exist_ok=True)
        out = RESULTS / f"spans-{workload.name}-seed{args.seed}.json"
        out.write_text(json.dumps(tracer.dump()))
        record["spans_file"] = str(out.relative_to(ROOT))
    else:
        result, record = harness.run_untraced(workload, args.seed, args.seconds, reference)

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "environment": environment()} | record
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
