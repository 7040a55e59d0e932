"""Regenerate ``reference.json``: lambda_max, steady residual and outcome of
every point of every workload.  Run from the root of a checkout:

    python3 shockbench/make_reference.py

The file is made once, at the commit that defines the benchmark, and is the
yardstick later commits are checked against; regenerate it only when a
result is meant to change, and say so.
"""

import json
import sys

import run

# |lambda - ref| <= ABS + REL * |ref|; ABS covers the near-zero lambda_max of
# the stable points, REL the rounding of a dense eigensolve.
TOLERANCE = {"abs": 1e-6, "rel": 1e-6}


def main() -> int:
    run.import_package()
    import pipeline
    from shockstab.errors import ShockStabError
    from workloads import WORKLOADS

    points = {}
    for workload in WORKLOADS.values():
        entries = points[workload.name] = {}
        for point in workload.points:
            try:
                _, lam, residual, reason = pipeline.steady_lambda(point)
            except ShockStabError as exc:
                lam = residual = None
                reason = type(exc).__name__
            entries[point.key] = {"status": reason or "ok", "lambda_max": lam, "residual": residual}
            print(workload.name, point.key, entries[point.key], file=sys.stderr, flush=True)

    reference = {"environment": run.environment(), "tolerance": TOLERANCE, "points": points}
    pipeline.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
