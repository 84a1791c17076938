#!/usr/bin/env python3
"""Fixed-work benchmark of chorchain: verified handovers, audits, block assembly.

Usage, from the root of a source checkout (nothing needs installing)::

    python3 perfbench/run.py --workload verified_instances --seed 1 --seconds 25 --trace 0

Each run is one process and a single-threaded closed loop with one client:
set-up builds the seeded inputs and runs one warm-up operation, then every
operation is timed on its own, then every output is checked. The last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, and
the per-layer metrics, measured through wrappers installed around the
program's public functions, with ``--trace 1``. See README.md beside this
file for the workloads and reference figures.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and make sure the
    program imported is the one beside the benchmark, not an installed copy."""
    package = SRC / "chorchain"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import chorchain

    if Path(chorchain.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported chorchain from {chorchain.__file__}, not {package}")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def time_operations(operations) -> tuple[list, list[float], float]:
    """Run each operation once, in order; an exception is its result."""
    results, durations = [], []
    clock = time.perf_counter
    start = clock()
    for op in operations:
        t = clock()
        try:
            result = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        durations.append(clock() - t)
        results.append(result)
    return results, durations, clock() - start


def end_to_end(durations: list[float], wall: float, setup_s: float, rss_mb: float) -> dict:
    p90 = statistics.quantiles(durations, n=10)[8] if len(durations) > 1 else durations[0]
    return {
        "ops_per_s": len(durations) / wall,
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def main(argv=None) -> int:
    import_program()
    import tracer
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    workload.setup()
    operations = workload.operations()

    spans = tracer.Tracer() if args.trace else None
    setup_s = time.perf_counter() - T0
    if spans:
        spans.install()
    try:
        results, durations, wall = time_operations(operations)
    finally:
        if spans:
            spans.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = workload.check(results)
    failed = [i for i, p in enumerate(problems) if p]
    unexpected = [i for i in failed if i not in workload.known_faults]
    for i in failed:
        tag = "known fault" if i in workload.known_faults else "FAILED"
        print(f"op {i} {tag}: {problems[i][0]}", file=sys.stderr)
    for name, digest in sorted(workload.fingerprints.items()):
        print(f"fingerprint {name} sha256 {digest}")
    print(
        f"{args.workload} seed {args.seed}: {len(results)} operations in {wall:.3f} s, "
        f"{len(failed)} failed ({len(unexpected)} outside the known faults)"
    )

    if spans:
        values = spans.metrics(len(results), wall)
        units = {name: unit for name, unit, _ in tracer.metric_specs()}
        spans.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    else:
        values = end_to_end(durations, wall, setup_s, rss_mb)
        units = dict(END_TO_END)
    print(
        json.dumps(
            {
                "correct": not unexpected,
                "attempted": len(results),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
