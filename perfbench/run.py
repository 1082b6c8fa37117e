"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-q1-ws10x --seed 1 \\
        --seconds 20 --trace 0

Every metric is printed on its own line with its unit, followed by
diagnostic lines (bottleneck, paper comparison, ``sim_fingerprint``,
failed share).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The exit code is 0 only if every
output was correct.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> dict:
    """``{name: unit}`` of the metrics BENCHMARK.json expects."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in declared[section]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    measurement = workload.run(args.seed, args.seconds, trace)
    metrics = measurement.metrics

    declared = declared_metrics(trace)
    errors = list(measurement.errors)
    missing = sorted(name for name in declared
                     if not math.isfinite(metrics.get(name, math.nan)))
    if missing:
        errors.append(f"metrics not measured: {', '.join(missing)}")
    for name, unit in declared.items():
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g} {unit}")
    for line in measurement.diagnostics:
        print(line)
    for error in errors:
        print(f"INCORRECT: {error}")
    result = {
        "correct": not errors,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()
                    if name in metrics and math.isfinite(metrics[name])},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
