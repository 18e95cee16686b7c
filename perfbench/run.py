"""Benchmark entry point; run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Measures the voilab source tree of the checkout it sits in (``src/``).
Prints a short report, then one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Exits 1 without a result when the
checkout holds no voilab source.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Import voilab from this checkout's ``src`` and nowhere else."""
    if not (SRC / "voilab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no voilab source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import voilab

    if Path(voilab.__file__).resolve().parent != SRC / "voilab":
        raise SystemExit(f"perfbench: voilab was imported from {voilab.__file__}, not {SRC}")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.seed < 0:
        raise SystemExit("perfbench: --seed must be >= 0")
    use_checkout_source()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    if args.setup_probe:
        workloads.build_rows(args.workload, args.seed, args.size)
        print("ready", flush=True)
        return 0

    import bench

    res = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size,
                             span_dir=ROOT / "perfbench" / "out")
    for line in res.lines:
        print(line)
    for name, (value, unit) in res.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in res.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
