"""Run one workload of the layer-resolved benchmark.

    python3 layerbench/run.py --workload random_3cnf --seed 1 \\
        --seconds 30 --trace 0

Prints the operation ledger first and, as its last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and the
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (spans are written to
``.layerbench_out/``).  See ``layerbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: environment switches that would change the program under test
PROGRAM_ENV = ("REPRO_CACHE_DIR", "REPRO_BACKEND", "REPRO_LEGACY",
               "REPRO_GATE")


def parse_args(argv: "list[str]") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="scales the fixed operation counts "
                             "(30 = the base counts)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """Digest of the program and benchmark sources: fingerprints are
    compared only between runs of the same code."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_determinism(workload: str, seed: int,
                      fingerprint: "dict[str, object]") -> "list[str]":
    """Compare this run's deterministic quantities with every earlier
    run of the same code, workload and seed in this checkout."""
    path = ROOT / ".layerbench_out" / "fingerprints" / \
        f"{source_digest()}-{workload}-{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        earlier = json.loads(path.read_text())
    except (OSError, ValueError):
        earlier = None
    if earlier is None:
        path.write_text(json.dumps(fingerprint, sort_keys=True) + "\n")
        return []
    return [f"{name}: {earlier.get(name)!r} before, {value!r} now"
            for name, value in sorted(fingerprint.items())
            if earlier.get(name) != value]


def main(argv: "list[str]") -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"layerbench: no program sources at {src}", file=sys.stderr)
        return 2
    for name in PROGRAM_ENV:
        os.environ.pop(name, None)
    sys.path[:0] = [str(src), str(HERE)]
    from bench import Run
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    run = Run(args.workload, args.seed, args.seconds, ROOT, tracer)
    probe = run.execute()
    drift = check_determinism(args.workload, args.seed, run.fingerprint)
    ledger = run.ledger.as_dict()
    print(json.dumps({"ledger": ledger, "depth_probe": probe,
                      "fingerprint": run.fingerprint,
                      "calibration_ms": run.calibration_ms(),
                      "unscaled": run.raw_e2e}))
    if drift:
        print("layerbench: deterministic quantities changed between "
              "runs of one seed: " + "; ".join(drift), file=sys.stderr)
    if tracer is not None:
        tracer.write(ROOT / ".layerbench_out" /
                     f"trace-{args.workload}-{args.seed}.json")
        metrics = dict(run.layer)
        metrics["probe.depth_attempted"] = {
            "value": float(probe["attempted"]), "unit": "count"}
        metrics["probe.depth_failed"] = {
            "value": float(sum(probe["failed"].values())),
            "unit": "count"}
    else:
        metrics = run.e2e
    attempted = sum(run.ledger.attempted.values())
    failed = sum(run.ledger.failed.values())
    print(json.dumps({"correct": failed == 0 and not drift,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
