#!/usr/bin/env python3
"""End-to-end smoke test for the compilation service.

Starts a real ``repro serve`` subprocess on an OS-assigned port,
fires a 50-request mixed burst (duplicate-heavy compiles followed by
count/WMC queries) through :func:`repro.serve.loadgen.run_load`, then
SIGKILLs the worker that answered a query, waits until the server has
replaced it (``worker_restarts`` in ``/stats``, the full worker count
in ``/healthz``) and fires a second burst.  On both bursts it asserts
the two service-level invariants CI cares about:

* in-flight dedup actually collapsed duplicate compiles
  (``dedup_hit_rate`` > 0), and
* the server answered every request without a 5xx.

Then SIGTERMs the server and requires a clean exit.  Stdlib + the
installed ``repro`` package only — no test framework, so it can run
as a bare CI step.

Usage::

    python tools/serve_smoke.py [--requests 50] [--workers 2]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List


def start_server(workers: int, cache_dir: str) -> "tuple[subprocess.Popen, str, int]":
    """Launch ``repro serve`` and wait for its listening banner."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", str(workers), "--cache-dir", cache_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + 60.0
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(
                f"server exited before listening (rc={proc.wait()})")
        sys.stdout.write(line)
        if line.startswith("c serve listening"):
            _, _, _, host, port = line.split()
            return proc, host, int(port)
    proc.kill()
    raise SystemExit("server never printed its listening banner")


def kill_one_worker(host: str, port: int, key: str, workers: int) -> str:
    """SIGKILL the worker that answers a query on ``key`` and wait for
    its replacement; returns a failure message, or "" on success."""
    from repro.serve.client import ServeClient

    client = ServeClient(host, port)
    try:
        status, body = client.query(key, "count")
        if status != 200:
            return f"query before the kill answered {status}: {body}"
        os.kill(body["pid"], signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            _, health = client.request("GET", "/healthz")
            if client.stats().get("worker_restarts", 0) >= 1 and \
                    health.get("workers") == workers:
                print(f"c killed worker {body['pid']}; "
                      f"{workers} workers up again")
                return ""
            time.sleep(0.05)
        return "killed worker was not replaced within 30 s"
    finally:
        client.close()


def burst_failures(name: str, report: Dict[str, Any]) -> List[str]:
    failures = []
    if report["server_5xx"] != 0:
        failures.append(f"{name}: server answered "
                        f"{report['server_5xx']} 5xx")
    if not report["dedup_hit_rate"] > 0:
        failures.append(f"{name}: duplicate compiles were not "
                        "deduplicated")
    if report["failures"]:
        failures.append(f"{name}: client-side failures: "
                        f"{report['failures']}")
    return failures


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=50,
                        help="size of each burst (compiles + queries)")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    from repro.serve.loadgen import run_load

    # duplicate-heavy mix: 3 distinct CNFs x 8 submissions = 24
    # compiles, remainder queries — 50 requests at the defaults
    distinct, duplicates = 3, 8
    queries = max(args.requests - distinct * duplicates, 1)

    def burst(seed: int) -> Dict[str, Any]:
        report = run_load(host, port, distinct=distinct,
                          duplicates=duplicates, queries=queries,
                          threads=4, num_vars=20, num_clauses=50,
                          seed=seed, deadline_s=30.0)
        report.pop("server_stats", None)
        return report

    failures: List[str] = []
    reports: Dict[str, Dict[str, Any]] = {}
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as cache:
        proc, host, port = start_server(args.workers, cache)
        try:
            reports["first"] = burst(seed=11)
            keys = list(reports["first"]["keys"].values())
            # with --workers 0 the reply's pid is the server's own
            if args.workers and keys:
                kill = kill_one_worker(host, port, keys[0], args.workers)
                if kill:
                    failures.append(kill)
            reports["after_kill"] = burst(seed=23)
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                rc = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                rc = -9

    print(json.dumps(reports, indent=2, sort_keys=True))
    for name, report in reports.items():
        failures.extend(burst_failures(name, report))
    if rc != 0:
        failures.append(f"server exited {rc} on SIGTERM, expected 0")
    for failure in failures:
        print(f"SMOKE FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    total = sum(report["requests"] for report in reports.values())
    print(f"serve smoke ok: {total} requests over {len(reports)} "
          f"bursts around a worker kill, zero 5xx, clean shutdown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
