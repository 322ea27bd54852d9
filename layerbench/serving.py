"""The served side: start ``repro serve`` and drive a closed loop.

The server runs as its own process with its default configuration (two
forked workers), over the benchmark's artifact store.  The loop is
closed: each client thread holds one keep-alive connection and sends
its next request only after the previous reply arrived.
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.serve.client import ServeClient

#: seconds to wait for the listening banner / for a clean exit
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class ServerProcess:
    """``python -m repro serve`` on an ephemeral port."""

    def __init__(self, src: Path, cache_dir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
            else "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env)
        lines: "queue.Queue[Optional[str]]" = queue.Queue()

        def pump() -> None:
            assert self.proc.stdout is not None
            for line in self.proc.stdout:
                lines.put(line)
            lines.put(None)

        self._pump = threading.Thread(target=pump, daemon=True)
        self._pump.start()
        deadline = time.monotonic() + START_TIMEOUT_S
        self.host, self.port = "", 0
        while not self.port:
            try:
                line = lines.get(timeout=max(
                    0.01, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("repro serve did not start")
            parts = line.split()
            if parts[:3] == ["c", "serve", "listening"]:
                self.host, self.port = parts[3], int(parts[4])
        client = ServeClient(self.host, self.port)
        try:
            if not client.health():
                self.stop()
                raise RuntimeError("repro serve is not healthy")
        finally:
            client.close()

    def stop(self) -> None:
        """SIGTERM, then wait; kill if it does not exit in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._pump.join(timeout=STOP_TIMEOUT_S)


@dataclass
class Request:
    """One request of the loop; ``ref`` names its reference answer."""

    kind: str                      # "wmc", "count" or "compile"
    body: Dict[str, Any]
    ref: Tuple[Any, ...] = ()


@dataclass
class LoopResult:
    """Replies and latencies of one or more closed loops."""

    replies: List[Tuple[Request, int, Dict[str, Any]]] = \
        field(default_factory=list)
    #: (request kind, exception name) of requests that got no reply
    errors: List[Tuple[str, str]] = field(default_factory=list)
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: (request kind, start, end) of every reply, perf_counter seconds
    timings: List[Tuple[str, float, float]] = field(default_factory=list)
    wall_s: float = 0.0

    def merge(self, other: "LoopResult") -> None:
        self.replies.extend(other.replies)
        self.errors.extend(other.errors)
        for kind, values in other.latencies.items():
            self.latencies.setdefault(kind, []).extend(values)
        self.timings.extend(other.timings)
        self.wall_s += other.wall_s

    def failures(self) -> List[Any]:
        return self.errors + [
            (request.kind, status, reply.get("error"))
            for request, status, reply in self.replies
            if status != 200 or reply.get("status") != "ok"]

    def all_ok(self) -> bool:
        return not self.failures()

    def query_latencies(self) -> List[float]:
        """Latencies of the read requests (compiles excluded)."""
        return self.latencies.get("wmc", []) + \
            self.latencies.get("count", [])


def closed_loop(host: str, port: int, streams: List[List[Request]]
                ) -> LoopResult:
    """Run each request stream on its own keep-alive connection, all
    streams concurrently; each sends its next request only after the
    previous reply arrived."""
    result = LoopResult()
    lock = threading.Lock()

    def run(stream: List[Request]) -> None:
        client = ServeClient(host, port)
        try:
            for request in stream:
                path = "/compile" if request.kind == "compile" \
                    else "/query"
                start = time.perf_counter()
                try:
                    status, reply = client.request("POST", path,
                                                   request.body)
                except OSError as error:
                    with lock:
                        result.errors.append(
                            (request.kind, type(error).__name__))
                    continue
                end = time.perf_counter()
                with lock:
                    result.replies.append((request, status, reply))
                    result.latencies.setdefault(request.kind,
                                                []).append(end - start)
                    result.timings.append((request.kind, start, end))
        finally:
            client.close()

    threads = [threading.Thread(target=run, args=(s,)) for s in streams]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall_s = time.perf_counter() - start
    return result
