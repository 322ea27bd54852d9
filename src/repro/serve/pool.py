"""The worker pool: where compiles and queries actually run.

Heavy work never runs on the event loop.  The pool forks N worker
processes when it is built; each worker owns one end of a
``socket.socketpair()`` and the event loop holds the other end as an
asyncio stream.  A job is one length-prefixed pickle of ``(entry
point, payload)`` written to an idle worker's channel, and its reply
is one length-prefixed pickle read back from it, so a request costs
the loop one write and one read: no executor thread, no queue feeder
thread, no cross-thread wake-up.  An ``asyncio.Queue`` of idle
channels hands each job to a free worker.

Each worker opens its *own* handle on the shared
:class:`~repro.ir.store.ArtifactStore` directory, so a circuit
compiled by any worker is a warm load (cert hit + ``.csr`` mmap +
cached codegen source) for every other worker and for every later
process.  Workers additionally keep a small in-process LRU of decoded
circuits so a hot key skips even the mmap parse.

A worker that dies (killed, crashed) shows up as end-of-file on its
channel.  Its in-flight job, if any, is answered ``{"status":
"unavailable"}`` (a 503), the process is reaped and a replacement is
forked in its place; :attr:`WorkerPool.restarts` counts them.

Worker entry points (:func:`run_compile`, :func:`run_query`) are
module-level functions taking/returning plain dicts — the pickle
boundary — and never raise: every failure is encoded as a status so
the server can map it to an HTTP code.  Each reply carries the delta
of the worker store's counters for that call, which the app aggregates
into the served `/stats`.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import signal
import socket
import struct
import time
import traceback
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..ir import facade
from ..ir.store import ArtifactStore
from ..limits.budget import Budget, BudgetExceeded
from ..perf.instrument import Counter

__all__ = ["WorkerPool", "run_compile", "run_query", "init_worker"]

#: decoded circuits kept per worker process (keys are content hashes,
#: so entries never go stale)
IR_CACHE_SIZE = 128

_store: Optional[ArtifactStore] = None
_ir_cache: "OrderedDict[str, Any]" = OrderedDict()


def init_worker(cache_root: str, verify: bool = True) -> None:
    """Per-process setup: open this worker's store handle."""
    global _store
    _store = ArtifactStore(cache_root, verify=verify)
    _ir_cache.clear()


def _require_store() -> ArtifactStore:
    if _store is None:
        raise RuntimeError("worker not initialised; init_worker() "
                           "must run first")
    return _store


def _stats_delta(before: Dict[str, int], after: Counter
                 ) -> Dict[str, int]:
    out = {}
    for name, value in after.as_dict().items():
        delta = value - before.get(name, 0)
        if delta:
            out[name] = delta
    return out


def _cached_ir(store: ArtifactStore, key: str) -> Optional[Any]:
    ir = _ir_cache.get(key)
    if ir is not None:
        _ir_cache.move_to_end(key)
        store.stats.incr("ir_cache_hits")
        return ir
    ir = facade.load_artifact(store, key)
    if ir is not None:
        _ir_cache[key] = ir
        while len(_ir_cache) > IR_CACHE_SIZE:
            _ir_cache.popitem(last=False)
    return ir


def _cached_smallest(store: ArtifactStore, key: str) -> Optional[Any]:
    """The smallest certified variant for ``key`` as ``(ir,
    forgotten)``, cached under ``key@opt`` so the ranking and variant
    parse are paid once per worker."""
    slot = f"{key}@opt"
    entry = _ir_cache.get(slot)
    if entry is not None:
        _ir_cache.move_to_end(slot)
        store.stats.incr("ir_cache_hits")
        return entry
    smallest = store.load_smallest(key)
    if smallest is None:
        return None
    ir, info = smallest
    entry = (ir, frozenset(info.get("forgotten", ())))
    _ir_cache[slot] = entry
    while len(_ir_cache) > IR_CACHE_SIZE:
        _ir_cache.popitem(last=False)
    return entry


def run_compile(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Compile a ticket into the shared store (worker side).

    ``payload`` is a :meth:`CompileTicket.as_wire` dict plus optional
    ``deadline_s`` / ``max_nodes`` caps.  Returns a status dict:
    ``ok`` (artifact stored, possibly warm), ``bounds`` (budget
    expired → certified interval), ``invalid`` or ``error``.
    """
    store = _require_store()
    before = dict(store.stats.as_dict())
    try:
        ticket = facade.CompileTicket(
            key=payload["key"], num_vars=payload["num_vars"],
            dimacs=payload["dimacs"], config=payload["config"])
        outcome = facade.compile_or_bounds(
            ticket, store,
            deadline_s=payload.get("deadline_s"),
            max_nodes=payload.get("max_nodes"),
            optimize=bool(payload.get("optimize", False)),
            proof=bool(payload.get("proof", False)))
        reply = outcome.as_wire()
    except ValueError as error:
        reply = {"status": "invalid", "error": str(error)}
    except Exception as error:  # never poison the pool
        reply = {"status": "error",
                 "error": f"{type(error).__name__}: {error}"}
    reply["pid"] = os.getpid()
    reply["store_stats"] = _stats_delta(before, store.stats)
    return reply


def run_query(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Answer one query on a stored artifact (worker side)."""
    store = _require_store()
    before = dict(store.stats.as_dict())
    try:
        forgotten: Any = frozenset()
        if payload.get("optimize"):
            entry = _cached_smallest(store, payload["key"])
            ir = entry[0] if entry is not None else None
            if entry is not None:
                forgotten = entry[1]
        else:
            ir = _cached_ir(store, payload["key"])
        if ir is None:
            reply: Dict[str, Any] = {"status": "not_found",
                                     "error": "unknown artifact key "
                                              + payload["key"]}
        elif payload["query"] == "explain":
            deadline = payload.get("deadline_s")
            budget = Budget(deadline_s=deadline) if deadline else None
            reply = facade.explain_ir(
                ir, payload["instance"], limit=payload.get("limit"),
                smallest=bool(payload.get("smallest", False)),
                budget=budget, forgotten=forgotten)
            # anytime degradation: an expired budget is still a 200
            # with complete=false + partial, never a 408
            reply["status"] = "ok"
        else:
            deadline = payload.get("deadline_s")
            budget = Budget(deadline_s=deadline) if deadline else None
            reply = facade.query_ir(
                ir, payload["query"], num_vars=payload.get("num_vars"),
                weights=payload.get("weights"),
                weight_batch=payload.get("weight_batch"), budget=budget,
                codegen_store=store, forgotten=forgotten)
            reply["status"] = "ok"
            result = reply.get("result")
            if isinstance(result, int) and not isinstance(result, bool):
                # counts can exceed JSON number precision; send text
                reply["result"] = str(result)
            if "count" in reply:
                reply["count"] = str(reply["count"])
    except BudgetExceeded as error:
        reply = {"status": "budget_exceeded", "error": str(error),
                 "reason": error.reason}
    except ValueError as error:
        reply = {"status": "invalid", "error": str(error)}
    except Exception as error:
        reply = {"status": "error",
                 "error": f"{type(error).__name__}: {error}"}
    reply["pid"] = os.getpid()
    reply["store_stats"] = _stats_delta(before, store.stats)
    return reply




#: channel frame header: the byte length of the pickle that follows
_FRAME = struct.Struct("!I")

#: where this process's open descriptors are listed
_FD_DIR = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"

#: how long shutdown lets a busy worker finish before killing it
SHUTDOWN_GRACE_S = 5.0


def _release_inherited(keep: int) -> None:
    """Drop every descriptor a forked worker inherited, but stdio and
    its own channel ``keep``, so no child holds the listening socket,
    a client connection or another worker's channel open.

    Each one is pointed at ``/dev/null`` instead of being closed:
    objects copied from the parent still own those numbers and may
    close them later in this process, and by then a freed number could
    belong to one of the worker's own files.
    """
    inherited = [int(name) for name in os.listdir(_FD_DIR)]
    null = os.open(os.devnull, os.O_RDWR)
    for fd in inherited:
        if fd > 2 and fd not in (keep, null):
            os.dup2(null, fd)
    os.close(null)


def _worker_main(channel: socket.socket, cache_root: str,
                 verify: bool) -> None:
    """A worker's whole life: answer framed jobs until the server
    closes the channel."""
    # the server owns shutdown: it closes the channel, which ends
    # this loop (a terminal's Ctrl-C reaches the whole process group)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _release_inherited(channel.fileno())
    init_worker(cache_root, verify)
    stream = channel.makefile("rb")
    while True:
        head = stream.read(_FRAME.size)
        if len(head) < _FRAME.size:
            return
        fn, payload = pickle.loads(stream.read(_FRAME.unpack(head)[0]))
        reply = pickle.dumps(fn(payload), pickle.HIGHEST_PROTOCOL)
        channel.sendall(_FRAME.pack(len(reply)) + reply)


def _reap(pid: int, grace_s: float = 0.0) -> None:
    """Wait for worker ``pid``, killing it after ``grace_s``."""
    deadline = time.monotonic() + grace_s
    try:
        while time.monotonic() < deadline:
            if os.waitpid(pid, os.WNOHANG)[0]:
                return
            time.sleep(0.01)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ChildProcessError, ProcessLookupError):
        pass  # already reaped


@dataclass(eq=False)
class _Channel:
    """One forked worker and the server's end of its socket pair."""

    pid: int
    sock: socket.socket
    writer: Optional[asyncio.StreamWriter] = None
    task: Optional[asyncio.Task[None]] = None
    #: the reply future of the job the worker is running, if any
    job: Optional[asyncio.Future[Dict[str, Any]]] = None
    alive: bool = True


class WorkerPool:
    """N forked workers over one shared artifact directory.

    With ``workers=0`` the same entry points run on an in-process
    thread pool instead (tests, single-core deployments) — one store
    handle, no pickling, and the event loop stays responsive.

    The channels attach to the event loop in :meth:`start`; from then
    on :meth:`call` runs on that loop.
    """

    def __init__(self, cache_root: str, workers: int = 2,
                 verify: bool = True) -> None:
        self.cache_root = cache_root
        self.workers = max(0, int(workers))
        self.verify = verify
        #: workers forked to replace one that died
        self.restarts = 0
        self._executor: Optional[ThreadPoolExecutor] = None
        self._idle: Optional[asyncio.Queue[_Channel]] = None
        if self.workers == 0:
            init_worker(cache_root, verify)
            self._executor = ThreadPoolExecutor(max_workers=2)
        # fork NOW, before the server's threads start, so a lazy
        # first fork does not bill one request for the pool startup
        self._channels: List[_Channel] = [
            self._fork() for _ in range(self.workers)]

    def _fork(self) -> _Channel:
        ours, theirs = socket.socketpair()
        pid = os.fork()
        if pid == 0:  # the worker; it never returns from here
            status = 1
            try:
                _worker_main(theirs, self.cache_root, self.verify)
                status = 0
            except Exception:
                traceback.print_exc()
            finally:
                os._exit(status)
        theirs.close()
        return _Channel(pid, ours)

    def live(self) -> int:
        """How many worker channels are up (0 on the thread pool)."""
        return sum(channel.alive for channel in self._channels)

    async def start(self) -> None:
        """Attach every worker channel to the running event loop."""
        self._idle = asyncio.Queue()
        for channel in self._channels:
            await self._attach(channel)

    async def _attach(self, channel: _Channel) -> None:
        assert self._idle is not None
        reader, channel.writer = await asyncio.open_connection(
            sock=channel.sock)
        channel.task = asyncio.create_task(
            self._read_replies(channel, reader))
        self._idle.put_nowait(channel)

    async def call(self, fn: Callable[[Dict[str, Any]], Dict[str, Any]],
                   payload: Dict[str, Any]) -> Dict[str, Any]:
        """``fn(payload)`` on a free worker."""
        loop = asyncio.get_running_loop()
        if self._executor is not None:
            return await loop.run_in_executor(self._executor, fn, payload)
        assert self._idle is not None, "WorkerPool.start() not awaited"
        channel = await self._idle.get()
        while not channel.alive:  # died while idle; its reader
            channel = await self._idle.get()  # queued a replacement
        assert channel.writer is not None
        job = channel.job = loop.create_future()
        message = pickle.dumps((fn, payload), pickle.HIGHEST_PROTOCOL)
        # no drain(): at most one message is ever in flight per
        # channel, and the reply cannot arrive before it is all sent
        channel.writer.write(_FRAME.pack(len(message)) + message)
        return await job

    async def _read_replies(self, channel: _Channel,
                            reader: asyncio.StreamReader) -> None:
        """Deliver each reply on ``channel`` and free the worker; on
        end-of-file, answer its job and replace it."""
        assert channel.writer is not None and self._idle is not None
        try:
            while True:
                head = await reader.readexactly(_FRAME.size)
                reply = pickle.loads(await reader.readexactly(
                    _FRAME.unpack(head)[0]))
                job, channel.job = channel.job, None
                # a cancelled caller leaves its job done; the worker
                # is free again only now that it has replied
                if job is not None and not job.done():
                    job.set_result(reply)
                self._idle.put_nowait(channel)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # the worker is gone
        except asyncio.CancelledError:
            channel.writer.close()  # the event loop is shutting down
            raise
        channel.alive = False
        channel.writer.close()
        if channel.job is not None and not channel.job.done():
            channel.job.set_result({
                "status": "unavailable",
                "error": f"worker {channel.pid} died; retry later"})
        _reap(channel.pid)
        self.restarts += 1
        replacement = self._fork()
        self._channels[self._channels.index(channel)] = replacement
        await self._attach(replacement)

    def shutdown(self) -> None:
        """Stop every worker: close the channels (an idle worker exits
        at once) and kill any still busy after a short grace."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
        for channel in self._channels:
            channel.sock.close()
        deadline = time.monotonic() + SHUTDOWN_GRACE_S
        for channel in self._channels:
            _reap(channel.pid, max(0.0, deadline - time.monotonic()))
        self._channels = []
