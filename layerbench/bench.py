"""The fixed-work pipeline: set-up, eight timed phases, checks, metrics.

A run is a fixed number of short *passes* over the whole pipeline
(scaled only by ``--seconds``).  Every pass runs every phase once —
the per-instance phases on one instance, the instances taking turns —
so each metric's samples are spread over the whole run instead of one
stretch of it: a second or two in which the machine runs faster or
slower moves a few samples, not a metric.  Pass 0 is warm-up and
discarded.  A timing metric is the median over instances of each
instance's median (``compile_s``: their geometric mean), after every
sample is scaled by its pass's machine-speed factor
(:meth:`Run.speed_factors`).

Answers are recorded while timing and checked at the end against
reference answers computed outside every timed region and outside
set-up.  With a :class:`~spans.Tracer` the same pipeline runs with
spans around each layer call, followed by the layer probes of
:mod:`layers`, and the run reports per-layer metrics instead.
"""

from __future__ import annotations

import gc
import math
import os
import random
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import families
from families import Instance
from serving import LoopResult, Request, ServerProcess, closed_loop
from spans import Tracer, maybe_span

from repro.explain.implicants import sufficient_reasons
from repro.ir import facade
from repro.ir.store import ArtifactStore
from repro.limits.anytime import anytime_count, anytime_wmc
from repro.limits.budget import Budget
from repro.logic.cnf import Cnf
from repro.sat.counter import ModelCounter
from repro.wmc.pipeline import WmcPipeline

#: ``--seconds`` value the base pass count is sized for
REFERENCE_SECONDS = 30
#: the calibration workload's time on the reference machine: timings
#: are scaled to it (see :meth:`Run.speed_factors`)
REFERENCE_CALIBRATION_S = 0.030
#: measured passes at the reference length (one warm-up pass on top)
PASSES = 16

#: per-pass operation counts, per instance
WMC_QUERIES = 8
BATCH_ROWS = 64
BATCH_CALLS = 1
MARGINAL_CALLS = {"bn_queries": 1, "random_3cnf": 2, "chains": 2}
EXPLAIN_LIMIT = 3
#: served reads per pass, over two connections
SERVE_QUERIES = 60
#: every this many passes the loop also compiles a fresh CNF (a write)
SERVE_WRITE_EVERY = 4
#: rows per instance checked against an unbudgeted anytime_wmc
REFERENCE_ROWS = 2
#: node budget of the anytime-bounds phase, per workload
ANYTIME_NODES = {"random_3cnf": 200, "bn_queries": 40, "chains": 40}
#: relative tolerance of float answers against their references
RTOL = 1e-9


@dataclass
class Ledger:
    """Operations attempted and failed, by operation and cause."""

    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)

    def check(self, op: str, ok: bool) -> None:
        self.attempted[op] += 1
        if not ok:
            self.failed[f"{op}:WrongAnswer"] += 1

    def as_dict(self) -> Dict[str, Any]:
        by_type: Counter = Counter()
        for key, value in self.failed.items():
            by_type[key.split(":", 1)[1]] += value
        return {"attempted": dict(self.attempted),
                "failed": dict(self.failed),
                "failed_by_type": dict(by_type)}


def close(value: float, expected: float) -> bool:
    return math.isclose(value, expected, rel_tol=RTOL, abs_tol=1e-300)


def med_of_meds(samples: Dict[str, List[float]]) -> float:
    return statistics.median(statistics.median(v)
                             for v in samples.values())


def geo_of_meds(samples: Dict[str, List[float]]) -> float:
    logs = [math.log(statistics.median(v)) for v in samples.values()]
    return math.exp(sum(logs) / len(logs))


def calibration_s() -> float:
    """Seconds for a fixed program-independent workload (pure-Python
    dict churn, then numpy gathers and reductions), best of two, with
    the collector off so the program's heap does not enter it."""
    values = np.arange(1, 200001, dtype=float)
    index = (np.arange(200000) * 7919) % 200000
    starts = np.arange(0, 200000, 4)
    best = math.inf
    gc.disable()
    try:
        for _ in range(2):
            start = time.perf_counter()
            table: Dict[Tuple[int, int], int] = {}
            for i in range(20000):
                key = ((i * 7919) % 1009, i & 7)
                table[key] = table.get(key, 0) + i
            for _ in range(10):
                np.add.reduceat(values[index], starts)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def uniform_weights(num_vars: int, value: float) -> Dict[int, float]:
    return {lit: value for v in range(1, num_vars + 1) for lit in (v, -v)}


class Samples:
    """Per-instance timings with the pass each was taken in; pass 0
    (warm-up) is not recorded."""

    def __init__(self) -> None:
        self._by_instance: Dict[str, List[Tuple[int, float]]] = {}

    def add(self, pass_no: int, name: str, value: float) -> None:
        if pass_no:
            self._by_instance.setdefault(name, []).append(
                (pass_no, value))

    def raw(self) -> Dict[str, List[float]]:
        return {name: [v for _, v in pairs]
                for name, pairs in self._by_instance.items()}

    def scaled(self, factors: List[float]) -> Dict[str, List[float]]:
        """Each sample times its pass's machine-speed factor."""
        return {name: [v * factors[p] for p, v in pairs]
                for name, pairs in self._by_instance.items()}


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 root: Path, tracer: Optional[Tracer]) -> None:
        if workload not in families.WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; expected "
                             f"one of {list(families.WORKLOADS)}")
        self.workload = workload
        self.seed = seed
        # at least 4 measured passes: every instance takes a turn
        self.passes = 1 + max(4, round(PASSES * seconds
                                       / REFERENCE_SECONDS))
        #: the passes that start with an extra, timed set-up
        self.setup_passes = (self.passes // 3, 2 * self.passes // 3)
        self.src = root / "src"
        self.tracer = tracer
        self.rng = random.Random(f"{workload}:{seed}:queries")
        self.insts = families.instances(workload, seed)
        self.work = root / ".layerbench_work" / \
            f"{workload}-{seed}-{os.getpid()}"
        self.store_dir = self.work / "store"
        self.ledger = Ledger()
        self.server: Optional[ServerProcess] = None
        self.pipelines: Dict[str, WmcPipeline] = {}
        self.keys: Dict[str, str] = {}
        self.counts: Dict[str, int] = {}
        self.fingerprint: Dict[str, Any] = {}
        self.e2e: Dict[str, Dict[str, Any]] = {}
        self.layer: Dict[str, Dict[str, Any]] = {}
        self._stores = 0
        # timings, per phase
        self.setup_times: List[float] = []
        #: calibration time before pass 0 and after every pass
        self.calibration: List[float] = []
        self.samples_compile = Samples()
        self.samples_prove = Samples()
        self.samples_count = Samples()
        self.samples_first = Samples()
        self.samples_wmc = Samples()
        self.samples_batch = Samples()
        self.samples_marginals = Samples()
        self.samples_explain = Samples()
        # answers, checked at the end
        self.compiled: List[Tuple[Instance, ArtifactStore, str]] = []
        self.nodes: Dict[str, set] = {}
        self.proved: Dict[str, Tuple[ArtifactStore, str]] = {}
        self.proof_verdicts: List[Optional[bool]] = []
        self.count_answers: List[Tuple[Instance, int]] = []
        self.count_stats: Dict[str, Dict[str, int]] = {}
        self.bounds: Dict[str, set] = {}
        self.first_answers: List[Tuple[Instance, int, float]] = []
        self.wmc_answers: Dict[str, Dict[int, float]] = {}
        self.batch_answers: List[Tuple[str, int, List[float]]] = []
        #: (instance, the CNF the circuit was compiled from, answer)
        self.marginal_answers: List[Tuple[Instance, Cnf, Any]] = []
        self.reasons: List[Tuple[Instance, List[List[int]]]] = []
        self.serve_loop = LoopResult()
        self.serve_passes: List[Tuple[int, LoopResult]] = []

    # -- helpers -------------------------------------------------------------
    def fresh_store(self) -> ArtifactStore:
        self._stores += 1
        return ArtifactStore(self.work / f"s{self._stores}")

    def span(self, name: str, **attrs: Any) -> Any:
        return maybe_span(self.tracer, name, **attrs)

    def pick(self, pass_no: int, offset: int = 0,
             count: int = 1) -> List[Instance]:
        """The instances a per-instance phase runs in this pass: they
        take turns, and phases start at different offsets."""
        return [self.insts[(pass_no + offset + k) % len(self.insts)]
                for k in range(count)]

    # -- set-up ----------------------------------------------------------------
    def setup_once(self, store_dir: Path, keep: bool) -> float:
        """Fill an empty store with the query set through a fresh
        ``repro serve`` and build the BN pipelines; returns seconds."""
        start = time.perf_counter()
        server = ServerProcess(self.src, store_dir)
        try:
            pipelines = {inst.name: WmcPipeline(inst.network)
                         for inst in self.insts
                         if inst.network is not None}
            for pipeline in pipelines.values():
                pipeline.arithmetic_circuit  # the lazily built AC view
            loop = closed_loop(server.host, server.port, [
                [Request("compile", {"dimacs": inst.dimacs})
                 for inst in self.insts[j::2]] for j in range(2)])
            elapsed = time.perf_counter() - start
            if not loop.all_ok():
                raise RuntimeError(f"set-up compiles failed: "
                                   f"{loop.failures()}")
        except BaseException:
            server.stop()
            raise
        if keep:
            self.server = server
            self.pipelines = pipelines
        else:
            server.stop()
        return elapsed

    def prepare(self) -> None:
        """Untimed: keys, warm circuits, query rows, fixed models, and
        fresh circuits for the first-query phase."""
        assert self.server is not None
        store = ArtifactStore(self.store_dir)
        self.irs = {}
        for inst in self.insts:
            self.keys[inst.name] = facade.compile_ticket(inst.dimacs).key
            ir = facade.load_artifact(store, self.keys[inst.name])
            if ir is None:
                raise RuntimeError(f"{inst.name} missing from the store")
            self.irs[inst.name] = ir
        self.fingerprint["circuit_edges"] = sum(
            ir.edge_count() for ir in self.irs.values())
        rows = max(self.passes * WMC_QUERIES, BATCH_ROWS * 2)
        self.rows = {inst.name: families.weight_rows(inst, self.rng, rows)
                     for inst in self.insts}
        self.models = {}
        for inst in self.insts:
            self.models[inst.name] = []
            for row in self.rows[inst.name][:self.passes]:
                out = facade.query_ir(self.irs[inst.name], "mpe",
                                      weights=row,
                                      num_vars=inst.cnf.num_vars)
                self.models[inst.name].append(
                    {int(v): s for v, s in out["model"].items()})
        if self.workload == "bn_queries":
            self.evidence = {inst.name: families.evidence_rows(
                inst, self.rng, BATCH_ROWS) for inst in self.insts}
        # two fresh circuits per pass, compiled by the server so this
        # process has never seen them
        copies = families.fresh_writes(
            self.workload, self.seed + 7919,
            len(self.insts) * self.passes)
        self.first_copies: Dict[Tuple[int, str], Tuple[str, Any]] = {}
        requests = []
        for p in range(self.passes):
            for inst in self.pick(p, offset=3, count=2):
                index = self.insts.index(inst)
                cnf = copies[p * len(self.insts) + index]
                dimacs = cnf.to_dimacs()
                self.first_copies[(p, inst.name)] = (
                    facade.compile_ticket(dimacs).key, cnf)
                requests.append(Request("compile", {"dimacs": dimacs}))
        loop = closed_loop(self.server.host, self.server.port,
                           [requests[0::2], requests[1::2]])
        if not loop.all_ok():
            raise RuntimeError(f"first-query compiles failed: "
                               f"{loop.failures()}")
        self.serve_plan = self.serve_requests()

    # -- phase 1: cold compile -----------------------------------------------
    def pass_compile(self, p: int) -> None:
        for inst in self.pick(p):
            store = self.fresh_store()
            with self.span("compile", instance=inst.name):
                start = time.perf_counter()
                ticket = facade.compile_ticket(inst.dimacs)
                outcome = facade.compile_to_store(ticket, store)
                elapsed = time.perf_counter() - start
            self.samples_compile.add(p, inst.name, elapsed)
            self.compiled.append((inst, store, ticket.key))
            self.nodes.setdefault(inst.name, set()).add(
                outcome.circuit_nodes)

    # -- phase 2: proof-mode compile -----------------------------------------
    def pass_prove(self, p: int) -> None:
        for inst in self.pick(p, offset=1):
            store = self.fresh_store()
            with self.span("prove", instance=inst.name):
                start = time.perf_counter()
                ticket = facade.compile_ticket(inst.dimacs)
                outcome = facade.compile_to_store(ticket, store,
                                                  proof=True)
                elapsed = time.perf_counter() - start
            self.samples_prove.add(p, inst.name, elapsed)
            self.proof_verdicts.append(outcome.proved)
            self.proved[inst.name] = (store, ticket.key)

    # -- phase 3: #SAT -------------------------------------------------------
    def pass_count(self, p: int) -> None:
        for inst in self.pick(p, offset=2, count=2):
            counter = ModelCounter()
            with self.span("count", instance=inst.name):
                start = time.perf_counter()
                count = counter.count(inst.cnf)
                elapsed = time.perf_counter() - start
            self.samples_count.add(p, inst.name, elapsed)
            self.count_answers.append((inst, count))
            snapshot = counter.stats.as_dict()
            if self.count_stats.setdefault(inst.name, snapshot) \
                    != snapshot:
                raise RuntimeError(f"count of {inst.name} is not "
                                   f"deterministic")

    # -- phase 4: anytime bounds ---------------------------------------------
    def pass_anytime(self, p: int) -> None:
        nodes = ANYTIME_NODES[self.workload]
        for inst in self.pick(p):
            with self.span("anytime", instance=inst.name):
                result = anytime_count(inst.cnf, Budget(max_nodes=nodes))
            self.bounds.setdefault(inst.name, set()).add(
                (int(result.lower), int(result.upper), result.nodes))

    # -- phase 5: fresh-load first query ---------------------------------------
    def pass_first_query(self, p: int) -> None:
        for inst in self.pick(p, offset=3, count=2):
            key, cnf = self.first_copies[(p, inst.name)]
            weights = uniform_weights(cnf.num_vars, 0.5)
            with self.span("first_query", instance=inst.name):
                start = time.perf_counter()
                store = ArtifactStore(self.store_dir)
                with self.span("store.load", instance=inst.name):
                    ir = facade.load_artifact(store, key)
                if self.tracer is not None:
                    from repro.ir.kernel import ir_kernel
                    with self.span("kernel.load", instance=inst.name):
                        ir_kernel(ir)
                with self.span("kernel.plan", instance=inst.name):
                    value = facade.query_ir(ir, "wmc", weights=weights,
                                            num_vars=cnf.num_vars)
                elapsed = time.perf_counter() - start
            self.samples_first.add(p, inst.name, elapsed)
            self.first_answers.append((inst, cnf.num_vars,
                                       value["result"]))
            if self.tracer is not None and inst.network is None:
                # the first marginals pass on a circuit: nothing
                # memoised yet (traced run, CNF workloads)
                with self.span("kernel.marginals", instance=inst.name,
                               edges=ir.edge_count(), rows=1):
                    out = facade.query_ir(ir, "marginals",
                                          num_vars=cnf.num_vars)
                self.marginal_answers.append((inst, cnf, out))

    # -- phase 6: WMC ----------------------------------------------------------
    def pass_wmc(self, p: int) -> None:
        for q in range(p * WMC_QUERIES, (p + 1) * WMC_QUERIES):
            for inst in self.insts:
                row = self.rows[inst.name][q]
                with self.span("facade.wmc", instance=inst.name):
                    start = time.perf_counter()
                    out = facade.query_ir(self.irs[inst.name], "wmc",
                                          weights=row,
                                          num_vars=inst.cnf.num_vars)
                    elapsed = time.perf_counter() - start
                self.samples_wmc.add(p, inst.name, elapsed)
                self.wmc_answers.setdefault(inst.name, {})[q] = \
                    out["result"]

    def pass_batch(self, p: int) -> None:
        starts = len(self.rows[self.insts[0].name]) - BATCH_ROWS + 1
        for call in range(BATCH_CALLS):
            lo = ((p * BATCH_CALLS + call) * BATCH_ROWS) % starts
            for inst in self.insts:
                batch = self.rows[inst.name][lo:lo + BATCH_ROWS]
                with self.span("facade.wmc_batch", instance=inst.name):
                    start = time.perf_counter()
                    out = facade.query_ir(self.irs[inst.name], "wmc",
                                          weight_batch=batch,
                                          num_vars=inst.cnf.num_vars)
                    elapsed = time.perf_counter() - start
                self.samples_batch.add(p, inst.name,
                                       elapsed / BATCH_ROWS)
                self.batch_answers.append((inst.name, lo, out["result"]))

    def pass_marginals(self, p: int) -> None:
        for _ in range(MARGINAL_CALLS[self.workload]):
            for inst in self.insts:
                if inst.network is not None:
                    pipeline = self.pipelines[inst.name]
                    with self.span("wmc.marginals_batch",
                                   instance=inst.name,
                                   edges=pipeline.circuit_size(),
                                   rows=BATCH_ROWS):
                        start = time.perf_counter()
                        out = pipeline.marginals_batch(
                            self.evidence[inst.name])
                        elapsed = time.perf_counter() - start
                    self.samples_marginals.add(p, inst.name,
                                               elapsed / BATCH_ROWS)
                else:
                    with self.span("facade.marginals",
                                   instance=inst.name):
                        start = time.perf_counter()
                        out = facade.query_ir(
                            self.irs[inst.name], "marginals",
                            num_vars=inst.cnf.num_vars)
                        elapsed = time.perf_counter() - start
                    self.samples_marginals.add(p, inst.name, elapsed)
                self.marginal_answers.append((inst, inst.cnf, out))

    # -- phase 7: sufficient reasons ---------------------------------------
    def pass_explain(self, p: int) -> None:
        for inst in self.pick(p, offset=1):
            model = self.models[inst.name][p]
            with self.span("explain", instance=inst.name):
                start = time.perf_counter()
                out = sufficient_reasons(self.irs[inst.name], model,
                                         limit=EXPLAIN_LIMIT)
                elapsed = time.perf_counter() - start
            found = out["reasons"]
            self.samples_explain.add(p, inst.name, len(found) / elapsed)
            self.reasons.append((inst, found))
            if self.tracer is not None:
                self.tracer.spans[-1]["probes"] = out["probes"]
                self.tracer.spans[-1]["reasons"] = len(found)

    # -- phase 8: served closed loop ----------------------------------------
    def serve_requests(self) -> List[List[List[Request]]]:
        """Per pass, two request streams of WMC and count reads on the
        query set; every ``SERVE_WRITE_EVERY`` passes one of them also
        compiles a fresh CNF (a write to the shared store) and reads
        its count."""
        writes = families.fresh_writes(
            self.workload, self.seed, self.passes // SERVE_WRITE_EVERY + 1)
        plan = []
        for p in range(self.passes):
            streams: List[List[Request]] = [[], []]
            for i in range(SERVE_QUERIES):
                inst = self.insts[i % len(self.insts)]
                body: Dict[str, Any] = {
                    "key": self.keys[inst.name],
                    "num_vars": inst.cnf.num_vars}
                if i % 8 == 7:
                    body["query"] = "count"
                    streams[i % 2].append(Request("count", body,
                                                  (inst.name,)))
                else:
                    r = (i // len(self.insts) + p) % REFERENCE_ROWS
                    body["query"] = "wmc"
                    body["weights"] = {
                        str(k): v for k, v in
                        self.rows[inst.name][r].items()}
                    streams[i % 2].append(Request("wmc", body,
                                                  (inst.name, r)))
            if p % SERVE_WRITE_EVERY == SERVE_WRITE_EVERY // 2:
                w = p // SERVE_WRITE_EVERY
                # fresh_writes copies base instance w mod len(insts)
                base = self.insts[w % len(self.insts)]
                cnf = writes[w]
                dimacs = cnf.to_dimacs()
                key = facade.compile_ticket(dimacs).key
                stream = streams[w % 2]
                at = len(stream) // 2
                stream[at:at] = [
                    Request("compile", {"dimacs": dimacs}, (key,)),
                    Request("count", {"key": key, "query": "count",
                                      "num_vars": cnf.num_vars},
                            (base.name,))]
            plan.append(streams)
        return plan

    def pass_serve(self, p: int) -> None:
        assert self.server is not None
        loop = closed_loop(self.server.host, self.server.port,
                           self.serve_plan[p])
        if self.tracer is not None:
            for kind, start, end in loop.timings:
                self.tracer.record("serve.request", start, end,
                                   kind=kind, warmup=not p)
        if p:
            self.serve_loop.merge(loop)
            self.serve_passes.append((p, loop))
        elif not loop.all_ok():
            raise RuntimeError(f"serve warm-up pass failed: "
                               f"{loop.failures()}")

    # -- checks (untimed) ----------------------------------------------------
    def reference_counts(self) -> None:
        """Model counts replayed by the independent proof checker."""
        from repro.proof.checker import check_proof
        trace_bytes = 0
        for inst in self.insts:
            store, key = self.proved[inst.name]
            trace = store.load_proof(key)
            if trace is None:
                raise RuntimeError(f"no proof trace for {inst.name}")
            trace_bytes += len(trace.encode())
            result = check_proof(inst.dimacs, trace)
            if not result.proved or result.model_count is None:
                raise RuntimeError(f"proof of {inst.name} not proved: "
                                   f"{result.as_wire()}")
            count = int(result.model_count)
            if inst.known_count is not None and count != inst.known_count:
                raise RuntimeError(f"{inst.name}: checker count {count} "
                                   f"!= known {inst.known_count}")
            self.counts[inst.name] = count
        self.fingerprint["proof.trace_bytes"] = trace_bytes

    def check_answers(self) -> None:
        ledger = self.ledger
        for inst, store, key in self.compiled:
            ir = facade.load_artifact(store, key)
            ledger.check("compile", ir is not None and int(facade.query_ir(
                ir, "count", num_vars=inst.cnf.num_vars)["result"])
                == self.counts[inst.name])
        for name, seen in self.nodes.items():
            if len(seen) != 1:
                raise RuntimeError(f"compile of {name} is not "
                                   f"deterministic: {seen}")
        self.fingerprint["compile.nnf_nodes"] = sum(
            next(iter(v)) for v in self.nodes.values())
        for verdict in self.proof_verdicts:
            ledger.check("prove", verdict is True)
        for inst, count in self.count_answers:
            ledger.check("count", count == self.counts[inst.name])
        self.fingerprint["sat.decisions"] = sum(
            s.get("decisions", 0) for s in self.count_stats.values())
        widths = []
        for inst in self.insts:
            bounds = self.bounds[inst.name]
            if len(bounds) != 1:
                raise RuntimeError(f"anytime on {inst.name} is not "
                                   f"deterministic: {bounds}")
            lower, upper, _ = next(iter(bounds))
            ledger.check("anytime",
                         lower <= self.counts[inst.name] <= upper)
            widths.append((upper - lower) / 2 ** inst.cnf.num_vars)
        self.fingerprint["anytime_width"] = statistics.fmean(widths)
        self.fingerprint["anytime.nodes"] = sum(
            next(iter(b))[2] for b in self.bounds.values())
        for inst, num_vars, value in self.first_answers:
            ledger.check("first_query", close(
                value, self.counts[inst.name] * 0.5 ** num_vars))
        self.row_refs = {inst.name: [
            float(anytime_wmc(inst.cnf, row).lower)
            for row in self.rows[inst.name][:REFERENCE_ROWS]]
            for inst in self.insts}
        for inst in self.insts:
            answers = self.wmc_answers[inst.name]
            for r, ref in enumerate(self.row_refs[inst.name]):
                if r in answers:
                    ledger.check("wmc", close(answers[r], ref))
        for name, lo, values in self.batch_answers:
            scalar = self.wmc_answers[name]
            ledger.check("wmc_batch", all(
                math.isclose(v, scalar[lo + j], rel_tol=1e-6)
                for j, v in enumerate(values) if lo + j in scalar))
        self.check_marginals()
        self.check_reasons(self.reasons)
        self.check_served()

    def check_marginals(self) -> None:
        if self.workload == "bn_queries":
            from repro.bayesnet.elimination import posterior
            for inst, _, out in self.marginal_answers[:len(self.insts)]:
                row = self.evidence[inst.name][0]
                names = [v for v in inst.network.variables
                         if v not in row]
                ok = len(out) == BATCH_ROWS
                for name in self.rng.sample(names, 4):
                    factor = posterior(inst.network, [name], row)
                    ok = ok and all(math.isclose(
                        out[0][name][s], float(factor.values[s]),
                        rel_tol=1e-6) for s in (0, 1))
                self.ledger.check("marginals", ok)
            for inst, _, out in self.marginal_answers[len(self.insts):]:
                self.ledger.check("marginals", len(out) == BATCH_ROWS)
            return
        chosen = {inst.name: self.rng.choice(sorted(
            {abs(lit) for c in inst.cnf.clauses for lit in c}))
            for inst in self.insts}
        positives: Dict[int, int] = {}  # id(cnf) -> models with var
        for inst, cnf, out in self.marginal_answers:
            var = chosen[inst.name]
            if id(cnf) not in positives:
                weights = uniform_weights(cnf.num_vars, 1.0)
                weights[-var] = 0.0
                positives[id(cnf)] = int(anytime_wmc(cnf, weights).lower)
            positive = positives[id(cnf)]
            total = int(out["count"])
            ok = total == self.counts[inst.name] and all(
                int(neg) + int(pos) == total
                for neg, pos in out["result"].values())
            pair = out["result"].get(str(var))
            # a variable the circuit does not mention is free
            got = int(pair[1]) if pair is not None else total // 2
            self.ledger.check("marginals", ok and got == positive)

    def check_reasons(self, found: List[Tuple[Instance, List[List[int]]]]
                      ) -> None:
        """Each reason t: count(cnf | t) == 2^(free variables)."""
        for inst, reasons in found:
            self.ledger.check("explain", bool(reasons))
            for reason in reasons:
                term = {abs(lit): lit > 0 for lit in reason}
                count = ModelCounter().count(inst.cnf.condition(term))
                free = inst.cnf.num_vars - len(term)
                self.ledger.check("explain",
                                  count >> len(term) == 2 ** free)

    def check_served(self) -> None:
        for request, status, reply in self.serve_loop.replies:
            if request.kind == "compile":
                ok = status == 200 and reply.get("status") == "ok" and \
                    reply.get("key") == request.ref[0]
            elif request.kind == "count":
                ok = status == 200 and reply.get("result") == \
                    str(self.counts[request.ref[0]])
            else:
                name, r = request.ref
                ok = status == 200 and close(
                    float(reply.get("result", -1.0)),
                    self.row_refs[name][r])
            self.ledger.check(f"serve_{request.kind}", ok)
        for kind, error in self.serve_loop.errors:
            self.ledger.attempted[f"serve_{kind}"] += 1
            self.ledger.failed[f"serve_{kind}:{error}"] += 1

    # -- metrics ---------------------------------------------------------------
    def speed_factors(self) -> List[float]:
        """Per pass, the reference calibration time over this machine's
        calibration time around the pass (the mean of the readings
        before and after it).  Multiplying a timing by its pass's
        factor gives the time on the reference machine, so a machine
        that runs 30% slower for a minute does not read as a slower
        program."""
        cal = self.calibration
        return [2 * REFERENCE_CALIBRATION_S / (cal[p] + cal[p + 1])
                for p in range(self.passes)]

    def end_to_end(self, peak_rss_kb: int) -> None:
        """End-to-end metrics, times scaled by :meth:`speed_factors`;
        the unscaled values go to :attr:`raw_e2e`."""
        factors = self.speed_factors()
        e2e, raw = self.e2e, {}
        # set-up 0 ran before pass 0, the others at the start of theirs
        setup_factors = [factors[0]] + [factors[p] for p in self.setup_passes]
        e2e["setup_s"] = metric(statistics.median(
            t * f for t, f in zip(self.setup_times, setup_factors)), "s")
        raw["setup_s"] = metric(statistics.median(self.setup_times), "s")
        for name, samples, aggregate in (
                ("compile_s", self.samples_compile, geo_of_meds),
                ("prove_s", self.samples_prove, med_of_meds),
                ("count_s", self.samples_count, med_of_meds),
                ("first_query_s", self.samples_first, med_of_meds)):
            e2e[name] = metric(aggregate(samples.scaled(factors)), "s")
            raw[name] = metric(aggregate(samples.raw()), "s")
        e2e["anytime_width"] = metric(self.fingerprint["anytime_width"],
                                      "fraction")
        e2e["circuit_edges"] = metric(self.fingerprint["circuit_edges"],
                                      "count")
        scaled_lat = [t * factors[p] for p, loop in self.serve_passes
                      for t in loop.query_latencies()]
        scaled_wall = sum(loop.wall_s * factors[p]
                          for p, loop in self.serve_passes)
        queries = self.serve_loop.query_latencies()
        e2e["serve_p50_ms"] = metric(statistics.median(scaled_lat) * 1e3,
                                     "ms")
        e2e["serve_qps"] = metric(len(queries) / scaled_wall, "req/s")
        raw["serve_p50_ms"] = metric(statistics.median(queries) * 1e3,
                                     "ms")
        raw["serve_qps"] = metric(len(queries) / self.serve_loop.wall_s,
                                  "req/s")
        e2e["peak_rss_mb"] = metric(peak_rss_kb / 1024.0, "MB")
        self.raw_e2e = raw
        # in-process query rates vary by more than 25% from run to run
        # on a shared 2-core machine: reported with the layers instead
        self.query_rates = {
            "wmc_qps": metric(1.0 / med_of_meds(self.samples_wmc.raw()),
                              "queries/s"),
            "wmc_batch_rows_per_s": metric(
                1.0 / med_of_meds(self.samples_batch.raw()), "rows/s"),
            "marginals_rows_per_s": metric(
                1.0 / med_of_meds(self.samples_marginals.raw()),
                "rows/s"),
            "explain_reasons_per_s": metric(
                med_of_meds(self.samples_explain.raw()), "reasons/s")}

    # -- the depth probe (chains) --------------------------------------------
    def depth_probe(self) -> Dict[str, Any]:
        """parity_chain(1200) through compile and count: attempted
        and checked, never timed (ROADMAP item 5)."""
        probe = families.depth_probe()

        def compiled_count() -> int:
            store = self.fresh_store()
            outcome = facade.compile_to_store(
                facade.compile_ticket(probe.dimacs), store)
            ir = facade.load_artifact(store, outcome.key)
            return int(facade.query_ir(ir, "count",
                                       num_vars=probe.cnf.num_vars)
                       ["result"])

        failed: Counter = Counter()
        steps = (("compile", compiled_count),
                 ("count", lambda: ModelCounter().count(probe.cnf)))
        for name, step in steps:
            try:
                if step() != probe.known_count:
                    failed[f"{name}:WrongAnswer"] += 1
            except Exception as error:  # recorded, the run goes on
                failed[f"{name}:{type(error).__name__}"] += 1
        return {"attempted": len(steps), "failed": dict(failed)}

    # -- driver ------------------------------------------------------------
    def execute(self) -> Dict[str, Any]:
        """The whole run; returns the depth probe's outcome."""
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            self.setup_times.append(
                self.setup_once(self.store_dir, keep=True))
            self.prepare()
            stats_before = self.server_stats()
            self.calibration.append(calibration_s())
            for p in range(self.passes):
                if p in self.setup_passes:
                    self.setup_times.append(self.setup_once(
                        self.work / f"setup{p}", keep=False))
                self.pass_compile(p)
                self.pass_prove(p)
                self.pass_count(p)
                self.pass_anytime(p)
                self.pass_first_query(p)
                self.pass_wmc(p)
                self.pass_batch(p)
                self.pass_marginals(p)
                self.pass_explain(p)
                self.pass_serve(p)
                self.calibration.append(calibration_s())
            self.serve_stats = (stats_before, self.server_stats())
            peak_rss_kb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
            self.reference_counts()
            self.check_answers()
            self.end_to_end(peak_rss_kb)
            if self.tracer is not None:
                import layers
                self.layer = layers.probe(self)
            probe: Dict[str, Any] = {"attempted": 0, "failed": {}}
            if self.workload == "chains":
                probe = self.depth_probe()
        finally:
            if self.server is not None:
                self.server.stop()
            shutil.rmtree(self.work, ignore_errors=True)
        return probe

    def calibration_ms(self) -> float:
        """Median over passes of the fixed calibration workload: how
        fast the machine ran during this run (lower is faster)."""
        return statistics.median(self.calibration) * 1e3

    def server_stats(self) -> Dict[str, Any]:
        from repro.serve.client import ServeClient
        assert self.server is not None
        client = ServeClient(self.server.host, self.server.port)
        try:
            return client.stats()
        finally:
            client.close()
