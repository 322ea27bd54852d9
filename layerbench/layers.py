"""The traced run's layer probes and per-layer metrics.

After the pipeline ran with spans, these probes call each layer's
public function on its own — the steps ``compile_to_store`` chains
together, the kernel without the facade, each serve hop outside the
server — so that every end-to-end timing can be split by layer with a
signed unattributed remainder.  All numbers come from the tracer's
spans; per-instance medians, then the median over instances.
"""

from __future__ import annotations

import json
import math
import pickle
import statistics
import time
from typing import Any, Dict, List

from bench import BATCH_ROWS, EXPLAIN_LIMIT, Run, close, metric
from spans import Tracer

from repro.analyze.certify import certify
from repro.compile.dnnf_compiler import DnnfCompiler
from repro.explain.implicants import iter_sufficient_reasons
from repro.ir import facade
from repro.ir.core import FLAG_DECOMPOSABLE, FLAG_DETERMINISTIC
from repro.ir.kernel import ir_kernel, pack_weight_batch
from repro.ir.lower import nnf_to_ir
from repro.proof.checker import check_proof
from repro.serve import pool
from repro.serve.protocol import parse_query_request
from repro.wmc.pipeline import WmcPipeline

#: repetitions of each layer call per instance (first one discarded)
LAYER_ROUNDS = 4
KERNEL_CALLS = 32
SERVE_HOP_CALLS = 200

FLAGS = FLAG_DECOMPOSABLE | FLAG_DETERMINISTIC


def _per_instance(tracer: Tracer, name: str) -> Dict[str, float]:
    return {inst: statistics.median(values[1:] or values)
            for inst, values in tracer.durations(name).items()}


def _median(values: Any) -> float:
    return float(statistics.median(list(values)))


def compile_layers(run: Run, tracer: Tracer) -> Dict[str, Any]:
    """ticket → search → lower → save, each on its own, against the
    whole ``compile_to_store`` call timed in the same rounds."""
    sizes: Dict[str, int] = {}
    stored_bytes: Dict[str, int] = {}
    for _ in range(LAYER_ROUNDS):
        for inst in run.insts:
            attrs = {"instance": inst.name}
            with tracer.span("compile.ticket", **attrs):
                ticket = facade.compile_ticket(inst.dimacs)
            with tracer.span("compile.search_build", **attrs):
                root = DnnfCompiler(store=None).compile(inst.cnf)
            with tracer.span("lower", **attrs):
                ir = nnf_to_ir(root, flags=FLAGS)
            fresh = nnf_to_ir(root, flags=FLAGS, intern=False)
            with tracer.span("certify", **attrs):
                certify(fresh, flags=FLAGS)
            store = run.fresh_store()
            with tracer.span("store.save", **attrs):
                store.save_nnf(ticket.key, ir)
            # the whole call, in the same rounds as its parts
            with tracer.span("compile.total", **attrs):
                outcome = facade.compile_to_store(
                    facade.compile_ticket(inst.dimacs), run.fresh_store())
            run.ledger.check("compile", outcome.circuit_nodes
                             in run.nodes[inst.name])
            sizes[inst.name] = ir.edge_count()
            stored_bytes[inst.name] = sum(
                p.stat().st_size for p in store.root.rglob("*")
                if p.is_file())
    total = _per_instance(tracer, "compile.total")
    parts = ("compile.ticket", "compile.search_build", "lower",
             "store.save")
    part_med = {name: _per_instance(tracer, name) for name in parts}
    unattributed = [total[i] - sum(part_med[p][i] for p in parts)
                    for i in total]
    lower = _per_instance(tracer, "lower")
    return {
        "compile.ticket_s": metric(_median(part_med["compile.ticket"]
                                           .values()), "s"),
        "compile.search_build_s": metric(_median(
            part_med["compile.search_build"].values()), "s"),
        "compile.nnf_nodes": metric(run.fingerprint["compile.nnf_nodes"],
                                    "count"),
        "lower.s": metric(_median(lower.values()), "s"),
        "lower.ns_per_edge": metric(_median(
            lower[i] / sizes[i] * 1e9 for i in lower), "ns"),
        "certify.s": metric(tracer.median("certify"), "s"),
        "store.save_s": metric(_median(part_med["store.save"].values()),
                               "s"),
        "store.load_s": metric(tracer.median("store.load"), "s"),
        "store.bytes_per_edge": metric(_median(
            stored_bytes[i] / sizes[i] for i in sizes), "B"),
        "compile.total_s": metric(_median(total.values()), "s"),
        "compile.unattributed_s": metric(_median(unattributed), "s"),
    }


def proof_layers(run: Run, tracer: Tracer) -> Dict[str, Any]:
    steps: Dict[str, int] = {}
    for _ in range(LAYER_ROUNDS):
        for inst in run.insts:
            store, key = run.proved[inst.name]
            trace = store.load_proof(key)
            with tracer.span("proof.check", instance=inst.name):
                result = check_proof(inst.dimacs, trace)
            run.ledger.check("proof_check", result.proved and
                             result.model_count == run.counts[inst.name])
            steps[inst.name] = result.steps
    check = _per_instance(tracer, "proof.check")
    compile_med = {k: statistics.median(v)
                   for k, v in run.samples_compile.raw().items()}
    prove_med = {k: statistics.median(v)
                 for k, v in run.samples_prove.raw().items()}
    return {
        "proof.check_s": metric(_median(check.values()), "s"),
        "proof.steps_per_s": metric(_median(
            steps[i] / check[i] for i in check), "steps/s"),
        "proof.trace_bytes": metric(run.fingerprint["proof.trace_bytes"],
                                    "B"),
        "proof.emit_overhead": metric(_median(
            (prove_med[i] - check[i]) / compile_med[i]
            for i in compile_med), "ratio"),
    }


def kernel_layers(run: Run, tracer: Tracer) -> Dict[str, Any]:
    """Direct kernel calls on the warm circuits, same weights as the
    facade phase, so facade overhead = facade − kernel."""
    for inst in run.insts:
        ir = run.irs[inst.name]
        kernel = ir_kernel(ir)
        rows = run.rows[inst.name]
        variables = list(range(1, inst.cnf.num_vars + 1))
        packed = pack_weight_batch(rows[:BATCH_ROWS], variables)
        mentioned = ir.varsets()[-1]

        def facade_answer(q: int) -> float:
            """The facade's answer without the factors of the
            variables the circuit does not mention."""
            value = run.wmc_answers[inst.name][q]
            for v in variables:
                if v not in mentioned:
                    value /= rows[q][v] + rows[q][-v]
            return value

        for q in range(min(KERNEL_CALLS, len(run.wmc_answers[inst.name]))):
            with tracer.span("kernel.wmc", instance=inst.name):
                value = kernel.wmc(rows[q])
            run.ledger.check("kernel_wmc", close(value, facade_answer(q)))
        for _ in range(LAYER_ROUNDS):
            with tracer.span("kernel.wmc_batch", instance=inst.name):
                values = kernel.wmc_batch(packed)
            run.ledger.check("kernel_wmc_batch", all(
                math.isclose(v, facade_answer(q), rel_tol=1e-6)
                for q, v in enumerate(values)
                if q in run.wmc_answers[inst.name]))
    edges = {i.name: run.irs[i.name].edge_count() for i in run.insts}
    wmc = _per_instance(tracer, "kernel.wmc")
    batch = _per_instance(tracer, "kernel.wmc_batch")
    facade_wmc = _per_instance(tracer, "facade.wmc")
    out = {
        "kernel.load_s": metric(tracer.median("kernel.load"), "s"),
        "kernel.plan_s": metric(tracer.median("kernel.plan"), "s"),
        "kernel.wmc_ns_per_edge": metric(_median(
            wmc[i] / edges[i] * 1e9 for i in wmc), "ns"),
        "kernel.batch_ns_per_edge_row": metric(_median(
            batch[i] / (edges[i] * BATCH_ROWS) * 1e9 for i in batch),
            "ns"),
        "facade.overhead_us": metric(_median(
            (facade_wmc[i] - wmc[i]) * 1e6 for i in wmc), "us"),
    }
    marg = [r for r in tracer.spans
            if r["name"] in ("kernel.marginals", "wmc.marginals_batch")]
    out["kernel.marginals_ns_per_edge_row"] = metric(_median(
        (r["end"] - r["start"]) / (r["edges"] * r["rows"]) * 1e9
        for r in marg), "ns")
    return out


def wmc_layers(run: Run, tracer: Tracer) -> Dict[str, Any]:
    """bn_queries: WmcPipeline construction.  CNF workloads have no
    pipeline object; their one-off marginals cost is the first
    ``query_ir(..., "marginals")`` on a fresh circuit."""
    if run.workload != "bn_queries":
        return {"wmc.pipeline_build_s": metric(
                    tracer.median("kernel.marginals"), "s"),
                "wmc.ac_edges": metric(run.fingerprint["circuit_edges"],
                                       "count")}
    for _ in range(LAYER_ROUNDS):
        for inst in run.insts:
            with tracer.span("wmc.pipeline_build", instance=inst.name):
                WmcPipeline(inst.network).arithmetic_circuit
    ac_edges = sum(p.circuit_size() for p in run.pipelines.values())
    return {"wmc.pipeline_build_s": metric(
                _median(_per_instance(tracer, "wmc.pipeline_build")
                        .values()), "s"),
            "wmc.ac_edges": metric(ac_edges, "count")}


def explain_layers(run: Run, tracer: Tracer) -> Dict[str, Any]:
    firsts: List[float] = []
    delays: List[float] = []
    for inst in run.insts:
        for model in run.models[inst.name][1:]:
            found = []
            with tracer.span("explain.enumerate", instance=inst.name):
                last = time.perf_counter()
                for reason in iter_sufficient_reasons(run.irs[inst.name],
                                                      model):
                    now = time.perf_counter()
                    (delays if found else firsts).append(now - last)
                    last = now
                    found.append(sorted(reason, key=abs))
                    if len(found) >= EXPLAIN_LIMIT:
                        break
            run.check_reasons([(inst, found)])
    spans = [r for r in tracer.spans if r["name"] == "explain"]
    probes = sum(r["probes"] for r in spans)
    reasons = sum(r["reasons"] for r in spans)
    return {
        "explain.first_reason_ms": metric(_median(firsts) * 1e3, "ms"),
        "explain.delay_p50_ms": metric(
            _median(delays or firsts) * 1e3, "ms"),
        "explain.probes_per_reason": metric(probes / reasons, "ratio"),
    }


def serve_layers(run: Run, tracer: Tracer) -> Dict[str, Any]:
    """Each serve hop as an outside call on the loop's request
    bodies, and the served latency they leave unexplained."""
    loop = run.serve_loop
    bodies = [r.body for streams in run.serve_plan for stream in streams
              for r in stream if r.kind == "wmc"][:SERVE_HOP_CALLS]
    pool.init_worker(str(run.store_dir))
    for body in bodies:
        raw = json.dumps(body).encode("utf-8")
        rid = tracer.request()
        with tracer.span("serve.parse", request=rid):
            request = parse_query_request(raw)
        payload = {"key": request.key, "query": request.query,
                   "num_vars": request.num_vars,
                   "weights": request.weights,
                   "weight_batch": request.weight_batch,
                   "deadline_s": 30.0, "optimize": request.optimize}
        with tracer.span("serve.worker", request=rid):
            reply = pool.run_query(payload)
        with tracer.span("serve.pickle", request=rid):
            pickle.loads(pickle.dumps(payload))
            pickle.loads(pickle.dumps(reply))
        with tracer.span("serve.encode", request=rid):
            json.dumps(reply).encode("utf-8")
        run.ledger.check("serve_hop", reply.get("status") == "ok")
    hops = {name: tracer.median(name) for name in
            ("serve.parse", "serve.pickle", "serve.worker",
             "serve.encode")}
    queries = sorted(loop.query_latencies())
    p50 = statistics.median(queries)
    p99 = queries[min(len(queries) - 1, int(0.99 * len(queries)))]
    compiles = loop.latencies.get("compile", [])
    before, after = run.serve_stats

    def delta(name: str) -> int:
        return int(after["frontend"].get(name, 0)
                   - before["frontend"].get(name, 0))

    return {
        "serve.parse_us": metric(hops["serve.parse"] * 1e6, "us"),
        "serve.pickle_us": metric(hops["serve.pickle"] * 1e6, "us"),
        "serve.worker_ms": metric(hops["serve.worker"] * 1e3, "ms"),
        "serve.encode_us": metric(hops["serve.encode"] * 1e6, "us"),
        "serve.unattributed_ms": metric(
            (p50 - sum(hops.values())) * 1e3, "ms"),
        "serve_p99_ms": metric(p99 * 1e3, "ms"),
        "serve.samples": metric(len(queries), "count"),
        "serve.compile_p50_ms": metric(
            statistics.median(compiles) * 1e3 if compiles else 0.0,
            "ms"),
        "serve.admitted": metric(delta("admitted"), "count"),
        "serve.rejected_429": metric(delta("admission_rejects"),
                                     "count"),
        "serve.dedup_hits": metric(delta("compile_dedup_waits"),
                                   "count"),
    }


def sat_layers(run: Run) -> Dict[str, Any]:
    total: Dict[str, int] = {}
    for stats in run.count_stats.values():
        for name, value in stats.items():
            total[name] = total.get(name, 0) + value
    decisions = max(1, total.get("decisions", 0))
    hits = total.get("cache_hits", 0)
    return {
        "sat.decisions": metric(total.get("decisions", 0), "count"),
        "sat.propagations": metric(total.get("propagations", 0),
                                   "count"),
        "sat.cache_hit_rate": metric(hits / (hits + decisions),
                                     "fraction"),
        "sat.components_per_decision": metric(
            total.get("components_found", 0) / decisions, "ratio"),
    }


def probe(run: Run) -> Dict[str, Any]:
    """Run the layer probes; every per-layer metric of the run."""
    tracer = run.tracer
    assert tracer is not None
    out: Dict[str, Any] = {}
    out.update(sat_layers(run))
    out.update(compile_layers(run, tracer))
    out.update(proof_layers(run, tracer))
    out["anytime.s"] = metric(tracer.median("anytime"), "s")
    out["anytime.nodes"] = metric(run.fingerprint["anytime.nodes"],
                                  "count")
    out["anytime.width"] = metric(run.fingerprint["anytime_width"],
                                  "fraction")
    out.update(kernel_layers(run, tracer))
    out.update(wmc_layers(run, tracer))
    out.update(explain_layers(run, tracer))
    out.update(serve_layers(run, tracer))
    out.update(run.query_rates)
    out.update({f"raw.{name}": value
                for name, value in run.raw_e2e.items()})
    out["trace.spans"] = metric(len(tracer.spans), "count")
    out["machine.calibration_ms"] = metric(run.calibration_ms(), "ms")
    return out
