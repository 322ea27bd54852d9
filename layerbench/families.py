"""The benchmark's instance families, generated from the run seed.

Each workload draws its instances as *random isomorphic copies* of a
fixed base family: the seed flips polarities and shuffles clause and
literal order (CNF families), or redraws the CPT parameters and the
evidence (Bayesian networks).  Every seed therefore asks the program
for the same amount of work — model counts, the search and circuit
sizes are invariant under these maps — while the formulas, the content
keys and every weighted answer differ from seed to seed.  That keeps
the run-to-run spread of the timings down to timing noise, which is
what a regression gate can resolve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bayesnet.examples import random_network
from repro.bayesnet.network import BayesianNetwork
from repro.logic.cnf import Cnf
from repro.logic.generators import parity_chain, random_kcnf
from repro.wmc.encoding import encode_multistate

WORKLOADS = ("random_3cnf", "bn_queries", "chains")

#: base-family seed: fixes the formulas / network structures; the run
#: seed only draws isomorphic copies of them
FAMILY_SEED = 20260805

#: (variables, clauses) of the random 3-CNF base formulas: ratio 2.4,
#: just under the counting-hard region
RANDOM_3CNF_SIZES = ((35, 84), (35, 84), (36, 86), (36, 86))

#: parity-chain lengths (each chain has n + n-1 variables)
CHAIN_LENGTHS = (70, 90, 110, 130)

#: the depth probe: known to exhaust Python's recursion limit
DEPTH_PROBE_LENGTH = 1200

#: Bayesian-network base structures: (network variables, max parents)
BN_SHAPES = ((30, 2), (36, 2), (42, 2), (48, 2))


@dataclass
class Instance:
    """One CNF of a workload, plus what the references need."""

    name: str
    cnf: Cnf
    #: model count known by construction (chains), else None
    known_count: Optional[int] = None
    #: the Bayesian network this CNF encodes (bn_queries)
    network: Optional[BayesianNetwork] = None
    #: (name, state) -> indicator literal of the encoding
    indicator: Dict[Tuple[str, int], int] = field(default_factory=dict)
    #: base literal weights of the encoding (bn_queries)
    weights: Dict[int, float] = field(default_factory=dict)
    #: the CNF as DIMACS text, serialised once, outside every timing
    dimacs: str = field(init=False)

    def __post_init__(self) -> None:
        self.dimacs = self.cnf.to_dimacs()


def isomorphic_copy(cnf: Cnf, rng: random.Random) -> Cnf:
    """``cnf`` under a random polarity flip, with clause order and
    literal order shuffled.  The model count, the search and the
    circuit size are unchanged; the formula, its content key and every
    weighted answer are new.  Variables keep their numbers: renamed,
    the branching heuristic breaks ties differently, and a parity
    chain's search is no longer narrow and deep."""
    flip = {v: rng.random() < 0.5 for v in range(1, cnf.num_vars + 1)}
    clauses = []
    for clause in cnf.clauses:
        lits = [-lit if flip[abs(lit)] else lit for lit in clause]
        rng.shuffle(lits)
        clauses.append(tuple(lits))
    rng.shuffle(clauses)
    return Cnf(clauses, num_vars=cnf.num_vars)


def _base_cnfs(workload: str) -> List[Tuple[str, Cnf, Optional[int]]]:
    if workload == "random_3cnf":
        out = []
        for i, (n, m) in enumerate(RANDOM_3CNF_SIZES):
            cnf = random_kcnf(n, m, rng=random.Random(FAMILY_SEED + i))
            out.append((f"r3_{n}_{m}_{i}", cnf, None))
        return out
    if workload == "chains":
        return [(f"chain_{n}", parity_chain(n), 2 ** (n - 1))
                for n in CHAIN_LENGTHS]
    raise ValueError(f"no CNF base family for {workload!r}")


def _redraw_parameters(structure: BayesianNetwork,
                       rng: random.Random) -> BayesianNetwork:
    """The same DAG with fresh CPT rows drawn from ``rng``."""
    network = BayesianNetwork()
    for name in structure.variables:
        parents = structure.parents(name)
        rows = structure.cpt(name).values.copy()
        for index in np.ndindex(*rows.shape[:-1]):
            p = rng.uniform(0.05, 0.95)
            rows[index] = [1 - p, p]
        network.add_variable(name, parents, rows)
    return network


def instances(workload: str, seed: int) -> List[Instance]:
    """The workload's instance set for ``seed`` (deterministic)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "bn_queries":
        out = []
        for i, (size, parents) in enumerate(BN_SHAPES):
            structure = random_network(
                size, max_parents=parents,
                rng=random.Random(FAMILY_SEED + 100 + i))
            network = _redraw_parameters(structure, rng)
            encoding = encode_multistate(network)
            out.append(Instance(
                name=f"bn_{size}_{i}", cnf=encoding.cnf,
                network=network, indicator=dict(encoding.indicator),
                weights=dict(encoding.weights)))
        return out
    return [Instance(name=name, known_count=known,
                     cnf=isomorphic_copy(cnf, rng))
            for name, cnf, known in _base_cnfs(workload)]


def fresh_writes(workload: str, seed: int, count: int) -> List[Cnf]:
    """CNFs for the served compile share: isomorphic copies of the
    workload's family that no earlier phase compiled (new keys)."""
    rng = random.Random(f"{workload}:{seed}:writes")
    if workload == "bn_queries":
        bases = [inst.cnf for inst in instances(workload, seed)]
    else:
        bases = [cnf for _, cnf, _ in _base_cnfs(workload)]
    return [isomorphic_copy(bases[i % len(bases)], rng)
            for i in range(count)]


def depth_probe() -> Instance:
    """``parity_chain(1200)``: deeper than the search engines'
    recursion reaches today (ROADMAP item 5)."""
    n = DEPTH_PROBE_LENGTH
    return Instance(name=f"chain_{n}", cnf=parity_chain(n),
                    known_count=2 ** (n - 1))


def weight_rows(inst: Instance, rng: random.Random, rows: int
                ) -> List[Dict[int, float]]:
    """``rows`` literal-weight maps over every variable of ``inst``.
    BN encodings keep their parameter weights, observe a random set of
    network variables at state 1 and perturb one parameter; CNF
    instances get random positive weights.  Every map differs, so no
    evaluator memo is hit."""
    n = inst.cnf.num_vars
    params = sorted(v for v in range(1, n + 1)
                    if inst.weights.get(v, 1.0) != 1.0)
    out = []
    for _ in range(rows):
        if inst.network is not None:
            weights = dict(inst.weights)
            for name in inst.network.variables:
                if rng.random() < 0.08:
                    weights[inst.indicator[(name, 0)]] = 0.0
            v = rng.choice(params)
            weights[v] *= rng.uniform(0.9, 1.1)
        else:
            weights = {}
            for v in range(1, n + 1):
                p = rng.uniform(0.2, 0.8)
                weights[v] = p
                weights[-v] = 1.0 - p
        out.append(weights)
    return out


def evidence_rows(inst: Instance, rng: random.Random, rows: int,
                  observed: int = 4) -> List[Dict[str, int]]:
    """``rows`` evidence instantiations of ``observed`` network
    variables each (bn_queries marginals)."""
    assert inst.network is not None
    names: Sequence[str] = inst.network.variables
    return [{name: rng.randint(0, 1)
             for name in rng.sample(list(names), observed)}
            for _ in range(rows)]
