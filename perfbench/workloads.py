"""The benchmark's workloads and the inputs each one derives from its seed.

Every workload labels the ``directions`` dataset. The workload seed fixes
the dataset seed and each tenant's seed sentences; the server receives only
these generated inputs (``spec``), never the seed itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

DATASET = "directions"
SEED_SENTENCES = 3


@dataclass(frozen=True)
class Workload:
    """One traffic mix: corpus size, tenants, annotators and deployment.

    Attributes:
        name: Workload name as passed to ``--workload``.
        num_sentences: Corpus size.
        tenants: Tenant count.
        annotators: Annotators per tenant.
        batch_size: Crowd ``batch_size`` (answers per retrain/refresh).
        budget: Committed answers per tenant; every tenant must reach it.
        workers: Fleet worker processes; 1 serves from an in-process pool.
        connections: Concurrent client connections of the load generator.
        seed_rule: Seed each tenant with the dataset's default rule instead
            of sampled positive sentences.
    """

    name: str
    num_sentences: int
    tenants: int
    annotators: int
    batch_size: int
    budget: int
    workers: int
    connections: int
    seed_rule: bool

    @property
    def sessions(self) -> str:
        """Everything that shapes the annotator sessions; workloads with
        equal ``sessions`` (tenants-5k and fleet-5k) must commit identical
        histories for the same seed."""
        seeding = "rule" if self.seed_rule else "positives"
        return (f"{self.num_sentences}s-{self.tenants}x{self.annotators}-"
                f"batch{self.batch_size}-budget{self.budget}-{seeding}")


# Why each workload exists is in perfbench/README.md; in short:
# interactive-50k puts retrain + re-score on the critical path, tenants-5k
# puts the gateway, crowd dispatch and propose path there, and fleet-5k adds
# pipe RPC, the arena/overlay coverage path and autosaves on both cores.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("interactive-50k", 50_000, tenants=1, annotators=1,
                 batch_size=1, budget=100, workers=1, connections=1,
                 seed_rule=True),
        Workload("tenants-5k", 5_000, tenants=16, annotators=2,
                 batch_size=4, budget=24, workers=1, connections=1,
                 seed_rule=False),
        Workload("fleet-5k", 5_000, tenants=16, annotators=2,
                 batch_size=4, budget=24, workers=2, connections=2,
                 seed_rule=False),
    )
}


def tenant_id(position: int) -> str:
    return f"t{position:02d}"


def tenant_seeds(
    workload: Workload, seed: int, positive_ids: Set[int], default_rule: str
) -> List[Dict[str, object]]:
    """Per-tenant seeds: the default rule, or distinct sets of positives."""
    if workload.seed_rule:
        return [{"rule_texts": [default_rule]} for _ in range(workload.tenants)]
    rng = random.Random(f"perfbench-seeds:{seed}")
    pool = sorted(positive_ids)
    chosen: Set[Tuple[int, ...]] = set()
    seeds: List[Dict[str, object]] = []
    while len(seeds) < workload.tenants:
        picked = tuple(sorted(rng.sample(pool, SEED_SENTENCES)))
        if picked in chosen:
            continue
        chosen.add(picked)
        seeds.append({"positive_ids": list(picked)})
    return seeds


def dataset_seed(seed: int) -> int:
    """The dataset seed a workload seed maps to."""
    return random.Random(f"perfbench-dataset:{seed}").randrange(2**31)


def server_spec(
    workload: Workload, seed: int, positive_ids: Set[int], default_rule: str
) -> Dict[str, object]:
    """Everything the server launcher needs, minus per-launch paths."""
    return {
        "dataset": DATASET,
        "num_sentences": workload.num_sentences,
        "dataset_seed": dataset_seed(seed),
        "annotators": workload.annotators,
        "batch_size": workload.batch_size,
        "budget": workload.budget,
        "workers": workload.workers,
        "tenants": [
            {"id": tenant_id(i), "seeds": seeds,
             "worker": i % workload.workers}
            for i, seeds in enumerate(
                tenant_seeds(workload, seed, positive_ids, default_rule)
            )
        ],
    }


def connection_plan(workload: Workload) -> List[List[Tuple[str, int]]]:
    """The (tenant, annotator) pairs each connection cycles through.

    Tenants are split into contiguous blocks, one per connection, while the
    fleet places tenant ``i`` on worker ``i % workers``; so each connection
    reaches every worker and the two connections contend for them.
    """
    per_connection = -(-workload.tenants // workload.connections)
    plan: List[List[Tuple[str, int]]] = []
    for connection in range(workload.connections):
        block = range(
            connection * per_connection,
            min(workload.tenants, (connection + 1) * per_connection),
        )
        plan.append([
            (tenant_id(t), annotator)
            for t in block
            for annotator in range(workload.annotators)
        ])
    return plan
