"""Behaviour pinned to golden histories, straight and across checkpoints.

``tests/data/golden_histories.json`` holds one row per answered question —
``(rule, answer, |C_r|, |P| after the answer)`` — recorded on the retired
heap ("memory") coverage backend, so it is a reference that needs none of
the deleted code:

* ``solo``: one :class:`~repro.engine.DarwinEngine` run of the
  ``golden_solo_spec`` fixture (the directions fixture corpus, default index
  config);
* ``crowd``: one :func:`~repro.crowd.run_crowd` session with 2 annotators
  and ``batch_size=3`` over the ``directions_index`` /
  ``directions_featurizer`` fixtures;
* ``legacy_engine`` / ``legacy_tenant``: the straight runs behind
  ``tests/data/legacy_engine.npz`` and ``tests/data/legacy_tenant.npz``,
  checkpoints written after 3 answers by a build that still had the heap
  backend, the hierarchy-refresh mode and the partial re-scoring switch — a
  default-config engine and a tenant of a default-config pool
  (``LEGACY_DATASET``, config in the checkpoint manifests).

Arena-only builds must reproduce every history exactly, whichever way the
coverage columns reach the checkpoint: inline (temporary arena), by
reference (named arena, in ``tests/test_arena.py``), or in the retired
layout.
"""

from __future__ import annotations

import gc
import os
from pathlib import Path

import pytest

from repro.config import ClassifierConfig, CrowdConfig, DarwinConfig, IndexConfig
from repro.core.darwin import Darwin
from repro.crowd import run_crowd
from repro.datasets import load_dataset
from repro.engine.engine import DarwinEngine
from repro.engine.state import read_checkpoint
from repro.errors import ConfigurationError
from repro.index import CoverageStore, OverlayCoverageStore
from repro.serving import TenantPool

DATA = Path(__file__).parent / "data"
SEED_RULE = "best way to get to"
LEGACY_DATASET = {"num_sentences": 80, "seed": 3, "parse_trees": False}


def rows(history):
    return [(h.rule, h.answer, h.rule_coverage, h.covered) for h in history]


class TestGoldenRuns:
    def test_solo_engine_run_matches_golden(
        self, golden_solo_spec, golden_histories
    ):
        engine = DarwinEngine.from_config(golden_solo_spec)
        assert engine.darwin.index.store.arena.temporary
        assert rows(engine.run().history) == golden_histories["solo"]

    def test_crowd_run_matches_golden(
        self, directions_corpus, directions_index, directions_featurizer,
        golden_histories,
    ):
        darwin = Darwin(
            directions_corpus,
            config=DarwinConfig(
                budget=15, num_candidates=200, min_coverage=2,
                classifier=ClassifierConfig(epochs=20, embedding_dim=30),
            ),
            index=directions_index,
            featurizer=directions_featurizer,
        )
        outcome = run_crowd(
            darwin,
            config=CrowdConfig(num_annotators=2, redundancy=1, batch_size=3,
                               annotator_latency=0.0),
            seed_rule_texts=[SEED_RULE],
        )
        assert rows(outcome.darwin_result.history) == golden_histories["crowd"]


class TestTemporaryArenaResume:
    """Checkpoints over an anonymous arena outlive it: the temp file is
    unlinked when the engine is dropped, so its columns travel inline."""

    def test_dropped_engine_resumes_from_inline_checkpoint(
        self, tmp_path, golden_solo_spec, golden_histories
    ):
        engine = DarwinEngine.from_config(golden_solo_spec)
        engine.run(budget=6)
        arena_path = engine.darwin.index.store.arena.path
        checkpoint = engine.save(str(tmp_path / "solo.npz"))
        del engine
        gc.collect()
        assert not os.path.exists(arena_path)
        assert DarwinEngine.describe_checkpoint(checkpoint)[
            "coverage_backend"
        ] == "inline"

        resumed = DarwinEngine.load(checkpoint)
        assert resumed.questions_asked == 6
        assert rows(resumed.run().history) == golden_histories["solo"]

    def test_closed_pool_tenant_resumes_from_inline_checkpoint(
        self, tmp_path, directions_corpus, golden_solo_spec, golden_histories
    ):
        dataset = dict(golden_solo_spec["dataset"])
        pool = TenantPool(
            directions_corpus,
            DarwinConfig.from_dict(golden_solo_spec["config"]),
            seeds=golden_solo_spec["seeds"],
            dataset_spec={"name": dataset.pop("name"), "options": dataset},
        )
        arena_path = pool.index.store.arena.path
        tenant = pool.spawn()
        tenant.run(budget=6)
        checkpoint = tenant.save(str(tmp_path / "tenant.npz"))
        pool.close()
        del pool, tenant
        gc.collect()
        assert not os.path.exists(arena_path)
        manifest, _ = read_checkpoint(checkpoint)
        assert manifest["index"]["store"]["base"]["backend"] == "inline"

        resumed = DarwinEngine.load(checkpoint)
        assert isinstance(resumed.darwin.index.store, OverlayCoverageStore)
        assert rows(resumed.run().history) == golden_histories["solo"]


class TestLegacyCheckpoints:
    """Checkpoints written while the heap backend existed still resume."""

    def test_engine_checkpoint_resumes_into_a_temporary_arena(
        self, golden_histories
    ):
        path = str(DATA / "legacy_engine.npz")
        manifest, _ = read_checkpoint(path)
        assert manifest["config"]["index"]["coverage_backend"] == "memory"
        assert "bitset_cache_bytes" in manifest["config"]["index"]
        assert manifest["index"]["store"]["backend"] == "memory"
        engine = DarwinEngine.load(path)
        store = engine.darwin.index.store
        assert isinstance(store, CoverageStore) and store.arena.temporary
        assert engine.questions_asked == 3
        assert rows(engine.run().history) == golden_histories["legacy_engine"]

    def test_tenant_checkpoint_resumes_over_a_temporary_base(
        self, golden_histories
    ):
        engine = DarwinEngine.load(str(DATA / "legacy_tenant.npz"))
        store = engine.darwin.index.store
        assert isinstance(store, OverlayCoverageStore)
        assert store.base.arena.temporary
        assert rows(engine.run().history) == golden_histories["legacy_tenant"]

    def test_tenant_checkpoint_adopted_by_a_pool(self, golden_histories):
        path = str(DATA / "legacy_tenant.npz")
        manifest, _ = read_checkpoint(path)
        corpus = load_dataset("directions", **LEGACY_DATASET)
        with TenantPool(
            corpus, DarwinConfig.from_dict(manifest["config"])
        ) as pool:
            tenant = pool.adopt("legacy", path)
            assert tenant.engine.questions_asked == 3
            result = tenant.run()
        assert rows(result.history) == golden_histories["legacy_tenant"]

    def test_index_config_drops_only_the_retired_keys(self):
        legacy = {"coverage_backend": "memory", "bitset_cache_bytes": 8 << 20,
                  "arena_path": None}
        assert IndexConfig.from_dict(legacy) == IndexConfig()
        with pytest.raises(ConfigurationError, match="bad index config"):
            IndexConfig.from_dict({"arena_pth": "typo.arena"})

    def test_retired_modes_are_dropped_or_refused(self):
        """Older manifests record the retired refresh and re-scoring modes:
        the surviving value loads, the deleted one is refused, because that
        session would resume on the other path."""
        manifest, _ = read_checkpoint(str(DATA / "legacy_engine.npz"))
        recorded = manifest["config"]
        assert recorded["hierarchy_refresh"] == "incremental"
        assert recorded["classifier"]["incremental_scoring"] is False
        config = DarwinConfig.from_dict(recorded)
        assert "hierarchy_refresh" not in config.as_dict()
        assert "incremental_scoring" not in config.as_dict()["classifier"]

        full = dict(recorded, hierarchy_refresh="full")
        with pytest.raises(ConfigurationError, match="hierarchy_refresh"):
            DarwinConfig.from_dict(full)
        partial = dict(recorded, classifier=dict(
            recorded["classifier"], incremental_scoring=True
        ))
        with pytest.raises(ConfigurationError, match="incremental_scoring"):
            DarwinConfig.from_dict(partial)
