"""Tests for the experiment drivers (small-scale versions of each figure/table)."""

from __future__ import annotations

import pytest

from repro.config import ClassifierConfig, DarwinConfig
from repro.experiments.annotators import annotator_experiment
from repro.experiments.common import ExperimentSetting, prepare_dataset
from repro.experiments.coverage_curves import coverage_experiment
from repro.experiments.dataset_stats import format_table1, table1
from repro.experiments.efficiency import efficiency_experiment
from repro.experiments.fscore_curves import fscore_experiment
from repro.experiments.seed_size import sample_labeled_subset, seed_size_experiment
from repro.experiments.sensitivity import (
    candidate_sweep,
    epoch_sweep,
    seed_rule_sweep,
    tau_sweep,
)
from repro.experiments.snorkel_table import snorkel_experiment
from repro.experiments.traversal_traces import traversal_trace_experiment


@pytest.fixture(scope="module")
def small_setting() -> ExperimentSetting:
    """A shared small directions setting for all experiment-driver tests."""
    config = DarwinConfig(
        budget=20, num_candidates=200, min_coverage=2,
        classifier=ClassifierConfig(epochs=25, embedding_dim=30),
    )
    return prepare_dataset("directions", scale=0.05, seed=4, config=config)


class TestCommon:
    def test_prepare_dataset_bundles_everything(self, small_setting):
        assert len(small_setting.corpus) > 300
        assert len(small_setting.index) > 100
        assert small_setting.seed_rule_texts
        assert small_setting.keyword_hints
        assert small_setting.biased_exclude_token == "shuttle"

    def test_run_darwin_helper(self, small_setting):
        result = small_setting.run_darwin(traversal="hybrid", budget=10)
        assert result.queries_used <= 10

    def test_make_oracle_threshold(self, small_setting):
        oracle = small_setting.make_oracle(precision_threshold=0.5)
        assert oracle.precision_threshold == 0.5


class TestTable1:
    def test_rows_and_formatting(self):
        rows = table1(scale=0.02, names=["directions", "musicians"])
        assert len(rows) == 2
        text = format_table1(rows)
        assert "directions" in text and "musicians" in text
        assert "Table 1" in text


class TestSeedSizeExperiment:
    def test_sampling_guarantees_positives(self, small_setting):
        subset = sample_labeled_subset(small_setting, size=25, seed=0)
        assert len(subset) == 25
        labels = [small_setting.corpus[i].label for i in subset]
        assert sum(labels) >= 2

    def test_biased_sampling_excludes_token(self, small_setting):
        subset = sample_labeled_subset(small_setting, size=40, seed=0, biased=True)
        for sentence_id in subset:
            assert "shuttle" not in small_setting.corpus[sentence_id].tokens

    def test_fig7_shape(self, small_setting):
        result = seed_size_experiment(
            small_setting, seed_sizes=(25, 150), budget=20,
        )
        assert set(result.series) == {"Snuba", "Darwin(HS)"}
        snuba = result.series["Snuba"]
        darwin = result.series["Darwin(HS)"]
        assert len(snuba) == len(darwin) == 2
        # Darwin with 25 seeds must beat Snuba with 25 seeds (the headline).
        assert darwin[0] > snuba[0]

    def test_fig8_biased(self, small_setting):
        result = seed_size_experiment(
            small_setting, seed_sizes=(40,), budget=20, biased=True,
        )
        assert result.metadata["biased"] is True
        assert result.series["Darwin(HS)"][0] >= result.series["Snuba"][0]


class TestCurveExperiments:
    def test_coverage_experiment_series(self, small_setting):
        result = coverage_experiment(
            small_setting, budget=12, methods=("Darwin(HS)", "highP")
        )
        assert set(result.series) == {"Darwin(HS)", "highP"}
        for series in result.series.values():
            assert len(series) <= 12
            assert all(0.0 <= v <= 1.0 for v in series)

    def test_coverage_experiment_rejects_unknown_method(self, small_setting):
        with pytest.raises(ValueError):
            coverage_experiment(small_setting, budget=5, methods=("Darwin(XX)",))

    def test_fscore_experiment_series(self, small_setting):
        result = fscore_experiment(
            small_setting, budget=10, methods=("Darwin(HS)", "AL", "KS")
        )
        assert set(result.series) == {"Darwin(HS)", "AL", "KS"}
        for series in result.series.values():
            assert all(0.0 <= v <= 1.0 for v in series)

    def test_fscore_experiment_rejects_unknown_method(self, small_setting):
        with pytest.raises(ValueError):
            fscore_experiment(small_setting, budget=5, methods=("SVM",))


class TestSnorkelExperiment:
    def test_table2_values(self, small_setting):
        result = snorkel_experiment(small_setting, budget=15)
        finals = result.final_values()
        assert set(finals) == {"Darwin", "Darwin+Snorkel"}
        assert all(0.0 <= v <= 1.0 for v in finals.values())
        assert result.metadata["num_rules"] >= 1


class TestSensitivity:
    def test_tau_sweep(self, small_setting):
        result = tau_sweep(small_setting, taus=(3, 7), budget=10)
        assert set(result.series) == {"tau=3", "tau=7"}

    def test_seed_rule_sweep(self, small_setting):
        result = seed_rule_sweep(
            small_setting,
            seed_rules=("shuttle", "best way to get to"),
            budget=10,
        )
        assert set(result.series) == {"Rule 1", "Rule 2"}

    def test_candidate_sweep(self, small_setting):
        result = candidate_sweep(small_setting, candidate_counts=(100, 1000), budget=8)
        assert set(result.series) == {"100", "1K"}

    def test_epoch_sweep(self, small_setting):
        result = epoch_sweep(small_setting, epochs=(5, 10), budget=15, target_coverage=0.5)
        values = result.series["questions_to_target"]
        assert len(values) == 2
        assert all(1 <= v <= 15 for v in values)


class TestEfficiencyAndAnnotators:
    def test_efficiency_experiment(self):
        result = efficiency_experiment(
            dataset="directions", scales=(0.04, 0.08), budget=5,
            config=DarwinConfig(budget=5, num_candidates=100,
                                classifier=ClassifierConfig(epochs=10, embedding_dim=20)),
        )
        sizes = result.metadata["corpus_sizes"]
        assert len(sizes) == 2 and sizes[0] < sizes[1]
        assert all(t >= 0.0 for t in result.series["index_build"])
        # Missing phases read 0.0, so a renamed phase would pass silently.
        for phase in ("propose", "initial_training", "hierarchy_generation"):
            assert all(t > 0.0 for t in result.series[phase])

    def test_annotator_experiment(self, small_setting):
        result = annotator_experiment(small_setting, budget=12, flip_prob=0.2)
        assert "perfect oracle" in result.series
        assert "crowd (majority of 3)" in result.series
        imprecise = result.metadata["imprecise_accepted_rules"]
        assert imprecise["perfect oracle"] == 0

    def test_traversal_trace(self, small_setting):
        result = traversal_trace_experiment(small_setting, budget=10)
        trace = result.metadata["trace"]
        assert len(trace) <= 10
        assert all(entry["answer"] in {"YES", "NO"} for entry in trace)
        assert result.metadata["accepted_rules"] == [
            entry["rule"] for entry in trace if entry["answer"] == "YES"
        ]
