"""Integration tests for the experiment harness."""

import pytest

from repro.experiments import (
    EXPERIMENT_IDS,
    StudyContext,
    experiment_info,
    run_experiment,
)
from repro.experiments import netfault_exp
from repro.experiments.registry import ExperimentInfo

#: Experiments that run their own case-study campaign (no dataset needed
#: but noticeably slower); exercised once each.
CASE_STUDIES = ("fig12", "fig13", "fig17", "fig18")


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "table1", "fig1b", "fig2", "fig3", "fig4", "fig5", "fig6a",
            "fig6b", "fig7a", "fig7b", "fig8", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
            "fig19", "stats",
            # Dynamic-topology studies beyond the paper's static week.
            "failover", "pathdiv",
        }
        assert set(EXPERIMENT_IDS) == expected

    def test_info_lookup(self):
        info = experiment_info("fig4")
        assert isinstance(info, ExperimentInfo)
        assert info.needs_dataset

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            experiment_info("fig99")

    def test_dataset_required_enforced(self, world):
        with pytest.raises(ValueError, match="needs a dataset"):
            run_experiment("fig4", world)


class TestRunners:
    @pytest.mark.parametrize(
        "experiment_id",
        [eid for eid in EXPERIMENT_IDS if eid not in CASE_STUDIES],
    )
    def test_runs_and_renders(self, experiment_id, world, dataset, context):
        result = run_experiment(experiment_id, world, dataset, context=context)
        assert result.experiment_id == experiment_id
        rendered = result.render()
        assert experiment_id in rendered
        assert result.data

    @pytest.mark.parametrize("experiment_id", CASE_STUDIES)
    def test_case_studies_run(self, experiment_id, world, context):
        result = run_experiment(experiment_id, world, context=context)
        assert result.data["matrix"]
        assert result.data["latency"]

    def test_table1_matches_paper_exactly(self, world):
        from repro.experiments.inventory import TABLE1_PAPER

        result = run_experiment("table1", world)
        assert result.data["total"] == 195
        assert result.data["counts"] == TABLE1_PAPER

    def test_stats_reports_paper_bar(self, world, dataset):
        result = run_experiment("stats", world, dataset)
        assert result.data["paper_requirement"] == 2401
        assert result.data["countries_total"] > 30

    def test_fig14_speedchecker_covers_more_than_atlas(
        self, world, dataset, context
    ):
        result = run_experiment("fig14", world, dataset, context=context)
        assert result.data["speedchecker_coverage"] > result.data["atlas_coverage"]

    @pytest.mark.parametrize("experiment_id", ["fig1b", "fig2"])
    def test_probe_distribution_counts_probes(
        self, experiment_id, world, dataset, context
    ):
        result = run_experiment(experiment_id, world, dataset, context=context)
        assert result.data["total"] > 0


class TestNetfaultStudySharing:
    def test_a_shared_context_runs_one_campaign_for_both(
        self, world, dataset, monkeypatch
    ):
        """``failover`` and ``pathdiv`` render the same alone as with a
        shared context, which runs their netfault campaign once."""
        campaigns = []
        run = netfault_exp.run_campaign_checkpointed

        def counted(*args, **kwargs):
            campaigns.append(kwargs["days"])
            return run(*args, **kwargs)

        monkeypatch.setattr(netfault_exp, "run_campaign_checkpointed", counted)
        ids = ("failover", "pathdiv")
        alone = {eid: run_experiment(eid, world) for eid in ids}
        assert len(campaigns) == 2
        context = StudyContext(world, dataset)
        shared = {
            eid: run_experiment(eid, world, dataset, context=context)
            for eid in ids
        }
        assert len(campaigns) == 3
        for eid in ids:
            assert shared[eid].render() == alone[eid].render()
            assert repr(shared[eid].data) == repr(alone[eid].data)
