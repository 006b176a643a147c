"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.experiments import EXPERIMENT_IDS


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in ("table1", "fig4", "fig19", "stats"):
            assert experiment_id in output


class TestSummary:
    def test_prints_inventory(self, capsys):
        assert main(["summary", "--scale", "0.005", "--seed", "3"]) == 0
        assert "195 cloud regions" in capsys.readouterr().out


class TestCampaignAndExperiment:
    def test_campaign_then_experiment(self, tmp_path, capsys):
        output = tmp_path / "study.jsonl.gz"
        assert (
            main(
                [
                    "campaign",
                    "--scale", "0.005",
                    "--seed", "3",
                    "--days", "3",
                    "-o", str(output),
                ]
            )
            == 0
        )
        assert output.exists()
        capsys.readouterr()
        assert (
            main(
                [
                    "experiment", "fig4",
                    "--scale", "0.005",
                    "--seed", "3",
                    "--dataset", str(output),
                ]
            )
            == 0
        )
        rendered = capsys.readouterr().out
        assert "fig4" in rendered
        assert "Continent" in rendered

    def test_world_only_experiment_without_dataset(self, capsys):
        assert (
            main(["experiment", "table1", "--scale", "0.005", "--seed", "3"])
            == 0
        )
        assert "195" in capsys.readouterr().out

    def test_unknown_experiment_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    """A seed-3, scale-0.005, 2-day checkpointed store."""
    run_dir = tmp_path_factory.mktemp("cli-store") / "run"
    arguments = ["--scale", "0.005", "--seed", "3", "--days", "2"]
    assert main(["campaign", *arguments, "--store", str(run_dir)]) == 0
    return run_dir


WORLD = ["--scale", "0.005", "--seed", "3"]


class TestStoreDataset:
    @pytest.mark.parametrize("experiment_id", ["fig6a", "fig6b"])
    def test_intercontinental_figures_read_a_store(
        self, small_store, experiment_id, capsys
    ):
        """fig6a/fig6b merge the store into the focused study's dataset."""
        capsys.readouterr()
        command = ["experiment", experiment_id, *WORLD]
        assert main([*command, "--dataset", str(small_store)]) == 0
        assert f"== {experiment_id}:" in capsys.readouterr().out

    def test_reproduce_on_a_store_matches_each_experiment(self, small_store, capsys):
        capsys.readouterr()
        assert main(["reproduce", *WORLD, "--dataset", str(small_store)]) == 0
        reproduced = capsys.readouterr().out
        blocks = []
        for experiment_id in EXPERIMENT_IDS:
            command = ["experiment", experiment_id, *WORLD]
            assert main([*command, "--dataset", str(small_store)]) == 0
            blocks.append("\n" + capsys.readouterr().out)
        assert reproduced == "".join(blocks)


class TestTakeaways:
    def test_exit_code_reflects_outcome(self, tmp_path, capsys):
        output = tmp_path / "study.jsonl"
        main(
            [
                "campaign",
                "--scale", "0.006",
                "--seed", "5",
                "--days", "4",
                "-o", str(output),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "takeaways",
                "--scale", "0.006",
                "--seed", "5",
                "--dataset", str(output),
            ]
        )
        report = capsys.readouterr().out
        assert "takeaways hold" in report
        assert code in (0, 1)


class TestScaleValidation:
    """--scale outside (0, 1] is rejected at argument-parse time with a
    clear message, before any world construction starts."""

    @pytest.mark.parametrize("bad_scale", ["0", "-0.5", "1.5", "2"])
    def test_out_of_range_scale_rejected(self, bad_scale, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["summary", "--scale", bad_scale])
        assert excinfo.value.code == 2
        assert "scale must be in (0, 1]" in capsys.readouterr().err

    def test_non_numeric_scale_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["summary", "--scale", "tiny"])
        assert excinfo.value.code == 2
        assert "scale must be a number" in capsys.readouterr().err

    def test_boundary_values_accepted(self):
        """1.0 (the paper's full fleet) and tiny positive scales parse."""
        from repro.cli import _scale_argument

        assert _scale_argument("1.0") == 1.0
        assert _scale_argument("1") == 1.0
        assert _scale_argument("0.0001") == 0.0001


class TestServiceDelegation:
    """`repro service ...` must hand its flags to the service parser.

    argparse.REMAINDER cannot capture a leading option token, so the
    dispatch happens before the top-level parser runs -- a leading
    `--port` (or `--help`) must reach repro.service, not be rejected
    as an unrecognized top-level argument.
    """

    def test_service_help_routes_to_service_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["service", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--store-root" in out
        assert "--unit-quota" in out

    def test_service_flags_not_rejected_by_top_level_parser(self, capsys):
        # A bad *service* flag errors through the service parser (its
        # prog name, not repro's usage string).
        with pytest.raises(SystemExit) as excinfo:
            main(["service", "--no-such-flag"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "repro.service" in err
