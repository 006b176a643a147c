"""Every experiment renders the same from every dataset backing.

One classic campaign is analysed three ways: as the in-memory dataset
the campaign returns (columnar blocks), after a ``save_dataset`` /
``load_dataset`` round trip (scalar records, which trace resolution
columnarizes first), and from the store ``repro.store import-jsonl``
builds out of that file (memmapped shards, one block per unit).
"""

from repro import run_campaign
from repro.experiments import EXPERIMENT_IDS, StudyContext, run_experiment
from repro.measure.io import load_dataset, save_dataset
from repro.store import DatasetStore
from repro.store.cli import main as store_main

DAYS = 5


def renders(world, dataset):
    context = StudyContext(world, dataset)
    return {
        experiment_id: run_experiment(
            experiment_id, world, dataset, context=context
        ).render()
        for experiment_id in EXPERIMENT_IDS
    }


class TestBackingParity:
    def test_renders_equal_across_backings(self, world, tmp_path, capsys):
        dataset = run_campaign(world, days=DAYS)
        path = tmp_path / "study.jsonl"
        save_dataset(dataset, path)
        records = load_dataset(path)
        assert store_main(["import-jsonl", str(path), str(tmp_path / "store")]) == 0
        capsys.readouterr()
        stored = DatasetStore.open(tmp_path / "store").dataset()

        # The record route reaches the resolver as scalar records only,
        # the store route as shards only.
        assert records.trace_blocks() == []
        assert len(list(records.iter_scalar_traceroutes())) == dataset.traceroute_count
        assert list(stored.iter_scalar_traceroutes()) == []
        assert len(stored.trace_blocks()) > 1
        assert stored.traceroute_count == dataset.traceroute_count

        expected = renders(world, dataset)
        assert renders(world, records) == expected
        assert renders(world, stored) == expected
