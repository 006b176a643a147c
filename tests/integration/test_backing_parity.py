"""Every experiment renders the same data from every dataset backing.

One classic campaign is analysed three ways: as the in-memory dataset
the campaign returns (one block per batch), after a ``save_dataset`` /
``load_dataset`` round trip (one block of each kind, with stand-in
probes and regions), and from the store ``repro.store import-jsonl``
builds out of that file (memmapped shards, one block per unit).
"""

from repro import run_campaign
from repro.experiments import EXPERIMENT_IDS, StudyContext, run_experiment
from repro.measure.io import load_dataset, save_dataset
from repro.store import DatasetStore
from repro.store.cli import main as store_main

DAYS = 5


def renders(world, dataset):
    """Every experiment's render and the repr of its data, which keeps
    the digits that renders round away."""
    context = StudyContext(world, dataset)
    results = {
        experiment_id: run_experiment(experiment_id, world, dataset, context=context)
        for experiment_id in EXPERIMENT_IDS
    }
    return {
        experiment_id: (result.render(), repr(result.data))
        for experiment_id, result in results.items()
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

        # The JSONL route reaches the resolver as one block, the store
        # route as one block per shard.
        assert len(list(records.trace_blocks())) == 1
        assert records.traceroute_count == dataset.traceroute_count
        assert len(list(stored.trace_blocks())) > 1
        assert stored.traceroute_count == dataset.traceroute_count

        expected = renders(world, dataset)
        assert renders(world, records) == expected
        assert renders(world, stored) == expected
