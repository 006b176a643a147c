"""Each ping group-by against its record-loop reference.

Every analysis that groups a dataset's ping columns must return what the
matching loop in ``oracles.ping_analysis`` returns over the
dataset's ping records: the same keys and list entries in the same order,
and the same float bits.  ``repr`` checks all three at once, since it
spells every float exactly.  The datasets are the shared 21-day 2%
campaign, a store holding the campaign's blocks as separately interned
shards, hand-built records and an empty dataset.
"""

import itertools

import numpy as np
import pytest

from helpers import dataset_of, make_ping
from oracles import ping_analysis as oracle
from oracles import trace_analysis as trace_oracle

from repro.analysis.compare import (
    matched_city_asn_differences,
    platform_differences,
)
from repro.analysis.composition import dataset_composition
from repro.analysis.intercontinental import _nearest_region_samples
from repro.analysis.nearest import (
    nearest_by_probe,
    nearest_samples_by_continent,
    nearest_samples_by_country,
)
from repro.analysis.protocols import protocol_comparison
from repro.analysis.providers import provider_consistency
from repro.analysis.temporal import temporal_report
from repro.experiments.stats_exp import run_stats
from repro.geo.continents import Continent
from repro.measure.results import (
    MeasurementDataset,
    Protocol,
    ping_block_from_records,
    trace_block_from_records,
)
from repro.store import DatasetStore

PLATFORMS = ("speedchecker", "atlas")

#: Blocks of the shared campaign the store case holds: its 19
#: Speedchecker blocks and its first three Atlas blocks.  That is many
#: tables to merge, and few enough pings for quick record loops.
STORED_BLOCKS = 22

#: Probe p1's "far" ping sums to 208.02900000000002 left to right but to
#: 208.029 pairwise, the sum of its "near" ping either way: the loop's
#: left fold makes "near" the nearest region, while pairwise sums would
#: tie the means and keep "far", the region seen first.
FAR = [129.208, 57.608, 12.99, 8.223]
NEAR = [52.0, 52.0, 52.0, 52.029]


def edge_case_records():
    eg = dict(country="EG", continent=Continent.AF)
    br = dict(probe_id="p4", country="BR", continent=Continent.SA)
    atlas = dict(platform="atlas", region_id="near")
    return [
        make_ping(FAR, region_id="far"),
        make_ping(NEAR, region_id="near"),
        # p2's regions tie exactly: the one seen first stays nearest.
        make_ping([20.0, 30.0], probe_id="p2", region_id="a", day=1),
        make_ping([25.0], probe_id="p2", region_id="b", day=1),
        make_ping([25.0, 25.0], probe_id="p2", region_id="a", day=2),
        # p5's country and continent change under one probe id, and the
        # "far" region changes continent.
        make_ping([1.0, 2.0], probe_id="p5"),
        make_ping(
            [1.0], probe_id="p5", region_continent=Continent.AF,
            region_country="ZA", **eg,
        ),
        make_ping([1.0, 2.0, 3.0], probe_id="p5", region_id="near", **eg),
        make_ping(
            [3.0], probe_id="p5", region_id="far",
            region_continent=Continent.AF, **eg,
        ),
        # Off-continent targets, ICMP pings and ragged sample counts.
        make_ping(
            [5.0], probe_id="p3", region_id="abroad", region_continent=Continent.NA
        ),
        make_ping([9.0, 9.5, 8.0, 7.5, 9.25], probe_id="p3", protocol=Protocol.ICMP),
        make_ping(
            [40.0, 41.0, 39.5], region_id="sao-paulo",
            region_continent=Continent.SA, day=3, **br,
        ),
        make_ping(
            [120.0], provider_code="AWS", region_id="virginia",
            region_continent=Continent.NA, **br,
        ),
        # Atlas probes sharing p1's <city, ASN> and regions (Fig. 16).
        make_ping([50.0, 51.0, 49.0], probe_id="a1", **atlas),
        make_ping(
            [30.5, 31.5], platform="atlas", probe_id="a1", region_id="far", day=1
        ),
        make_ping([2.0, 1.5], probe_id="a2", **atlas, **eg),
        make_ping(
            [3.5], platform="atlas", probe_id="a2", region_id="far",
            region_continent=Continent.AF, **eg,
        ),
        make_ping([60.0], probe_id="a3", city_key=(1, 1), **atlas),
    ]


def edge_case_dataset():
    """The records above: the first ten as one block, the rest as
    another."""
    records = edge_case_records()
    dataset = dataset_of(*records[:10])
    dataset.add_ping_block(ping_block_from_records(records[10:]))
    return dataset


@pytest.fixture(scope="module")
def stored_campaign(dataset, tmp_path_factory):
    """Blocks of the shared campaign, one store unit (and shard, with
    its own probe and region tables) per block."""
    store = DatasetStore.create(tmp_path_factory.mktemp("ping-parity") / "run")
    blocks = itertools.islice(dataset.ping_blocks(), STORED_BLOCKS)
    for index, block in enumerate(blocks):
        store.flush_unit(
            f"speedchecker:{index:03d}",
            ping_block=block,
            trace_block=trace_block_from_records([]),
        )
    return store.dataset()


@pytest.fixture(params=["campaign", "store", "edge cases", "empty"])
def pings(request, dataset):
    if request.param == "campaign":
        return dataset
    if request.param == "store":
        return request.getfixturevalue("stored_campaign")
    if request.param == "edge cases":
        return edge_case_dataset()
    return MeasurementDataset()


def outcome(analysis, *args, **kwargs):
    """The repr of what ``analysis`` returns, or of what it raises."""
    try:
        return repr(analysis(*args, **kwargs))
    except ValueError as error:
        return repr(error)


class TestNearest:
    @pytest.mark.parametrize("platform", PLATFORMS)
    @pytest.mark.parametrize("same_continent_only", [True, False])
    def test_nearest_by_probe(self, pings, platform, same_continent_only):
        assert repr(
            nearest_by_probe(pings, platform, same_continent_only=same_continent_only)
        ) == repr(
            oracle.nearest_by_probe(
                pings, platform, same_continent_only=same_continent_only
            )
        )

    @pytest.mark.parametrize("platform", PLATFORMS)
    def test_samples_by_continent(self, pings, platform):
        assert repr(nearest_samples_by_continent(pings, platform)) == repr(
            oracle.nearest_samples_by_continent(pings, platform)
        )

    @pytest.mark.parametrize("platform", PLATFORMS)
    def test_samples_by_country(self, pings, platform):
        assert repr(nearest_samples_by_country(pings, platform)) == repr(
            oracle.nearest_samples_by_country(pings, platform)
        )

    def test_winner_follows_the_left_fold(self):
        nearest = nearest_by_probe(edge_case_dataset(), "speedchecker")
        assert nearest.region_for("p1") == ("GCP", "near")
        assert nearest.region_for("p2") == ("GCP", "a")


class TestComparison:
    def test_platform_differences(self, pings):
        assert outcome(
            platform_differences, pings, np.random.default_rng(5), min_samples=1
        ) == outcome(
            oracle.platform_differences,
            pings,
            np.random.default_rng(5),
            min_samples=1,
        )

    def test_matched_city_asn_differences(self, pings):
        kwargs = dict(min_samples=1, min_groups=1)
        assert repr(
            matched_city_asn_differences(pings, np.random.default_rng(5), **kwargs)
        ) == repr(
            oracle.matched_city_asn_differences(
                pings, np.random.default_rng(5), **kwargs
            )
        )


class TestIntercontinental:
    @pytest.mark.parametrize(
        "countries",
        [("DZ", "EG", "KE", "ZA"), ("AR", "BR", "CL"), ("DE", "EG", "BR")],
    )
    def test_nearest_region_samples(self, pings, countries):
        args = ("speedchecker", Protocol.TCP, countries, tuple(Continent))
        assert repr(_nearest_region_samples(pings, *args)) == repr(
            oracle.nearest_region_samples(pings, *args)
        )


class TestProvidersAndComposition:
    @pytest.mark.parametrize("platform", PLATFORMS)
    def test_provider_consistency(self, pings, platform):
        assert repr(provider_consistency(pings, platform, min_samples=1)) == repr(
            oracle.provider_consistency(pings, platform, min_samples=1)
        )

    @pytest.mark.parametrize("platform", PLATFORMS)
    def test_dataset_composition(self, pings, platform):
        assert outcome(dataset_composition, pings, platform) == outcome(
            oracle.dataset_composition, pings, platform
        )


class TestTemporalAndStats:
    @pytest.mark.parametrize("protocol", [Protocol.TCP, Protocol.ICMP])
    @pytest.mark.parametrize("min_samples_per_day", [1, 20])
    def test_temporal_report(self, pings, protocol, min_samples_per_day):
        kwargs = dict(protocol=protocol, min_samples_per_day=min_samples_per_day)
        assert outcome(temporal_report, pings, **kwargs) == outcome(
            oracle.temporal_report, pings, **kwargs
        )

    def test_run_stats(self, world, pings):
        assert repr(run_stats(world, pings)) == repr(oracle.run_stats(world, pings))


class TestProtocolsTcpSide:
    @pytest.mark.parametrize("backing", ["dataset", "stored_campaign"])
    def test_protocol_comparison(
        self, request, backing, resolved_traces, oracle_traces
    ):
        pings = request.getfixturevalue(backing)
        assert repr(protocol_comparison(pings, resolved_traces)) == repr(
            trace_oracle.protocol_comparison(pings, oracle_traces)
        )
