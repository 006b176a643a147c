"""The shared study fixtures do not depend on test order."""

from repro import run_campaign

#: Pings and traceroutes of the three-week campaign on a fresh seed-7,
#: 2%-scale world (``tests/conftest.py``).
FRESH_COUNTS = (40_383, 14_428)


def test_dataset_ignores_campaigns_run_on_the_world_first(world, request):
    """A campaign run on the shared world before ``dataset`` is first
    requested leaves the dataset as a fresh world gives it."""
    run_campaign(world, days=1)
    dataset = request.getfixturevalue("dataset")
    assert (dataset.ping_count, dataset.traceroute_count) == FRESH_COUNTS
