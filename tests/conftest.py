"""Shared fixtures.

The world/dataset/context fixtures are session-scoped: building the
synthetic Internet and running a multi-week campaign is the expensive
part of the pipeline, and every integration test shares one instance.
Tests must treat them as read-only.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# Make tests/helpers.py importable as `helpers` from any test module.
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro import build_world, run_campaign
from repro.experiments import StudyContext

#: Seed and scale used by the shared study fixtures.
STUDY_SEED = 7
STUDY_SCALE = 0.02
STUDY_DAYS = 21


@pytest.fixture(scope="session")
def study():
    """The study world and its three-week campaign, built together.

    The classic campaign draws from the world's shared ``engine`` and
    ``campaign.*`` streams, so it runs on the fresh world before any
    test can use it: the dataset does not depend on test order.
    """
    world = build_world(seed=STUDY_SEED, scale=STUDY_SCALE)
    return world, run_campaign(world, days=STUDY_DAYS)


@pytest.fixture(scope="session")
def world(study):
    """A fully-built study world (read-only)."""
    return study[0]


@pytest.fixture(scope="session")
def dataset(study):
    """A three-week campaign over both platforms (read-only)."""
    return study[1]


@pytest.fixture(scope="session")
def context(world, dataset):
    """Shared experiment context with cached resolved traceroutes."""
    return StudyContext(world, dataset)


@pytest.fixture(scope="session")
def resolved_traces(context):
    """The shared dataset's traceroutes as one resolved block."""
    return context.resolved_traces


@pytest.fixture(scope="session")
def reference_resolver(world):
    """The per-record reference resolver, seeded like the shared context's."""
    from oracles.resolver import ReferenceResolver

    return ReferenceResolver(
        world.topology.registry,
        world.topology.ixps,
        rib_coverage=0.97,
        rng=world.rngs.fork("resolver", 0),
    )


@pytest.fixture(scope="session")
def oracle_traces(reference_resolver, dataset):
    """The shared dataset's traceroutes resolved record by record."""
    return reference_resolver.resolve_many(list(dataset.traceroutes()))


@pytest.fixture()
def rng():
    """A fresh, per-test deterministic generator."""
    return np.random.default_rng(1234)


@pytest.fixture()
def store_run_dir(tmp_path):
    """A fresh directory for checkpointed-store runs.

    Lives under pytest's auto-cleaned ``tmp_path``, so run directories
    (manifest, journal, shards) never leak into the working tree.
    """
    return tmp_path / "store-run"
