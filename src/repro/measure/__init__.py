"""Measurement engines: ping, traceroute, and the campaign scheduler."""

from repro.measure.campaign import (
    run_campaign,
    run_case_study,
    run_intercontinental_study,
)
from repro.measure.engine import MeasurementEngine
from repro.measure.io import load_dataset, save_dataset
from repro.measure.path import InterconnectKind, PlannedHop, PlannedPath
from repro.measure.requests import (
    PingRequest,
    PingRequests,
    TraceRequest,
    TraceRequests,
)
from repro.measure.results import (
    MeasurementDataset,
    PingBlock,
    PingMeasurement,
    Protocol,
    TraceHop,
    TracerouteMeasurement,
)
from repro.measure.targets import RegionTargeter

__all__ = [
    "InterconnectKind",
    "MeasurementDataset",
    "MeasurementEngine",
    "PingBlock",
    "PingMeasurement",
    "PingRequest",
    "PingRequests",
    "PlannedHop",
    "PlannedPath",
    "Protocol",
    "RegionTargeter",
    "TraceHop",
    "TraceRequest",
    "TraceRequests",
    "TracerouteMeasurement",
    "load_dataset",
    "run_campaign",
    "run_case_study",
    "run_intercontinental_study",
    "save_dataset",
]
