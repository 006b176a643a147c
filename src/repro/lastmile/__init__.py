"""Last-mile access models: home WiFi, cellular, and managed wired."""

from repro.lastmile.base import AccessKind, LastMileDraw, LastMileModel
from repro.lastmile.fiveg import FiveGLastMile
from repro.lastmile.models import CellularLastMile, HomeWifiLastMile, WiredLastMile

__all__ = [
    "AccessKind",
    "CellularLastMile",
    "FiveGLastMile",
    "HomeWifiLastMile",
    "LastMileDraw",
    "LastMileModel",
    "WiredLastMile",
]
