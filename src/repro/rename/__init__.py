"""Rename mechanisms: monolithic (sequential) and parallel (Section 4)."""

from repro.rename.base import Renamer
from repro.rename.monolithic import MonolithicRenamer
from repro.rename.parallel import ParallelRenamer

__all__ = [
    "Renamer",
    "MonolithicRenamer",
    "ParallelRenamer",
]
