"""Shared rename-stage interface.

A renamer consumes instructions from in-flight fragments (in fragment
order) and produces :class:`~repro.core.uop.MicroOp` objects whose sources
are linked to their producers.  It builds each uop from the fragment's
precomputed :class:`~repro.perf.soa.FragMeta` and its oracle binding
(``oracle_start``, ``matched``) and owns the dataflow linking and the
rename *timing*.
"""

from __future__ import annotations

from typing import List, Protocol, Tuple

from repro.core.uop import MicroOp
from repro.frontend.buffers import FragmentInFlight


class Renamer(Protocol):
    """Interface implemented by both rename mechanisms."""

    def cycle(self, now: int, fragments: List[FragmentInFlight]
              ) -> Tuple[List[MicroOp], int]:
        """Rename for one cycle; returns the uops renamed and how many
        of them are on the wrong path."""

    def rebuild(self, fragments: List[FragmentInFlight]) -> None:
        """Reconstruct rename state after a squash."""
