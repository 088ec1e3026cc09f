"""Data-placement interface: mapping lines to home LLC slices.

A placement policy answers one question — *which LLC slice is the home of
this line for this requester?* — and may observe accesses to learn
(R-NUCA's page classification).  When an observation changes a line's
home (R-NUCA private→shared transition), the protocol engine migrates
directory state lazily on the next access.
"""

from __future__ import annotations

import abc


class Placement(abc.ABC):
    """Maps line addresses to home slices."""

    @abc.abstractmethod
    def home_for(self, line_addr: int, requester: int, is_ifetch: bool) -> int:
        """The home LLC slice for ``line_addr`` as seen by ``requester``."""

    def observe_access(self, line_addr: int, requester: int, is_ifetch: bool) -> None:
        """Learning hook, called once per L1 miss before home resolution."""

    @property
    def homes_depend_on_requester(self) -> bool:
        """Whether different requesters can see different homes.

        True only for R-NUCA instruction clustering, where each cluster
        keeps its own copy (read-only, so no cross-home coherence needed).
        """
        return False


class StaticNuca(Placement):
    """S-NUCA: address-interleave every line across all LLC slices."""

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores

    def home_for(self, line_addr: int, requester: int, is_ifetch: bool) -> int:
        return line_addr % self.num_cores
