"""Reactive-NUCA placement (Hardavellas et al., ISCA 2009; Section 2.1/3.3).

R-NUCA classifies **pages** at runtime using the first-touch heuristic:

* a page first touched by core ``c`` is *private* and its lines are placed
  in ``c``'s local LLC slice;
* when a second core touches the page it becomes *shared* and its lines
  are address-interleaved across all slices (no replication);
* instruction pages are placed with **rotational interleaving** at
  cluster level (one copy per 4-core cluster), which is R-NUCA's only form
  of replication.

The locality-aware protocol reuses R-NUCA's private/shared placement but
*disables* instruction clustering — it replicates instructions through the
general locality-aware mechanism instead (Section 2.1).

Page reclassification changes a line's home; the protocol engine detects
the change via its ``active_home`` bookkeeping and migrates lazily.
"""

from __future__ import annotations

import enum

from repro.network.topology import cluster_members, cluster_of
from repro.placement.base import Placement


class PageClass(enum.IntEnum):
    PRIVATE = 0
    SHARED = 1


class ReactiveNuca(Placement):
    """First-touch page classification with optional instruction clustering."""

    #: R-NUCA replicates instructions per cluster of this many cores.
    INSTRUCTION_CLUSTER = 4

    def __init__(
        self,
        num_cores: int,
        lines_per_page: int,
        instruction_clustering: bool = True,
    ) -> None:
        self.num_cores = num_cores
        self.lines_per_page = lines_per_page
        self.instruction_clustering = instruction_clustering
        side = int(num_cores ** 0.5)
        self._side = side
        #: page -> (classification, first-touch owner core)
        self._pages: dict[int, tuple[PageClass, int]] = {}
        self.private_pages = 0
        self.shared_transitions = 0

    # -- classification ---------------------------------------------------------
    def page_of(self, line_addr: int) -> int:
        return line_addr // self.lines_per_page

    def classification(self, line_addr: int) -> tuple[PageClass, int] | None:
        """Current (class, owner) of the page, or None if untouched."""
        return self._pages.get(self.page_of(line_addr))

    def observe_access(self, line_addr: int, requester: int, is_ifetch: bool) -> None:
        if is_ifetch and self.instruction_clustering:
            return  # instruction placement is static
        page = self.page_of(line_addr)
        entry = self._pages.get(page)
        if entry is None:
            self._pages[page] = (PageClass.PRIVATE, requester)
            self.private_pages += 1
            return
        page_class, owner = entry
        if page_class == PageClass.PRIVATE and owner != requester:
            self._pages[page] = (PageClass.SHARED, owner)
            self.private_pages -= 1
            self.shared_transitions += 1

    # -- placement ----------------------------------------------------------------
    def home_for(self, line_addr: int, requester: int, is_ifetch: bool) -> int:
        if is_ifetch and self.instruction_clustering:
            return self._instruction_home(line_addr, requester)
        entry = self._pages.get(self.page_of(line_addr))
        if entry is not None:
            page_class, owner = entry
            if page_class == PageClass.PRIVATE:
                return owner
        return line_addr % self.num_cores

    def _instruction_home(self, line_addr: int, requester: int) -> int:
        """Rotational interleaving: one copy per cluster, rotated slot."""
        cluster = cluster_of(requester, self.INSTRUCTION_CLUSTER, self._side)
        members = cluster_members(cluster, self.INSTRUCTION_CLUSTER, self._side)
        slot = (line_addr + cluster) % len(members)
        return members[slot]

    @property
    def homes_depend_on_requester(self) -> bool:
        return self.instruction_clustering
