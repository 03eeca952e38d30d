"""A minimal extent file system over the simulated SSD.

Responsibilities:

* own the :class:`~repro.ssd.device.SimulatedSSD` instance,
* hand out :class:`~repro.ssd.file.PageFile` / ``ArrayFile`` objects by
  name,
* stagger each new file's starting channel so that concurrently written
  logs do not all queue on channel 0 (the paper's §V-A3 "spans multiple
  logs across all available SSD channels").

There is no directory hierarchy; names are flat strings and creating an
existing name is an error unless ``overwrite=True``.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..config import SimConfig
from ..errors import StorageError
from ..mem.pagecache import UNCACHED_KLASSES, WRITEBACK_KLASSES, PageCache
from .array import DeviceArray
from .device import SimulatedSSD
from .file import ArrayFile, PageFile, SimFileBase


class SimFS:
    """Flat namespace of simulated files on one simulated SSD (or array)."""

    def __init__(self, config: Optional[SimConfig] = None, device: Optional[SimulatedSSD] = None) -> None:
        if device is None:
            if config is None:
                raise StorageError("SimFS needs a config or an existing device")
            device = DeviceArray(config) if config.num_devices > 1 else SimulatedSSD(config)
        self.device = device
        self.config = device.config
        self._files: Dict[str, SimFileBase] = {}
        self._next_offset = 0
        #: Budgeted DRAM page cache shared by every cacheable file on
        #: this file system (DESIGN.md §10); ``None`` when disabled.
        self.cache: Optional[PageCache] = None
        if self.config.cache_policy != "none":
            self.cache = PageCache(self.config.cache_pages)

    # -- creation ---------------------------------------------------------

    def _allocate_offset(self) -> int:
        off = self._next_offset
        self._next_offset = (self._next_offset + 1) % self.device.channels
        return off

    def _register(self, f: SimFileBase, overwrite: bool) -> None:
        if f.name in self._files and not overwrite:
            raise StorageError(f"file {f.name!r} already exists")
        if self.cache is not None:
            if f.name in self._files:
                # Re-registering a name (recovery's adopt path) replaces
                # the pages behind it; cached entries are stale.
                self.cache.invalidate_file(f.name)
            if f.klass not in UNCACHED_KLASSES:
                f.cache = self.cache
                f.writeback = f.klass in WRITEBACK_KLASSES
        self._files[f.name] = f

    def create_page_file(
        self,
        name: str,
        klass: str,
        overwrite: bool = False,
        affinity: Optional[int] = None,
    ) -> PageFile:
        """Create an append-only page log.

        ``affinity`` is the interval-affinity placement hint for a
        device array (DESIGN.md §14): under the ``"affinity"`` policy
        the file lands whole on device ``affinity % num_devices``.  On a
        single device, or under ``"stripe"``, the hint is inert.
        """
        f = PageFile(
            self.device, name, klass,
            channel_offset=self._allocate_offset(), device_affinity=affinity,
        )
        self._register(f, overwrite)
        return f

    def adopt_page_file(
        self,
        name: str,
        klass: str,
        channel_offset: int,
        affinity: Optional[int] = None,
    ) -> PageFile:
        """Recreate a page file at a *recorded* channel offset.

        Recovery uses this to rebuild multi-log / edge-log files on a
        fresh file system with exactly the channel placement they had in
        the crashed run, without disturbing the round-robin allocator --
        ``_next_offset`` is restored separately via
        :attr:`next_channel_offset`, so files created after the resume
        point land on the same channels as in an uninterrupted run.
        Callers that created the file with an ``affinity`` hint pass the
        same hint here so device-array placement is restored too.
        """
        f = PageFile(
            self.device, name, klass,
            channel_offset=channel_offset, device_affinity=affinity,
        )
        self._register(f, overwrite=True)
        return f

    @property
    def next_channel_offset(self) -> int:
        """Round-robin allocator state (checkpointed and restored)."""
        return self._next_offset

    @next_channel_offset.setter
    def next_channel_offset(self, value: int) -> None:
        self._next_offset = int(value) % self.device.channels

    def create_array_file(
        self,
        name: str,
        klass: str,
        array: np.ndarray,
        entry_bytes: int,
        overwrite: bool = False,
        affinity: Optional[int] = None,
    ) -> ArrayFile:
        """Create a fixed-entry-size array-backed file."""
        f = ArrayFile(
            self.device, name, klass, array, entry_bytes,
            channel_offset=self._allocate_offset(), device_affinity=affinity,
        )
        self._register(f, overwrite)
        return f

    # -- lookup / management ------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._files

    def __len__(self) -> int:
        return len(self._files)

    def get(self, name: str) -> SimFileBase:
        try:
            return self._files[name]
        except KeyError:
            raise StorageError(f"no such file: {name!r}") from None

    def delete(self, name: str) -> None:
        if name not in self._files:
            raise StorageError(f"no such file: {name!r}")
        if self.cache is not None:
            self.cache.invalidate_file(name)
        del self._files[name]

    def names(self) -> list:
        return sorted(self._files)

    @property
    def stats(self):
        """The device's :class:`~repro.ssd.stats.SSDStats`."""
        return self.device.stats
