"""Host-memory substrate: budget splits and page-granular staging buffers."""

from .budget import MemoryBudget
from .pagebuffer import ByteStreamPager, RecordPageBuffer
from .pagecache import UNCACHED_KLASSES, WRITEBACK_KLASSES, PageCache

__all__ = [
    "MemoryBudget",
    "ByteStreamPager",
    "RecordPageBuffer",
    "PageCache",
    "UNCACHED_KLASSES",
    "WRITEBACK_KLASSES",
]
