"""Set-associative write-back caches (Table 1: 32 KB L1, 512 KB shared LLC)."""

from repro.cache.hierarchy import CacheHierarchy, HierarchyAccess
from repro.cache.set_associative import SetAssociativeCache

__all__ = [
    "CacheHierarchy",
    "HierarchyAccess",
    "SetAssociativeCache",
]
