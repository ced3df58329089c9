"""The traditional stream prefetcher (the section 3.1 / 5.2 strawman)."""

from repro.prefetch.stream import StreamPrefetcher

__all__ = ["StreamPrefetcher"]
