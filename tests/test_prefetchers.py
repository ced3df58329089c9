"""Unit tests for the traditional stream prefetcher.

These pin the *fixed* training behaviour: a trained stream advances its
head past the window it just predicted (instead of re-issuing ``depth``
overlapping prefetches on every subsequent miss).
"""

from repro.config import PrefetchConfig
from repro.prefetch.stream import StreamPrefetcher


def make_stream(num_streams=4, depth=2, train=2):
    return StreamPrefetcher(
        PrefetchConfig(num_streams=num_streams, depth=depth, train_threshold=train)
    )


class TestStreamPrefetcher:
    def test_trains_on_ascending_misses(self):
        pf = make_stream()
        assert pf.on_demand_miss(10) == []
        assert pf.on_demand_miss(11) == []
        assert pf.on_demand_miss(12) == [13, 14]

    def test_keeps_following_stream_past_window(self):
        pf = make_stream()
        for addr in (10, 11, 12):
            pf.on_demand_miss(addr)
        # 13 and 14 were prefetched; the next miss the stream sees is 15,
        # one past the predicted window, and the stream follows it.
        assert pf.on_demand_miss(15) == [16, 17]

    def test_no_duplicate_prefetches_across_windows(self):
        pf = make_stream()
        issued = []
        for addr in (10, 11, 12, 15, 18):
            issued.extend(pf.on_demand_miss(addr))
        assert len(issued) == len(set(issued))

    def test_window_remiss_does_not_reissue(self):
        # A miss *inside* the just-predicted window (the prefetch did not
        # arrive in time) must not re-issue the overlapping window.
        pf = make_stream()
        for addr in (10, 11):
            pf.on_demand_miss(addr)
        assert pf.on_demand_miss(12) == [13, 14]
        assert pf.issued == 2
        assert pf.on_demand_miss(13) == []
        assert pf.issued == 2

    def test_descending_stream(self):
        pf = make_stream()
        pf.on_demand_miss(20)
        pf.on_demand_miss(19)
        picks = pf.on_demand_miss(18)
        assert picks == [17, 16]
        # The backward stream advanced past its window too.
        assert pf.on_demand_miss(15) == [14, 13]

    def test_random_misses_never_predict(self):
        pf = make_stream()
        for addr in (5, 100, 42, 7, 9999, 3):
            assert pf.on_demand_miss(addr) == []

    def test_multiple_concurrent_streams(self):
        pf = make_stream(num_streams=2)
        # Interleave two ascending streams.
        pf.on_demand_miss(10)
        pf.on_demand_miss(500)
        pf.on_demand_miss(11)
        pf.on_demand_miss(501)
        assert pf.on_demand_miss(12) == [13, 14]
        assert pf.on_demand_miss(502) == [503, 504]

    def test_stream_table_replacement(self):
        pf = make_stream(num_streams=1)
        pf.on_demand_miss(10)
        pf.on_demand_miss(11)
        # A new stream evicts the old one.
        pf.on_demand_miss(1000)
        pf.on_demand_miss(1001)
        assert pf.on_demand_miss(1002) == [1003, 1004]

    def test_depth_config(self):
        pf = make_stream(depth=4)
        pf.on_demand_miss(0)
        pf.on_demand_miss(1)
        assert pf.on_demand_miss(2) == [3, 4, 5, 6]

    def test_issue_counter(self):
        pf = make_stream()
        # Train at 3 (issues 4, 5), then follow the stream at 6 (issues
        # 7, 8): four issued prefetches, none overlapping.
        for addr in (1, 2, 3, 6):
            pf.on_demand_miss(addr)
        assert pf.issued == 4
