"""Unit tests for the Markov (correlation) prefetcher."""

from repro.config import PrefetchConfig
from repro.prefetch.markov import MarkovPrefetcher


def make(depth=2, width=4, entries=16):
    return MarkovPrefetcher(
        PrefetchConfig(num_streams=width, depth=depth),
        table_entries=entries,
    )


class TestMarkov:
    def test_learns_successor(self):
        pf = make()
        assert pf.on_demand_miss(10) == []   # nothing known yet
        assert pf.on_demand_miss(99) == []   # records 10 -> 99
        assert pf.on_demand_miss(10) == [99]  # prediction from history
        assert 99 in pf._table[10]

    def test_predicts_learned_successor(self):
        pf = make()
        for _ in range(3):
            pf.on_demand_miss(10)
            pf.on_demand_miss(99)
        picks = pf.on_demand_miss(10)
        assert picks == [99]

    def test_follows_pointer_chain(self):
        pf = make(depth=1)
        chain = [5, 17, 3, 42]
        for _ in range(2):
            for addr in chain:
                pf.on_demand_miss(addr)
        # Mid-chain predictions follow the learned next hop.
        assert pf.on_demand_miss(5) == [17]
        assert pf.on_demand_miss(17) == [3]

    def test_most_recent_successor_wins(self):
        pf = make(depth=1)
        pf.on_demand_miss(10)
        pf.on_demand_miss(20)
        pf.on_demand_miss(10)
        pf.on_demand_miss(30)  # 10 -> 30 most recently
        assert pf.on_demand_miss(10) == [30]

    def test_successor_width_bounded(self):
        pf = make(width=2)
        for successor in (1, 2, 3, 4):
            pf.on_demand_miss(10)
            pf.on_demand_miss(successor)
        assert len(pf._table[10]) <= 2

    def test_table_capacity_lru(self):
        pf = make(entries=2)
        for head in (1, 2, 3):
            pf.on_demand_miss(head)
            pf.on_demand_miss(head + 100)
        assert len(pf._table) <= 2
        assert 1 not in pf._table  # evicted as the oldest

    def test_repeat_miss_not_self_successor(self):
        pf = make()
        pf.on_demand_miss(10)
        pf.on_demand_miss(10)
        assert 10 not in pf._table.get(10, [])

    def test_prediction_refreshes_lru_recency(self):
        # Regression: the prediction-side table read must refresh the
        # entry's LRU recency (only the trainer side used to), or hot
        # predicted-from entries age out while stale trained-into entries
        # survive.  The repeated self-miss keeps the trainer away from
        # entry 3, so only the prediction read can refresh it.
        pf = make(depth=1, entries=2)
        for addr in (2, 0, 3, 3, 3, 5):
            pf.on_demand_miss(addr)
        assert pf.on_demand_miss(3) == [5]
        assert list(pf._table) == [5, 3]  # 3 is MRU, 5 is the LRU victim

    def test_in_flight_prediction_suppressed_and_not_counted(self):
        pf = make(depth=1)
        pf.on_demand_miss(10)
        pf.on_demand_miss(99)  # trains 10 -> 99
        pf.on_demand_miss(10)  # wait, trains 99 -> 10 and predicts [99]
        assert pf.issued == 1
        # 99 never came back as a demand miss: the prefetch is still in
        # flight, so re-predicting it is suppressed and not counted.
        assert pf.on_demand_miss(10) == []
        assert pf.issued == 1

    def test_in_flight_retired_when_address_misses(self):
        pf = make(depth=1)
        pf.on_demand_miss(10)
        pf.on_demand_miss(99)
        assert pf.on_demand_miss(10) == [99]
        # The line arrived (or was lost): retired, and this miss's own
        # prediction (99 -> 10) counts as a fresh issue.
        assert pf.on_demand_miss(99) == [10]
        assert pf.on_demand_miss(10) == [99]
        assert pf.issued == 3

    def test_no_duplicate_in_flight_predictions(self):
        pf = make(depth=2, width=4)
        in_flight = set()
        chain = [5, 17, 3, 42, 5, 17, 3, 42, 5, 5, 17, 17, 3, 42]
        for addr in chain:
            in_flight.discard(addr)
            for pick in pf.on_demand_miss(addr):
                assert pick not in in_flight
                in_flight.add(pick)

    def test_system_label_builds(self):
        from repro.analysis.experiments import experiment_config
        from repro.sim.system import SecureSystem

        system = SecureSystem.build("oram_mpre", 256, experiment_config())
        assert system.prefetcher is not None
