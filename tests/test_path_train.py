"""Properties of the path train (DESIGN.md section 11, "The path train").

``MemoryInterconnect.train`` schedules one request -- background
evictions, PosMap paths, the demand path -- from the arrival cycle, the
controller's clock and two counts.  The flat model keeps the paper's
serial train; the channel model starts each path's row activations under
its predecessor's write-back half (``W = B // 2``).  What must hold for
any geometry, including odd bursts and arrays slower than half a burst
(``W < L``):

* everything but the completion and the read-done mark is public: the two
  marks, the start and the cycle the demand path activates are the same
  for any two leaves;
* the completion and the read-done mark (``ready``, when the demand block
  is on chip: early data return) are monotone in the arrival and in the
  controller's clock;
* ``ready`` is the completion on the flat model (the opaque ``T`` has no
  read/write split) and on the channel model lies between the PosMap mark
  and the completion, at most ``W`` before it;
* on idle banks ``L + n*B <= cost <= n*T``, the left side met iff
  ``W >= L``, and with ``W < L`` every step exposes exactly ``L - W``;
* a lone path on idle memory costs ``T`` on both models and its block is
  ready after ``L + (B - W)`` on the channel model, and every charged path
  is counted exactly once.
"""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DRAMConfig, ORAMConfig
from repro.memory.interconnect import build_interconnect

GEOMETRY = dict(
    levels=st.integers(min_value=4, max_value=9),
    bucket_size=st.integers(min_value=1, max_value=5),
    block_shift=st.integers(min_value=5, max_value=8),
    bandwidth=st.sampled_from([4.0, 12.8, 16.0, 25.6]),
    latency=st.integers(min_value=1, max_value=400),
    channels=st.integers(min_value=1, max_value=5),
    k=st.integers(min_value=0, max_value=6),
)
TRAIN = dict(
    arrival=st.integers(min_value=0, max_value=5_000),
    busy_until=st.integers(min_value=0, max_value=5_000),
    evictions=st.integers(min_value=0, max_value=3),
    extra=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=2**20),
)


def interconnects(
    levels, bucket_size, block_shift, bandwidth, latency, channels, k,
    banks=8, policy="open",
):
    """``(flat, channel)`` over one geometry.  1 MB of nominal capacity keeps
    the plans short; with the 32..256 B blocks that is 12..15 bucket-levels,
    so bursts run from a few cycles (``W < L``) to thousands."""
    oram = ORAMConfig(
        capacity_bytes=1 << 20,
        levels=levels,
        bucket_size=bucket_size,
        block_bytes=1 << block_shift,
        treetop_levels=k,
    )
    dram = dict(bandwidth_gbps=bandwidth, latency_cycles=latency)
    flat = build_interconnect(oram, DRAMConfig(**dram))
    channel = build_interconnect(
        oram,
        DRAMConfig(
            model="channel", num_channels=channels, num_banks=banks,
            page_policy=policy, **dram,
        ),
    )
    return flat, channel


def idle(**geometry):
    """Banks that never make a path wait: one per tile, rows closed."""
    return interconnects(banks=1 << 30, policy="closed", **geometry)


def constants(interconnect):
    latency = interconnect.dram.latency_cycles
    burst = interconnect.path_cycles - latency
    return latency, burst, burst // 2


def warmed(interconnect, seed, paths=12):
    """Leave bank, row and bus state behind, as a run would; returns the
    controller's clock."""
    rng = random.Random(seed)
    now = 0
    for _ in range(paths):
        *_, now = interconnect.train(
            now + rng.choice((0, 0, 90, 900)), now, rng.randrange(2), rng.randrange(3),
            rng.randrange(1 << interconnect.layout.levels >> interconnect._leaf_shift),
        )
    return now


def activation_of(interconnect, *train):
    """Run ``train``; returns ``(marks, the demand path's activation cycle)``."""
    seen = []
    path_completion = interconnect.path_completion

    def spy(leaf, start, head=0):
        seen.append(start - head)
        return path_completion(leaf, start, head)

    interconnect.path_completion = spy
    try:
        return interconnect.train(*train), seen[0]
    finally:
        del interconnect.path_completion


class TestPublicMarks:
    @given(**GEOMETRY, **TRAIN)
    @settings(max_examples=60, deadline=None)
    def test_marks_and_activation_do_not_depend_on_the_leaf(
        self, arrival, busy_until, evictions, extra, seed, **geometry
    ):
        _, channel = interconnects(**geometry)
        clock = warmed(channel, seed)
        twin = copy.deepcopy(channel)
        leaves = 1 << channel.layout.levels >> channel._leaf_shift
        rng = random.Random(seed)
        # arrivals on both sides of the clock, the write-back half included
        request = (max(0, clock + arrival - 2_500), clock, evictions, extra)
        marks_a, activate_a = activation_of(channel, *request, rng.randrange(leaves))
        marks_b, activate_b = activation_of(twin, *request, rng.randrange(leaves))
        assert marks_a[:3] == marks_b[:3]
        assert activate_a == activate_b
        assert channel.hidden_latency_cycles >= 0

    @given(**GEOMETRY, **TRAIN)
    @settings(max_examples=60, deadline=None)
    def test_marks_are_ordered_and_a_padding_train_ends_at_its_mark(
        self, arrival, busy_until, evictions, extra, seed, **geometry
    ):
        for interconnect in interconnects(**geometry):
            start, evicted, walked, ready, done = interconnect.train(
                arrival, busy_until, evictions, extra, seed % 16
            )
            assert start == max(arrival, busy_until)
            assert start <= evicted <= walked < ready <= done
            assert (evicted == start) == (evictions == 0)
            assert (walked == evicted) == (extra == 0)
        for interconnect in interconnects(**geometry):
            padding = interconnect.train(arrival, busy_until, 1, 0, None)
            assert padding == (start,) + (padding[1],) * 4
            assert start < padding[1] <= start + interconnect.path_cycles


def delayed_trains(interconnect, later, arrival, busy_until, evictions, extra, seed):
    """The marks of one train on warmed state, of its twin arriving
    ``later`` cycles later and of its twin behind a clock ``later`` cycles
    later."""
    clock = warmed(interconnect, seed) if interconnect.model == "channel" else 0
    arrival_twin = copy.deepcopy(interconnect)
    clock_twin = copy.deepcopy(interconnect)
    base = (clock + arrival, clock + busy_until)
    return (
        interconnect.train(*base, evictions, extra, 3),
        arrival_twin.train(base[0] + later, base[1], evictions, extra, 3),
        clock_twin.train(base[0], base[1] + later, evictions, extra, 3),
    )


class TestMonotone:
    @given(later=st.integers(min_value=0, max_value=3_000), **GEOMETRY, **TRAIN)
    @settings(max_examples=60, deadline=None)
    def test_completion_is_monotone_in_arrival_and_in_the_clock(
        self, later, arrival, busy_until, evictions, extra, seed, **geometry
    ):
        for interconnect in interconnects(**geometry):
            marks = delayed_trains(
                interconnect, later, arrival, busy_until, evictions, extra, seed
            )
            done, done_arrival, done_clock = (train[-1] for train in marks)
            assert done <= done_arrival <= done + later
            assert done <= done_clock <= done + later

    @given(later=st.integers(min_value=0, max_value=3_000), **GEOMETRY, **TRAIN)
    @settings(max_examples=60, deadline=None)
    def test_ready_is_monotone_in_arrival_and_in_the_clock(
        self, later, arrival, busy_until, evictions, extra, seed, **geometry
    ):
        for interconnect in interconnects(**geometry):
            marks = delayed_trains(
                interconnect, later, arrival, busy_until, evictions, extra, seed
            )
            ready, ready_arrival, ready_clock = (train[3] for train in marks)
            assert ready <= ready_arrival <= ready + later
            assert ready <= ready_clock <= ready + later


class TestEarlyDataReturn:
    @given(**GEOMETRY, **TRAIN)
    @settings(max_examples=60, deadline=None)
    def test_ready_is_the_completion_on_flat_and_inside_the_write_back_half_on_channel(
        self, arrival, busy_until, evictions, extra, seed, **geometry
    ):
        flat, channel = interconnects(**geometry)
        *_, ready, done = flat.train(arrival, busy_until, evictions, extra, seed % 16)
        assert ready == done
        clock = warmed(channel, seed)
        overlap = constants(channel)[2]
        early = channel.early_return_cycles
        # arrivals on both sides of the clock, the write-back half included
        _, _, walked, ready, done = channel.train(
            max(0, clock + arrival - 2_500), clock, evictions, extra, seed % 16
        )
        assert walked <= ready <= done
        assert done - ready <= overlap
        assert channel.early_return_cycles - early == done - ready

    @given(start=st.integers(min_value=0, max_value=10_000), **GEOMETRY)
    @settings(max_examples=40, deadline=None)
    def test_a_lone_path_on_idle_memory_is_ready_after_its_read_half(
        self, start, **geometry
    ):
        flat, channel = idle(**geometry)
        latency, burst, overlap = constants(channel)
        assert flat.train(start, 0, 0, 0, 5)[3] == start + flat.path_cycles
        assert channel.train(start, 0, 0, 0, 5)[3] == start + latency + (burst - overlap)
        assert channel.early_return_cycles == overlap

    def test_the_read_half_of_the_tpcc_geometry(self):
        """``trace_tpcc_write``'s geometry: 26 nominal levels, a 4-level
        treetop, 22 off-chip bucket-levels x 1,024 B (Z = 4, 128 B blocks,
        read + write-back) over 4 x 16 B/cycle is B = 352 behind L = 100,
        T = 452.  W = 176, so the block is on chip at L + (B - W) = 276,
        the path done at 452."""
        oram = ORAMConfig(bucket_size=4, treetop_levels=4)
        dram = DRAMConfig(model="channel", num_channels=4)
        interconnect = build_interconnect(oram, dram)
        assert constants(interconnect) == (100, 352, 176)
        assert interconnect.train(0, 0, 0, 0, 5)[3:] == (276, 452)


class TestIdleBanks:
    @given(**GEOMETRY, **TRAIN)
    @settings(max_examples=80, deadline=None)
    def test_a_train_costs_between_the_pipelined_and_the_serial_bound(
        self, arrival, busy_until, evictions, extra, seed, **geometry
    ):
        flat, channel = idle(**geometry)
        latency, burst, overlap = constants(channel)
        paths = evictions + extra + 1
        start, *_, done = channel.train(arrival, arrival, evictions, extra, seed % 16)
        cost = done - start
        assert latency + paths * burst <= cost <= paths * channel.path_cycles
        # what does not fit under the write-back half stays exposed, once
        # per step of the train
        exposed = max(0, latency - overlap)
        assert cost == latency + paths * burst + (paths - 1) * exposed
        if paths > 1:
            assert (cost == latency + paths * burst) == (overlap >= latency)
        assert channel.hidden_latency_cycles == paths * channel.path_cycles - cost
        # the flat model keeps the paper's serial train
        flat_start, *_, flat_done = flat.train(
            arrival, busy_until, evictions, extra, seed % 16
        )
        assert flat_done - flat_start == paths * flat.path_cycles

    @given(**GEOMETRY, **TRAIN)
    @settings(max_examples=60, deadline=None)
    def test_a_request_that_waited_out_the_write_back_half_pays_bursts_only(
        self, arrival, busy_until, evictions, extra, seed, **geometry
    ):
        _, channel = idle(**geometry)
        latency, burst, overlap = constants(channel)
        paths = evictions + extra + 1
        clock = arrival + overlap + busy_until  # arrived >= W before the clock
        start, *_, done = channel.train(arrival, clock, evictions, extra, seed % 16)
        assert start == clock
        assert done - start == paths * (burst + max(0, latency - overlap))

    @given(start=st.integers(min_value=0, max_value=10_000), **GEOMETRY)
    @settings(max_examples=40, deadline=None)
    def test_a_lone_path_on_idle_memory_costs_the_public_cost_on_both_models(
        self, start, **geometry
    ):
        for interconnect in idle(**geometry):
            marks = interconnect.train(start, 0, 0, 0, 5)
            assert marks[:3] == (start, start, start)
            assert marks[4] == start + interconnect.path_cycles
            assert interconnect.path_completion(5, marks[4] + 7) == (
                marks[4] + 7 + interconnect.path_cycles
            )
            assert interconnect.summary().get("hidden_latency_cycles", 0) == 0


class TestEveryPathIsCountedOnce:
    @given(
        requests=st.lists(
            st.tuples(
                st.integers(0, 2_000), st.integers(0, 2), st.integers(0, 3), st.booleans()
            ),
            max_size=30,
        ),
        **GEOMETRY,
    )
    @settings(max_examples=40, deadline=None)
    def test_streamed_plus_untracked_is_every_charged_path(self, requests, **geometry):
        for interconnect in interconnects(**geometry):
            clock = now = streamed = untracked = 0
            for gap, evictions, extra, padding in requests:
                now += gap
                if padding:
                    *_, clock = interconnect.train(now, clock, 1, 0, None)
                    untracked += 1
                else:
                    *_, clock = interconnect.train(now, clock, evictions, extra, gap % 16)
                    streamed += 1
                    untracked += evictions + extra
            assert interconnect.streamed_paths == streamed
            assert interconnect.untracked_paths == untracked
            treetop_hits = interconnect.state_dict()["treetop_hits"]
            assert treetop_hits == geometry["k"] * (streamed + untracked)
            if interconnect.model == "channel":
                reports = interconnect.state_dict()["channels"]
                assert sum(r["bytes_moved"] for r in reports) == (
                    (streamed + untracked) * interconnect.bytes_per_path
                )
