"""The sharded bank's channel leak, measured from the adversary's view.

A bank routes block ``addr`` to channel ``addr % k``, and which channel a
path goes down is public: each channel has its own pins.  Two worlds
drive :func:`build_bank` directly with the same number of demands -- a
sequential scan and a uniform stream -- and the one observation is the
shard sequence :func:`adversary_view` projects out of the recorder.  Two
statistics of consecutive shards tell the worlds apart:
P(next = prev + 1 mod k) and the conditional entropy H(S_i | S_i-1).  A
chi-squared two-sample test on the step ``(S_i - S_i-1) mod k`` gives the
verdict: PASS when the worlds are indistinguishable, else LEAK with the
entropy gap between the worlds in bits per request.

One channel passes (the two sequences are identical); two and four
channels leak about log2(k) bits of each demand's address.
"""

import math
from collections import Counter

import pytest

from repro.config import SystemConfig
from repro.controller.sharded import build_bank
from repro.observability import InMemoryRecorder, attach_recorder
from repro.security import adversary_view, sequences_indistinguishable
from repro.utils.rng import DeterministicRng

FOOTPRINT = 8192
DEMANDS = 4000
ALPHA = 1e-3

SCAN = list(range(DEMANDS))
_rng = DeterministicRng(11)
UNIFORM = [_rng.randbelow(FOOTPRINT) for _ in range(DEMANDS)]


def shard_sequence(scheme, k, addrs):
    """The channel of every path the bank issues for ``addrs``, in order."""
    bank = build_bank(scheme, FOOTPRINT, SystemConfig(), k)
    recorder = attach_recorder(bank, InMemoryRecorder())
    now = 0
    for addr in addrs:
        now, _ = bank.demand_access(addr, now, False)
    return [shard for shard, _ in adversary_view(recorder.records)]


def successor_rate(shards, k):
    """P(next = prev + 1 mod k)."""
    pairs = list(zip(shards, shards[1:]))
    return sum(1 for a, b in pairs if b == (a + 1) % k) / len(pairs)


def conditional_entropy(shards):
    """H(S_i | S_i-1) in bits, from the bigram counts."""
    pairs = list(zip(shards, shards[1:]))
    joint = Counter(pairs)
    prev = Counter(a for a, _ in pairs)
    return -sum(
        count / len(pairs) * math.log2(count / prev[a])
        for (a, _), count in joint.items()
    )


def verdict(scan, uniform, k):
    steps = [[(b - a) % k for a, b in zip(seq, seq[1:])] for seq in (scan, uniform)]
    _, p = sequences_indistinguishable(*steps, k)
    if p > ALPHA:
        return "PASS"
    gap = abs(conditional_entropy(uniform) - conditional_entropy(scan))
    return f"LEAK({gap:.3f} bits/request)"


@pytest.mark.parametrize("scheme", ["oram", "dyn"])
@pytest.mark.parametrize(
    "k, expected",
    [
        (1, "PASS"),
        (2, "LEAK(1.000 bits/request)"),
        (4, "LEAK(1.999 bits/request)"),
    ],
    ids=["k1", "k2", "k4"],
)
def test_channel_sequence_verdict(scheme, k, expected):
    scan = shard_sequence(scheme, k, SCAN)
    uniform = shard_sequence(scheme, k, UNIFORM)
    # Same demand count, one path per demand, in both worlds.
    assert len(scan) == len(uniform) == DEMANDS
    assert verdict(scan, uniform, k) == expected
    if k == 1:
        assert scan == uniform
        return
    # The scan walks the channels in order; the uniform stream does not.
    assert successor_rate(scan, k) == 1.0
    assert conditional_entropy(scan) == 0.0
    assert successor_rate(uniform, k) == pytest.approx(1 / k, abs=0.03)
    assert conditional_entropy(uniform) == pytest.approx(math.log2(k), abs=0.01)
