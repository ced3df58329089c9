"""Unit tests for ORAM checkpoint / restore."""

import json
import os

import pytest

from repro.config import ORAMConfig
from repro.oram.checkpoint import (
    CheckpointError,
    dump_oram,
    load_oram,
    restore_oram,
    save_oram,
)
from repro.oram.path_oram import PathORAM
from repro.utils.rng import DeterministicRng


def make_oram(levels=5, seed=3):
    config = ORAMConfig(levels=levels, bucket_size=3, stash_blocks=40, utilization=0.5)
    return PathORAM(config, DeterministicRng(seed))


class TestRoundtrip:
    def test_fresh_oram_roundtrips(self):
        oram = make_oram()
        restored = load_oram(dump_oram(oram))
        restored.check_invariants()
        n = oram.position_map.num_blocks
        assert restored.position_map.num_blocks == n
        for addr in range(n):
            assert restored.position_map.leaf(addr) == oram.position_map.leaf(addr)

    def test_used_oram_roundtrips(self):
        oram = make_oram()
        for addr in range(30):
            oram.access([addr])
            oram.tree.payloads[addr] = bytes([addr]) * 4
        oram.position_map.set_merge_bit(5, 1)
        oram.position_map.set_break_bit(6, 1)
        oram.position_map.set_prefetch_bit(7, 1)
        restored = load_oram(dump_oram(oram))
        restored.check_invariants()
        assert restored.position_map.merge_bit(5) == 1
        assert restored.position_map.break_bit(6) == 1
        assert restored.position_map.prefetch_bit(7) == 1
        assert restored.real_accesses == oram.real_accesses
        # Payloads survive.
        assert restored.tree.payloads == oram.tree.payloads
        for addr in range(30):
            restored.access([addr])
            assert restored.tree.payloads[addr] == bytes([addr]) * 4

    def test_restored_oram_keeps_working(self):
        oram = make_oram()
        for addr in range(20):
            oram.access([addr])
        restored = load_oram(dump_oram(oram))
        for addr in range(40):
            restored.access([addr % restored.position_map.num_blocks])
        restored.drain_stash()
        restored.check_invariants()

    def test_file_roundtrip(self, tmp_path):
        oram = make_oram()
        oram.access([3])
        path = str(tmp_path / "oram.ckpt")
        save_oram(oram, path)
        restored = restore_oram(path)
        restored.check_invariants()

    def test_super_block_state_survives(self):
        oram = make_oram()
        # Merge a pair (shared leaf), then checkpoint.
        leaf = oram.position_map.leaf(8)
        oram.access([9], new_leaf=leaf)
        restored = load_oram(dump_oram(oram))
        assert restored.position_map.group_is_super_block(8, 2)
        # Accessing the restored super block fetches both members.
        blocks = restored.access([8, 9])
        assert set(blocks) == {8, 9}


class TestValidation:
    def test_mid_access_checkpoint_rejected(self):
        oram = make_oram()
        oram.begin_access([1])
        with pytest.raises(RuntimeError):
            dump_oram(oram)
        oram.finish_access()

    def test_version_check(self):
        state = json.loads(dump_oram(make_oram()))
        state["version"] = 999
        with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
            load_oram(json.dumps(state))

    def test_truncated_state_rejected(self):
        state = json.loads(dump_oram(make_oram()))
        state["leaves"] = state["leaves"][:-1]
        with pytest.raises(CheckpointError, match="leaves"):
            load_oram(json.dumps(state))

    def test_corrupted_bucket_caught_by_invariants(self):
        state = json.loads(dump_oram(make_oram()))
        # Move a block to a bucket off its path: restore must refuse.
        for index, bucket in enumerate(state["buckets"]):
            if bucket:
                block = bucket.pop()
                target = (index + 1) % len(state["buckets"])
                block["l"] = (block["l"] + 7) % 32
                state["buckets"][target].append(block)
                break
        with pytest.raises(CheckpointError, match="invariants"):
            load_oram(json.dumps(state))

    def test_checkpoint_error_is_value_error(self):
        # Callers that guarded restore with `except ValueError` keep working.
        assert issubclass(CheckpointError, ValueError)

    def test_garbage_document(self):
        with pytest.raises(CheckpointError, match="malformed checkpoint document"):
            load_oram("{not json")

    def test_non_object_document(self):
        with pytest.raises(CheckpointError, match="expected an object"):
            load_oram("[1, 2, 3]")

    def test_missing_keys_named(self):
        state = json.loads(dump_oram(make_oram()))
        del state["stash"]
        del state["counters"]
        with pytest.raises(CheckpointError, match="missing keys.*stash"):
            load_oram(json.dumps(state))

    def test_bad_geometry_reported(self):
        state = json.loads(dump_oram(make_oram()))
        state["config"]["levels"] = -3
        with pytest.raises(CheckpointError, match="invalid checkpoint geometry"):
            load_oram(json.dumps(state))

    def test_unknown_config_field_reported(self):
        state = json.loads(dump_oram(make_oram()))
        state["config"]["warp_factor"] = 9
        with pytest.raises(CheckpointError, match="invalid checkpoint geometry"):
            load_oram(json.dumps(state))

    def test_malformed_block_record_locates_bucket(self):
        state = json.loads(dump_oram(make_oram()))
        for index, bucket in enumerate(state["buckets"]):
            if bucket:
                del bucket[0]["a"]
                break
        with pytest.raises(CheckpointError, match=f"bucket {index}"):
            load_oram(json.dumps(state))

    def test_bad_base64_payload_reported(self):
        state = json.loads(dump_oram(make_oram()))
        for bucket in state["buckets"]:
            if bucket:
                bucket[0]["d"] = "!!!not-base64!!!"
                break
        with pytest.raises(CheckpointError, match="malformed block record"):
            load_oram(json.dumps(state))

    def test_oversized_stash_rejected(self):
        oram = make_oram()
        state = json.loads(dump_oram(oram))
        donor = next(b[0] for b in state["buckets"] if b)
        state["stash"] = [dict(donor) for _ in range(oram.config.stash_blocks + 1)]
        with pytest.raises(CheckpointError, match="stash"):
            load_oram(json.dumps(state))

    def test_stash_beyond_the_address_space_rejected(self):
        """The stash capacity is soft (a drain that gives up leaves more),
        so a restore bounds the stash by what can exist: one block per
        address, none duplicated."""
        oram = make_oram()
        state = json.loads(dump_oram(oram))
        n = oram.position_map.num_blocks
        state["stash"] = [{"a": addr % n, "l": 0} for addr in range(n + 1)]
        with pytest.raises(CheckpointError, match=f"the address space has {n}"):
            load_oram(json.dumps(state))
        state["stash"] = state["stash"][: oram.config.stash_blocks + 1]
        state["stash"][1] = dict(state["stash"][0])
        with pytest.raises(CheckpointError, match="duplicate block"):
            load_oram(json.dumps(state))

    def test_malformed_counters_reported(self):
        state = json.loads(dump_oram(make_oram()))
        del state["counters"]["real_accesses"]
        with pytest.raises(CheckpointError, match="counters"):
            load_oram(json.dumps(state))


class TestCrashSafety:
    """``save_oram`` must never tear or clobber the previous checkpoint."""

    def test_failed_save_preserves_old_checkpoint(self, tmp_path, monkeypatch):
        path = str(tmp_path / "oram.ckpt")
        oram = make_oram()
        save_oram(oram, path)
        good = open(path).read()

        # Simulate the process dying mid-write: fsync explodes after the
        # payload has been (partially) written to the temp file.
        def boom(fd):
            raise OSError("simulated crash mid-save")

        oram.access([1])
        monkeypatch.setattr(os, "fsync", boom)
        with pytest.raises(OSError, match="simulated crash"):
            save_oram(oram, path)
        monkeypatch.undo()

        # Old checkpoint intact, no temp-file litter.
        assert open(path).read() == good
        assert os.listdir(tmp_path) == ["oram.ckpt"]
        restore_oram(path).check_invariants()

    def test_save_goes_through_rename(self, tmp_path, monkeypatch):
        # The destination must never be opened for writing directly.
        path = str(tmp_path / "oram.ckpt")
        replaced = {}
        real_replace = os.replace

        def spy(src, dst):
            replaced["src"] = src
            replaced["dst"] = dst
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        save_oram(make_oram(), path)
        assert replaced["dst"] == path
        assert replaced["src"] != path
        assert os.path.dirname(replaced["src"]) == os.path.dirname(path)

    def test_save_overwrites_previous(self, tmp_path):
        path = str(tmp_path / "oram.ckpt")
        oram = make_oram()
        save_oram(oram, path)
        oram.access([2])
        save_oram(oram, path)
        restored = restore_oram(path)
        assert restored.real_accesses == oram.real_accesses
