"""The durable store primitives: atomic writes, the log, the memo."""

import os
import pickle

import pytest

from repro.engine.memo import CheckMemo
from repro.errors import CorruptArtifact
from repro.service.store import (
    LOG_MAGIC,
    AppendLog,
    MemoStore,
    atomic_write,
    atomic_write_text,
)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        atomic_write(path, b"one")
        atomic_write(path, b"two")
        with open(path, "rb") as fh:
            assert fh.read() == b"two"

    def test_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        atomic_write(path, b"payload")
        assert os.listdir(tmp_path) == ["snap.bin"]

    def test_text_variant(self, tmp_path):
        path = str(tmp_path / "snap.txt")
        atomic_write_text(path, "héllo")
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == "héllo"

    def test_failure_keeps_previous_content(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        atomic_write(path, b"original")
        with pytest.raises(TypeError):
            atomic_write(path, "not bytes")
        with open(path, "rb") as fh:
            assert fh.read() == b"original"
        assert os.listdir(tmp_path) == ["snap.bin"]


class TestAppendLog:
    def test_roundtrip_in_order(self, tmp_path):
        path = str(tmp_path / "log.bin")
        with AppendLog(path) as log:
            for payload in (b"a", b"bb", b"ccc"):
                log.append(payload)
        assert AppendLog(path).replay() == [b"a", b"bb", b"ccc"]

    def test_empty_and_missing(self, tmp_path):
        path = str(tmp_path / "log.bin")
        assert AppendLog(path).replay() == []
        open(path, "wb").close()
        assert AppendLog(path).replay() == []

    def test_torn_tail_is_truncated_and_recovered(self, tmp_path):
        path = str(tmp_path / "log.bin")
        with AppendLog(path) as log:
            log.append(b"first")
            log.append(b"second")
            log.append(b"third-will-tear")
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 4)          # tear the final record
        log = AppendLog(path)
        assert log.replay() == [b"first", b"second"]
        # The torn bytes are gone: appending continues cleanly.
        log.append(b"fourth")
        log.close()
        assert AppendLog(path).replay() == [b"first", b"second",
                                            b"fourth"]

    def test_torn_header_recovers_too(self, tmp_path):
        path = str(tmp_path / "log.bin")
        with AppendLog(path) as log:
            log.append(b"whole")
        with open(path, "ab") as fh:
            fh.write(b"\x03")              # 1 byte of a future header
        assert AppendLog(path).replay() == [b"whole"]

    def test_mid_log_corruption_raises(self, tmp_path):
        path = str(tmp_path / "log.bin")
        with AppendLog(path) as log:
            log.append(b"first")
            log.append(b"second")
        with open(path, "r+b") as fh:
            fh.seek(len(LOG_MAGIC) + 8)    # first record's payload
            fh.write(b"X")
        with pytest.raises(CorruptArtifact) as excinfo:
            AppendLog(path).replay()
        assert "mid-log corruption" in str(excinfo.value)
        assert excinfo.value.path == path

    def test_bad_magic_raises(self, tmp_path):
        path = str(tmp_path / "log.bin")
        with open(path, "wb") as fh:
            fh.write(b"NOTALOG!" + b"x" * 32)
        with pytest.raises(CorruptArtifact) as excinfo:
            AppendLog(path).replay()
        assert "magic" in str(excinfo.value)


class TestMemoStore:
    def test_extend_and_load(self, tmp_path):
        store = MemoStore(str(tmp_path / "memo.log"))
        entries = [("vcpu", (1, 2, 3), ("finding",)),
                   ("observation", (4, 5, 0, 7), ())]
        assert store.extend(entries) == 2
        store.close()
        again = MemoStore(str(tmp_path / "memo.log"))
        assert again.load() == entries
        assert len(again) == 2
        assert again.stats() == {"vcpu": 1, "observation": 1}

    def test_duplicates_are_not_rewritten(self, tmp_path):
        store = MemoStore(str(tmp_path / "memo.log"))
        entry = ("vcpu", (1, 2, 3), ())
        assert store.extend([entry]) == 1
        assert store.extend([entry, entry]) == 0
        store.close()
        assert len(MemoStore(str(tmp_path / "memo.log"))) == 1

    def test_unpicklable_record_is_corrupt(self, tmp_path):
        path = str(tmp_path / "memo.log")
        with AppendLog(path) as log:
            log.append(b"not a pickle")
        with pytest.raises(CorruptArtifact):
            MemoStore(path).load()

    def test_preload_memo_roundtrip(self, tmp_path):
        store = MemoStore(str(tmp_path / "memo.log"))
        key = (11, 22, 33)
        store.extend([("vcpu", key, ("stale vcpu",)),
                      ("invariants:epcm", (1, 2, 3), ["bad frame"]),
                      ("unknown-table", (9,), "skipped")])
        memo = CheckMemo()
        assert store.preload_memo(memo) == 2
        assert memo._vcpu[key] == ("stale vcpu",)
        assert memo._families["epcm"][(1, 2, 3)] == ["bad frame"]

    def test_journal_entries_survive_pickling(self, tmp_path):
        # The entries the executor ships are exactly what lands in the
        # store: pickle-roundtrip them the way a shard result would.
        memo = CheckMemo()
        with memo.journalling() as journal:
            memo._note("observation", (1, 2, 0, 7), ("diff",))
        memo._note("observation", (3, 4, 0, 7), ("outside",))
        drained = pickle.loads(pickle.dumps(journal))
        store = MemoStore(str(tmp_path / "memo.log"))
        assert store.extend(drained) == 1
        assert memo.journal is None
