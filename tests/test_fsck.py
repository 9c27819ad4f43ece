"""Durability layer: intent journal, crash-safe publishes, and fsck.

Covers the journal record lifecycle (:mod:`repro.mana.journal`), the
unique-temp-name discipline (:mod:`repro.mana.storeio`), the
:func:`repro.mana.fsck.fsck` repair rules (roll forward / roll
back / finish prune / quarantine / orphan reclamation), the supervised
auto-repair hook, and the single-bit-flip detection property of both
image formats and the chunk store.  See docs/PROTOCOLS.md §13.
"""

import json
import os
import random
import threading
import zlib

import pytest

from repro.faults.crashpoints import CrashPointInjector
from repro.mana import storeio
from repro.mana.checkpoint import (
    CheckpointImage,
    CheckpointStore,
    QUARANTINE_DIRNAME,
    store_for,
)
from repro.mana.fsck import auto_repair, fsck
from repro.mana.journal import Journal
from repro.mana.storeio import StoreIO
from repro.util.errors import InjectedCrash, IntegrityError, RestartError


def _image(rank=0, generation=1, nranks=2):
    return CheckpointImage(
        rank=rank, nranks=nranks, impl="mpich", kind="loop",
        generation=generation, app={"acc": [1.0, 2.0]},
        loops={"main": 4}, vid_table=None, drain_buffer=None,
        clock_state={"now": 1.25}, rng_state=None, cs_count=17, epoch=0,
    )


def _blob(generation, rank, n=20_000):
    return random.Random(generation * 1000 + rank).randbytes(n)


def _dying_store(tmp_path, point):
    """A second view of the directory whose writes die at ``point``:
    the crashing process.  The test's own store is the rebooted one."""
    return CheckpointStore(
        str(tmp_path), io=StoreIO(injector=CrashPointInjector(arm_at=point)))


def _write_generation(store, generation, nranks=2):
    """One complete format-5 generation (images + manifest)."""
    for r in range(nranks):
        store.save(_image(rank=r, generation=generation, nranks=nranks),
                   _blob(generation, r))
    store.write_manifest(generation, nranks=nranks, impl="mpich",
                         kind="loop", cold_restartable=True, loop_target=4)


# ----------------------------------------------------------------------
# journal layer
# ----------------------------------------------------------------------
class TestJournal:
    def test_begin_pending_retire_roundtrip(self, tmp_path):
        j = Journal(str(tmp_path))
        token = j.begin("image-save", generation=3, rank=1)
        assert os.path.exists(token)
        # Record names carry the writer's identity: <seq>-<op>-<pid>-<tid>
        stem = os.path.basename(token)[: -len(".json")]
        assert int(stem.rsplit("-", 2)[1]) == os.getpid()
        (rec,) = j.pending()
        assert rec["op"] == "image-save"
        assert rec["generation"] == 3 and rec["rank"] == 1
        j.retire(token)
        assert j.pending() == []
        # Already-retired tokens and None are tolerated.
        j.retire(token)
        j.retire(None)

    def test_torn_record_parses_as_unknown_op(self, tmp_path):
        j = Journal(str(tmp_path))
        os.makedirs(j.dir, exist_ok=True)
        with open(os.path.join(j.dir, "000001-x-1-1.json"), "wb") as f:
            f.write(b'{"op": "image-sa')  # torn mid-write
        (rec,) = j.pending()
        assert rec["op"] == "?"

    def test_retire_matching_filters_by_op_and_generation(self, tmp_path):
        j = Journal(str(tmp_path))
        j.begin("image-save", generation=2, rank=0)
        j.begin("image-save", generation=2, rank=1)
        j.begin("image-save", generation=3, rank=0)
        j.begin("prune", generations=[1])
        assert j.retire_matching(op="image-save", generation=2) == 2
        ops = sorted(r["op"] for r in j.pending())
        assert ops == ["image-save", "prune"]

    def test_records_sort_in_begin_order(self, tmp_path):
        j = Journal(str(tmp_path))
        for g in (5, 1, 3):
            j.begin("image-save", generation=g, rank=0)
        assert [r["generation"] for r in j.pending()] == [5, 1, 3]


# ----------------------------------------------------------------------
# unique temp names
# ----------------------------------------------------------------------
class TestUniqueTmpNames:
    def test_tmp_name_embeds_writer_identity(self):
        name = storeio.tmp_name("/x/chunk.z")
        assert name == (f"/x/chunk.z.{os.getpid()}."
                        f"{threading.get_ident()}{storeio.TMP_SUFFIX}")

    def test_threads_get_distinct_tmp_names(self):
        names = {}
        # Both threads must be alive at once: thread idents are reused
        # after a thread exits (and that reuse is exactly when sharing
        # a temp name would be harmless).
        barrier = threading.Barrier(2)

        def grab(k):
            names[k] = storeio.tmp_name("/x/same-final-path")
            barrier.wait(timeout=10)

        ts = [threading.Thread(target=grab, args=(i,)) for i in range(2)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert names[0] != names[1]

    def test_save_leaves_no_tmp_or_pending_record(self, tmp_path):
        store = store_for(str(tmp_path))
        _write_generation(store, 1)
        for dirpath, _d, files in os.walk(store.base_dir):
            assert not any(n.endswith(".tmp") for n in files), dirpath
        assert store.journal.pending() == []


# ----------------------------------------------------------------------
# fsck repair rules
# ----------------------------------------------------------------------
class TestFsckRepair:
    def test_clean_directory_reports_clean(self, tmp_path):
        store = store_for(str(tmp_path))
        _write_generation(store, 1)
        report = fsck(store)
        assert not report.dirty
        assert report.restorable_generations == [1]
        assert auto_repair(store) is None
        assert auto_repair(str(tmp_path / "nonexistent")) is None

    def test_stale_record_of_completed_generation_rolls_forward(
            self, tmp_path):
        """A writer that died *after* its generation committed must not
        cost us the generation: the record is retired, nothing deleted."""
        store = store_for(str(tmp_path))
        _write_generation(store, 1)
        store.journal.begin("image-save", generation=1, rank=0)
        report = fsck(store)
        assert report.rolled_forward_generations == [1]
        assert report.rolled_back_generations == []
        assert report.restorable_generations == [1]
        assert store.journal.pending() == []

    def test_pending_record_of_uncommitted_generation_rolls_back(
            self, tmp_path):
        store = store_for(str(tmp_path))
        _write_generation(store, 1)
        # Generation 2 died mid-save: rank 0's image landed, rank 1's
        # record is still pending, and no manifest ever committed.
        store.save(_image(0, 2), _blob(2, 0))
        store.journal.begin("image-save", generation=2, rank=1)
        report = fsck(store)
        assert report.rolled_back_generations == [2]
        assert not os.path.isdir(store.generation_dir(2))
        assert report.restorable_generations == [1]
        # The rolled-back generation's now-unreferenced chunks are gone.
        assert store.chunks.digests() == store.referenced_chunks()

    def test_manifest_less_generation_without_record_rolls_back(
            self, tmp_path):
        """Death in the window between retiring the last image record
        and journaling the manifest commit: no pending record, but the
        generation has no commit marker either."""
        store = store_for(str(tmp_path))
        _write_generation(store, 1)
        store.save(_image(0, 2), _blob(2, 0))
        report = fsck(store)
        assert report.rolled_back_generations == [2]
        assert report.restorable_generations == [1]

    @pytest.mark.parametrize("committed", [True, False])
    def test_pending_drain_finalize_record_rolls_forward_or_back(
            self, tmp_path, committed):
        """Stores written by older versions journal an async commit as
        ``drain-finalize``; fsck still treats it like ``manifest-commit``."""
        store = store_for(str(tmp_path))
        _write_generation(store, 1)
        if committed:
            _write_generation(store, 2)
        else:
            store.save(_image(0, 2), _blob(2, 0))
            store.save(_image(1, 2), _blob(2, 1))
        store.journal.begin("drain-finalize", generation=2)
        report = fsck(store)
        assert report.rolled_forward_generations == ([2] if committed
                                                     else [])
        assert report.rolled_back_generations == ([] if committed else [2])
        assert report.restorable_generations == ([1, 2] if committed
                                                 else [1])
        assert store.journal.pending() == []

    def test_crash_before_manifest_commit_is_seen_by_probe_and_check(
            self, tmp_path):
        """A writer that dies just before journaling the manifest commit
        leaves no pending record: every image record is retired.  The
        auto-repair probe and a check-only fsck must still see the
        manifest-less generation the repair rolls back."""
        from repro.faults.crashsweep import build_baseline, mutate

        store = store_for(str(tmp_path))
        build_baseline(store)
        with pytest.raises(InjectedCrash):
            mutate(_dying_store(
                tmp_path, "save.journal.manifest-commit.write.before"))
        assert store.generations() == [1, 2, 3]
        assert store.journal.pending() == []
        check = fsck(store, repair=False)
        assert check.dirty
        assert check.rolled_back_generations == [3]
        assert store.generations() == [1, 2, 3]           # nothing mutated
        report = auto_repair(store)
        assert report is not None and report.repaired
        assert report.rolled_back_generations == [3]
        assert store.generations() == [1, 2]
        assert auto_repair(store) is None

    def test_repair_names_its_crash_points_fsck(self, tmp_path):
        """A repair's own mutations are ``fsck.*`` points, so a crash
        during fsck can be targeted apart from the save path."""
        from repro.faults.crashsweep import build_baseline, mutate

        build_baseline(CheckpointStore(str(tmp_path)))
        with pytest.raises(InjectedCrash):
            mutate(_dying_store(tmp_path, "drain.image.rename.before"))
        rec = CrashPointInjector()
        report = fsck(CheckpointStore(str(tmp_path), io=StoreIO(injector=rec)))
        assert report.rolled_back_generations == [4]
        assert {"fsck.manifest.unlink.before", "fsck.image.unlink.before",
                "fsck.generation.rmdir.before", "fsck.chunk.unlink.before",
                "fsck.journal-retire.image.unlink.before"} <= set(rec.points)
        assert [p for p in rec.points if not p.startswith("fsck.")] == []

    def test_check_only_mode_predicts_finished_prune(self, tmp_path):
        store = store_for(str(tmp_path))
        for g in (1, 2, 3):
            _write_generation(store, g)
        store.journal.begin("prune", generations=[1])
        check = fsck(store, repair=False)
        assert check.finished_prunes == [1]
        assert check.rolled_back_generations == []
        assert os.path.isdir(store.generation_dir(1))
        report = fsck(store)
        assert report.finished_prunes == check.finished_prunes

    def test_pending_prune_is_finished(self, tmp_path):
        store = store_for(str(tmp_path))
        for g in (1, 2, 3):
            _write_generation(store, g)
        store.journal.begin("prune", generations=[1])
        report = fsck(store)
        assert report.finished_prunes == [1]
        assert report.restorable_generations == [2, 3]

    def test_corrupt_chunk_is_quarantined_and_generation_skipped(
            self, tmp_path):
        store = store_for(str(tmp_path))
        _write_generation(store, 1)
        _write_generation(store, 2)
        # Rot one chunk referenced only by generation 2.
        only2 = sorted(
            store.referenced_chunks([2]) - store.referenced_chunks([1])
        )
        victim = only2[0]
        path = store.chunks.chunk_path(victim)
        with open(path, "r+b") as f:
            f.seek(10)
            b = f.read(1)
            f.seek(10)
            f.write(bytes([b[0] ^ 0x40]))
        # Make fsck treat it as dirty (simulated dead writer).
        store.journal.begin("gc")
        report = fsck(store)
        assert report.quarantined_chunks == [victim]
        qfile = os.path.join(store.base_dir, QUARANTINE_DIRNAME,
                             victim + ".z")
        assert os.path.exists(qfile)       # kept for forensics
        assert not os.path.exists(path)    # out of the store
        # The restart fallback skips the generation referencing it.
        assert 2 in report.skipped_generations
        assert any("missing" in p for p in report.skipped_generations[2])
        assert report.restorable_generations == [1]
        assert store.latest_restorable() == 1

    def test_orphan_chunks_are_reclaimed(self, tmp_path):
        store = store_for(str(tmp_path))
        _write_generation(store, 1)
        digest, written, reused = store.chunks.put(
            b"never referenced by anyone"
        )
        assert written and not reused
        report = fsck(store)
        assert report.orphan_chunks_removed == 1
        assert not store.chunks.contains(digest)
        assert report.restorable_generations == [1]

    def test_fsck_is_idempotent(self, tmp_path):
        store = store_for(str(tmp_path))
        _write_generation(store, 1)
        store.save(_image(0, 2), _blob(2, 0))
        store.journal.begin("image-save", generation=2, rank=1)
        first = fsck(store)
        assert first.dirty
        second = fsck(store)
        assert not second.dirty
        assert second.restorable_generations == [1]

    def test_check_only_mode_mutates_nothing(self, tmp_path):
        store = store_for(str(tmp_path))
        _write_generation(store, 1)
        store.save(_image(0, 2), _blob(2, 0))
        token = store.journal.begin("image-save", generation=2, rank=1)
        report = fsck(store, repair=False)
        assert report.dirty and not report.repaired
        assert os.path.exists(token)                       # not retired
        assert os.path.exists(store.image_path(2, 0))      # not rolled back

    def test_crash_injection_then_fsck_restores(self, tmp_path):
        """End-to-end: kill a save at a syscall boundary, repair, and
        the prior generation must still verify."""
        store = store_for(str(tmp_path))
        _write_generation(store, 1)
        with pytest.raises(InjectedCrash):
            _dying_store(tmp_path, "save.image.rename.before").save(
                _image(0, 2), _blob(2, 0))
        # The dead writer stranded a tmp file and a pending record.
        assert store.journal.pending()
        report = fsck(store)
        assert report.dirty
        assert report.rolled_back_generations == [2]
        assert report.restorable_generations == [1]
        for r in range(2):
            store.verify_image(store.image_path(1, r))
        assert not fsck(store).dirty


# ----------------------------------------------------------------------
# supervised auto-repair
# ----------------------------------------------------------------------
class TestSuperviseAutoFsck:
    def test_mid_save_crash_triggers_fsck_before_restart(self, tmp_path):
        from repro import FaultPlan, Launcher
        from repro.faults.plan import SITE_MID_SAVE
        from repro.faults.scenarios import (
            SurvivorApp, _arm_triggers, _config,
        )
        from repro.runtime import RestartPolicy

        plan = FaultPlan(seed=7).crash_in_checkpoint(
            rank=1, generation=2, site=SITE_MID_SAVE)
        cfg = _config(str(tmp_path), 7, plan)
        res = Launcher(cfg, RestartPolicy(max_restarts=2)).supervise(
            lambda r: SurvivorApp(), timeout=60.0, on_launch=_arm_triggers,
        )
        assert res.status == "completed", res.first_error()
        kinds = [e["event"] for e in res.recovery_events]
        # The dirty shutdown (stranded tmp + pending journal record) is
        # repaired before the restore point is chosen.
        assert "fsck" in kinds
        assert kinds.index("fsck") < kinds.index("restart")
        fsck_ev = next(e for e in res.recovery_events
                       if e["event"] == "fsck")
        assert fsck_ev["rolled_back_generations"] == [2]
        restored = [e["generation"] for e in res.recovery_events
                    if e["event"] == "restart"]
        assert restored == [1]

    def test_skip_reasons_recorded_for_unrestorable_generations(
            self, tmp_path):
        from repro import FaultPlan, Launcher
        from repro.faults.plan import CORRUPT_TRUNCATE
        from repro.faults.scenarios import (
            SurvivorApp, _arm_triggers, _config,
        )
        from repro.runtime import RestartPolicy

        # Generation 2 commits, then its rank-1 image is truncated, then
        # rank 2 dies: the supervisor must fall back to generation 1 and
        # say *why* generation 2 was passed over — without leaking the
        # absolute checkpoint path into the (fingerprinted) trace.
        plan = (FaultPlan(seed=7)
                .corrupt_image(generation=2, rank=1,
                               mode=CORRUPT_TRUNCATE)
                .crash_at_loop(rank=2, iteration=9))
        cfg = _config(str(tmp_path), 7, plan)
        res = Launcher(cfg, RestartPolicy(max_restarts=2)).supervise(
            lambda r: SurvivorApp(), timeout=60.0, on_launch=_arm_triggers,
        )
        restart = next(e for e in res.recovery_events
                       if e["event"] == "restart")
        assert restart["skipped_generations"] == [2]
        reasons = restart["skip_reasons"][2]
        assert reasons and any("truncated" in r for r in reasons)
        assert all(str(tmp_path) not in r for r in reasons)
        assert any("<ckpt>" in r for r in reasons)


# ----------------------------------------------------------------------
# single-bit-flip detection (property-style, seeded sampling)
# ----------------------------------------------------------------------
class TestBitFlipDetection:
    def _flip(self, path, offset, bit):
        with open(path, "r+b") as f:
            f.seek(offset)
            b = f.read(1)
            f.seek(offset)
            f.write(bytes([b[0] ^ (1 << bit)]))

    def test_format4_payload_flips_detected(self, tmp_path):
        store = store_for(str(tmp_path))
        store.save_v4(_image())
        path = store.image_path(1, 0)
        size = os.path.getsize(path)
        header = store.verify_image(path)
        payload_start = size - header["payload_bytes"]
        rng = random.Random(0xF4)
        for _ in range(12):
            offset = rng.randrange(payload_start, size)
            bit = rng.randrange(8)
            self._flip(path, offset, bit)
            with pytest.raises(IntegrityError):
                store.verify_image(path)
            self._flip(path, offset, bit)  # restore
        store.verify_image(path)

    def test_format5_header_flips_detected(self, tmp_path):
        store = store_for(str(tmp_path))
        _write_generation(store, 1, nranks=1)
        path = store.image_path(1, 0)
        size = os.path.getsize(path)
        rng = random.Random(0xF5)
        offsets = {rng.randrange(size) for _ in range(12)}
        for offset in sorted(offsets):
            bit = rng.randrange(8)
            self._flip(path, offset, bit)
            # Magic/length flips surface as RestartError (unrecognized
            # or truncated), everything else as IntegrityError — either
            # way the flip cannot go unnoticed.
            with pytest.raises((IntegrityError, RestartError)):
                store.verify_image(path)
            self._flip(path, offset, bit)
        store.verify_image(path)

    def test_chunk_flips_detected_including_compressed_stream(
            self, tmp_path):
        chunks = store_for(str(tmp_path)).chunks
        payload = zlib.compress(_blob(9, 9), 0)  # poorly compressible
        digest, _w, _r = chunks.put(payload)
        path = chunks.chunk_path(digest)
        size = os.path.getsize(path)
        rng = random.Random(0xC0)
        # Sample across the whole file: zlib stream header, the
        # compressed byte stream, and the trailing adler32.
        offsets = {0, size - 1} | {rng.randrange(size) for _ in range(10)}
        for offset in sorted(offsets):
            bit = rng.randrange(8)
            self._flip(path, offset, bit)
            with pytest.raises(IntegrityError):
                chunks.get(digest)
            self._flip(path, offset, bit)
        chunks.get(digest)  # intact again
