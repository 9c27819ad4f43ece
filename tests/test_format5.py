"""Format-5 chunked images: incremental saves, back-compat, caches, GC."""

import os
import warnings

import numpy as np
import pytest

from repro.mana.checkpoint import (
    CheckpointImage,
    generation_dir,
    image_chunk_refs,
    invalidate_checkpoint_caches,
    latest_generations,
    latest_restorable_generation,
    load_image,
    prune_generations,
    rank_image_path,
    read_manifest,
    referenced_chunks,
    restorable_generations,
    save_chunked_image,
    save_image,
    validate_generation,
    verify_image,
    write_manifest,
)
from repro.mana.chunkstore import store_for
from repro.mana.drain import DrainBuffer
from repro.mana.virtid import VirtualIdTable
from repro.util.errors import IntegrityError


def make_image(rank=0, generation=1, app=None, nranks=2):
    if app is None:
        rng = np.random.default_rng(99)
        app = {"state": rng.integers(0, 256, size=200_000, dtype=np.uint8)}
    return CheckpointImage(
        rank=rank,
        nranks=nranks,
        impl="mpich",
        kind="loop",
        generation=generation,
        app=app,
        loops={"main": generation},
        vid_table=VirtualIdTable(32),
        drain_buffer=DrainBuffer(),
        clock_state={"now": float(generation), "accounts": {}},
        rng_state=None,
        cs_count=7,
        epoch=generation - 1,
    )


def save_gen(base, generation, app=None, nranks=2):
    """Chunk-save every rank of one generation + its manifest."""
    store = store_for(base)
    stats = []
    for r in range(nranks):
        path = rank_image_path(base, generation, r)
        stats.append(
            save_chunked_image(
                path, make_image(r, generation, app, nranks), store
            )
        )
    write_manifest(base, generation, nranks=nranks, impl="mpich",
                   kind="loop", cold_restartable=True, loop_target=0)
    return stats


class TestFormat5Roundtrip:
    def test_save_load(self, tmp_path):
        base = str(tmp_path)
        path = rank_image_path(base, 1, 0)
        stats = save_chunked_image(path, make_image(), store_for(base))
        assert stats["format"] == 5
        assert stats["chunks_written"] == stats["chunks_total"] > 1
        assert stats["payload_bytes"] > 200_000
        # The image file itself is header-only — tiny next to the payload.
        assert os.path.getsize(path) < stats["payload_bytes"] / 10
        img = load_image(path)
        assert img.rank == 0 and img.generation == 1
        assert np.array_equal(img.app["state"], make_image().app["state"])
        assert verify_image(path)["format_version"] == 5

    def test_warm_save_writes_only_changed_chunks(self, tmp_path):
        base = str(tmp_path)
        cold = save_gen(base, 1)
        warm = save_gen(base, 2)  # identical app state
        cold_bytes = sum(s["bytes_written"] for s in cold)
        warm_bytes = sum(s["bytes_written"] for s in warm)
        assert sum(s["chunks_reused"] for s in warm) > 0
        # The acceptance bar from the issue: >= 5x fewer bytes warm.
        assert cold_bytes >= 5 * warm_bytes
        img = load_image(rank_image_path(base, 2, 0))
        assert img.generation == 2

    def test_unchanged_state_writes_100x_fewer_bytes(self, tmp_path):
        """The incremental-save gate at benchmark size: 2 ranks, 4 MiB of
        incompressible state each (distinct per rank, so nothing dedups
        across ranks).  An unchanged generation rewrites only each
        rank's reference list and the one chunk holding the
        generation-dependent tail of the pickle; after overwriting a
        contiguous 2 % of each rank's state, boundaries resync and the
        bytes written follow the change, not the payload.  Byte counts
        are exact: seeded data, deterministic boundaries (README's
        incremental-checkpoint table quotes them)."""
        base = str(tmp_path)
        store = store_for(base)
        rng = np.random.default_rng(99)
        size = 4 << 20
        apps = [
            {"state": rng.integers(0, 256, size=size, dtype=np.uint8)}
            for _ in range(2)
        ]
        mutated = size // 50
        written, chunks = {}, {}
        for gen in (1, 2, 3):
            if gen == 3:
                for app in apps:
                    app["state"][size // 3:size // 3 + mutated] = \
                        rng.integers(0, 256, size=mutated, dtype=np.uint8)
            stats = [
                save_chunked_image(rank_image_path(base, gen, r),
                                   make_image(r, gen, apps[r]), store)
                for r in range(2)
            ]
            written[gen] = sum(s["bytes_written"] for s in stats)
            chunks[gen] = sum(s["chunks_written"] for s in stats)
        assert written[1] > 2 * size
        assert chunks[2] == 2
        assert written[1] >= 100 * written[2], written
        assert written[3] < written[2] + 2 * (2 * mutated), written

    def test_cross_rank_dedup(self, tmp_path):
        """Two ranks with identical app payloads share store chunks."""
        base = str(tmp_path)
        app = {"state": np.zeros(150_000, dtype=np.uint8)}
        stats = save_gen(base, 1, app=app)
        assert sum(s["chunks_reused"] for s in stats) > 0


class TestFormat4BackCompat:
    def test_v4_image_still_loads(self, tmp_path):
        base = str(tmp_path)
        path = rank_image_path(base, 1, 0)
        nbytes = save_image(path, make_image())
        assert os.path.getsize(path) == nbytes
        header = verify_image(path)
        assert header["format_version"] == 4
        img = load_image(path)
        assert np.array_equal(img.app["state"], make_image().app["state"])
        assert image_chunk_refs(path) == []

    def test_mixed_format_dir_validates(self, tmp_path):
        """A dir holding a v4 generation and a v5 generation — the
        upgrade-in-place scenario — validates both."""
        base = str(tmp_path)
        for r in range(2):
            save_image(rank_image_path(base, 1, r), make_image(r, 1))
        write_manifest(base, 1, nranks=2, impl="mpich", kind="loop",
                       cold_restartable=True, loop_target=0)
        save_gen(base, 2)
        assert restorable_generations(base) == [1, 2]


class TestChunkCorruption:
    def _corrupt_first_chunk(self, base, generation, rank=0):
        refs = image_chunk_refs(rank_image_path(base, generation, rank))
        digest = refs[0][0]
        path = store_for(base).chunk_path(digest)
        with open(path, "r+b") as f:
            f.seek(30)
            b = f.read(1)
            f.seek(30)
            f.write(bytes([b[0] ^ 0xFF]))
        return digest

    def test_load_names_the_corrupt_chunk(self, tmp_path):
        base = str(tmp_path)
        save_gen(base, 1)
        digest = self._corrupt_first_chunk(base, 1)
        with pytest.raises(IntegrityError, match=r"chunk 0/"):
            load_image(rank_image_path(base, 1, 0))
        with pytest.raises(IntegrityError, match=digest[:12]):
            verify_image(rank_image_path(base, 1, 0))

    def test_validation_marks_generation_unrestorable(self, tmp_path):
        base = str(tmp_path)
        save_gen(base, 1)
        rng = np.random.default_rng(5)
        save_gen(base, 2, app={
            "state": rng.integers(0, 256, size=200_000, dtype=np.uint8)
        })
        assert restorable_generations(base) == [1, 2]
        self._corrupt_first_chunk(base, 2)
        problems = validate_generation(base, 2)
        assert problems and any("chunk" in p for p in problems)
        # Fallback: the older intact generation is still the restore
        # target (what Launcher.supervise picks after a bad gen).
        assert restorable_generations(base) == [1]
        assert latest_restorable_generation(base) == 1

    def test_missing_chunk_detected(self, tmp_path):
        base = str(tmp_path)
        save_gen(base, 1)
        refs = image_chunk_refs(rank_image_path(base, 1, 0))
        os.remove(store_for(base).chunk_path(refs[0][0]))
        invalidate_checkpoint_caches(base)
        assert validate_generation(base, 1)


class TestCaches:
    def test_validation_result_is_cached_until_disk_changes(self, tmp_path):
        base = str(tmp_path)
        save_gen(base, 1)
        assert validate_generation(base, 1) == []
        # Cached verdict: identical list on an unchanged dir.
        assert validate_generation(base, 1) == []
        # An on-disk change (corruption) invalidates via stat signature.
        refs = image_chunk_refs(rank_image_path(base, 1, 0))
        path = store_for(base).chunk_path(refs[0][0])
        with open(path, "r+b") as f:
            f.seek(10)
            b = f.read(1)
            f.seek(10)
            f.write(bytes([b[0] ^ 0xFF]))
        assert validate_generation(base, 1)

    def test_latest_generations_tracks_new_writes(self, tmp_path):
        base = str(tmp_path)
        save_gen(base, 1)
        assert latest_generations(base) == [1]
        save_gen(base, 2)
        assert latest_generations(base) == [1, 2]

    def test_unrecognized_entry_warns_once(self, tmp_path):
        base = str(tmp_path)
        save_gen(base, 1)
        os.mkdir(os.path.join(base, "stray"))
        with pytest.warns(UserWarning, match="stray"):
            latest_generations(base)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            os.mkdir(os.path.join(base, "later"))  # bump dir mtime
            try:
                latest_generations(base)
            except UserWarning as w:
                assert "stray" not in str(w)  # only the new entry warns


class TestPruneAndGC:
    def test_prune_reclaims_unreferenced_chunks(self, tmp_path):
        base = str(tmp_path)
        rng = np.random.default_rng(3)
        for g in (1, 2, 3):
            save_gen(base, g, app={
                "state": rng.integers(0, 256, size=200_000, dtype=np.uint8)
            })
        store = store_for(base)
        before = store.stored_bytes()
        summary = prune_generations(base, keep=1)
        assert summary["pruned_generations"] == [1, 2]
        assert summary["kept_generations"] == [3]
        assert summary["chunks_removed"] > 0
        assert store.stored_bytes() < before
        assert latest_generations(base) == [3]
        # The kept generation still fully restores.
        assert validate_generation(base, 3) == []
        assert load_image(rank_image_path(base, 3, 0)).generation == 3
        # Every surviving chunk is referenced; no leaks either way.
        assert store.digests() == referenced_chunks(base)

    def test_manifest_records_dedup_stats(self, tmp_path):
        base = str(tmp_path)
        stats = save_gen(base, 1)
        agg = {
            "format": 5,
            "chunks_total": sum(s["chunks_total"] for s in stats),
            "chunks_written": sum(s["chunks_written"] for s in stats),
            "chunks_reused": sum(s["chunks_reused"] for s in stats),
            "bytes_written": sum(s["bytes_written"] for s in stats),
        }
        write_manifest(base, 1, nranks=2, impl="mpich", kind="loop",
                       cold_restartable=True, loop_target=0, dedup=agg)
        doc = read_manifest(base, 1)
        assert doc["dedup"]["chunks_written"] == agg["chunks_written"]
        assert doc["dedup"]["bytes_written"] == agg["bytes_written"]


class TestPipelinedSave:
    """The chunk-run TaskPool fan-out must be invisible in the output:
    pipeline-written images are bit-identical to serial ones."""

    def test_pooled_image_bit_identical_to_serial(self, tmp_path):
        from repro.harness.parallel import TaskPool

        rng = np.random.default_rng(11)
        app = {"state": rng.integers(0, 256, size=2_000_000,
                                     dtype=np.uint8)}
        serial_base = str(tmp_path / "serial")
        pooled_base = str(tmp_path / "pooled")
        pool = TaskPool(4, name="t5-save")
        try:
            for base, use_pool in ((serial_base, None), (pooled_base, pool)):
                store = store_for(base)
                img = make_image(rank=0, generation=1, app=app)
                save_chunked_image(
                    rank_image_path(base, 1, 0), img, store, pool=use_pool
                )
        finally:
            pool.shutdown()
        with open(rank_image_path(serial_base, 1, 0), "rb") as f:
            serial_bytes = f.read()
        with open(rank_image_path(pooled_base, 1, 0), "rb") as f:
            pooled_bytes = f.read()
        assert serial_bytes == pooled_bytes
        # Same chunk set on disk, and the pooled image restores.
        assert (store_for(serial_base).digests()
                == store_for(pooled_base).digests())
        restored = load_image(rank_image_path(pooled_base, 1, 0))
        assert np.array_equal(restored.app["state"], app["state"])

    def test_pooled_save_stats_match_serial(self, tmp_path):
        from repro.harness.parallel import TaskPool

        rng = np.random.default_rng(12)
        app = {"state": rng.integers(0, 256, size=1_000_000,
                                     dtype=np.uint8)}
        pool = TaskPool(3, name="t5-stats")
        try:
            stats = {}
            for name, use_pool in (("serial", None), ("pooled", pool)):
                base = str(tmp_path / name)
                stats[name] = save_chunked_image(
                    rank_image_path(base, 1, 0),
                    make_image(rank=0, generation=1, app=app),
                    store_for(base), pool=use_pool,
                )
        finally:
            pool.shutdown()
        assert stats["serial"] == stats["pooled"]


class TestGenerationPins:
    def test_pinned_generation_survives_prune(self, tmp_path):
        from repro.mana.checkpoint import (
            pin_generation,
            pinned_generations,
            unpin_generation,
        )

        base = str(tmp_path)
        for gen in (1, 2, 3, 4):
            save_gen(base, gen)
        pin_generation(base, 1)
        try:
            summary = prune_generations(base, keep=1)
            # Generation 1 is in-flight: exempt from both the doomed set
            # and the keep count.
            assert 1 not in summary["pruned_generations"]
            assert 1 in summary["kept_generations"]
            assert 4 in summary["kept_generations"]
            assert os.path.isdir(generation_dir(base, 1))
        finally:
            unpin_generation(base, 1)
        assert pinned_generations(base) == set()
        summary = prune_generations(base, keep=1)
        assert 1 in summary["pruned_generations"]
        assert summary["kept_generations"] == [4]

    def test_pin_refcounts(self, tmp_path):
        from repro.mana.checkpoint import (
            pin_generation,
            pinned_generations,
            unpin_generation,
        )

        base = str(tmp_path)
        pin_generation(base, 7)
        pin_generation(base, 7)
        unpin_generation(base, 7)
        assert pinned_generations(base) == {7}
        unpin_generation(base, 7)
        assert pinned_generations(base) == set()
