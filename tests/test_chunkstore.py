"""Content-defined chunking + the content-addressed chunk store."""

import hashlib
import os
import zlib

import numpy as np
import pytest

from repro.mana.checkpoint import store_for
from repro.mana.chunkstore import CHUNK_MAX, CHUNK_MIN, ChunkStore, chunk_spans
from repro.util.errors import IntegrityError


def _payload(n: int, seed: int = 1) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()


class TestChunkSpans:
    def test_spans_tile_the_input(self):
        data = _payload(300_000)
        spans = chunk_spans(data)
        assert spans[0][0] == 0 and spans[-1][1] == len(data)
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b == c and a < b
        assert b"".join(data[a:b] for a, b in spans) == data

    def test_size_bounds(self):
        spans = chunk_spans(_payload(500_000))
        # Every chunk but the final one respects [CHUNK_MIN, CHUNK_MAX].
        for a, b in spans[:-1]:
            assert CHUNK_MIN <= b - a <= CHUNK_MAX
        assert spans[-1][1] - spans[-1][0] <= CHUNK_MAX

    def test_deterministic(self):
        data = _payload(200_000)
        assert chunk_spans(data) == chunk_spans(data)

    def test_boundaries_resync_after_insert(self):
        """The property monolithic (fixed-offset) chunking lacks: an
        insertion shifts every later byte, yet most chunk *contents*
        reappear because boundaries are content-defined."""
        data = _payload(400_000)
        edited = data[:1000] + b"wedge" + data[1000:]
        digests = lambda d: {
            hashlib.sha256(d[a:b]).hexdigest() for a, b in chunk_spans(d)
        }
        before, after = digests(data), digests(edited)
        assert len(before & after) / len(before) > 0.9

    def test_empty_and_tiny_inputs(self):
        assert chunk_spans(b"") == []
        assert chunk_spans(b"x") == [(0, 1)]


class TestChunkStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        data = _payload(10_000)
        digest, written, reused = store.put(data)
        assert digest == hashlib.sha256(data).hexdigest()
        assert written > 0 and not reused
        assert store.get(digest) == data

    def test_second_put_is_deduped(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        data = _payload(10_000)
        store.put(data)
        digest, written, reused = store.put(data)
        assert reused and written == 0
        assert len(store.digests()) == 1

    def test_compression_shrinks_compressible_data(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        digest, written, _ = store.put(b"abc" * 10_000)
        assert written < 1_000
        assert store.get(digest) == b"abc" * 10_000

    def test_missing_chunk_names_digest(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        missing = hashlib.sha256(b"never stored").hexdigest()
        with pytest.raises(IntegrityError, match=missing[:12]):
            store.get(missing)

    def test_corrupt_chunk_is_integrity_error(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        digest, _, _ = store.put(_payload(10_000))
        path = store.chunk_path(digest)
        with open(path, "r+b") as f:
            f.seek(100)
            b = f.read(1)
            f.seek(100)
            f.write(bytes([b[0] ^ 0xFF]))
        with pytest.raises(IntegrityError, match=digest[:12]):
            store.get(digest)

    def test_checksum_mismatch_detected(self, tmp_path):
        """A chunk whose bytes decompress fine but hash to the wrong
        digest (e.g. a renamed file) is caught."""
        store = ChunkStore(str(tmp_path))
        os.makedirs(store.dir, exist_ok=True)
        wrong = hashlib.sha256(b"claimed content").hexdigest()
        with open(store.chunk_path(wrong), "wb") as f:
            f.write(zlib.compress(b"actual content"))
        with pytest.raises(IntegrityError, match=wrong[:12]):
            store.get(wrong)

    def test_verify_cache_invalidated_on_file_change(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        digest, _, _ = store.put(_payload(10_000))
        store.verify(digest)  # memoizes on (size, mtime_ns)
        path = store.chunk_path(digest)
        with open(path, "wb") as f:
            f.write(b"rotten")
        with pytest.raises(IntegrityError):
            store.verify(digest)

    def test_gc_removes_unreferenced(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        keep, _, _ = store.put(_payload(10_000, seed=1))
        drop, _, _ = store.put(_payload(10_000, seed=2))
        before = store.stored_bytes()
        removed, reclaimed = store.gc({keep})
        assert removed == 1 and 0 < reclaimed < before
        assert store.digests() == {keep}
        assert not os.path.exists(store.chunk_path(drop))

    def test_store_for_registry_is_per_dir(self, tmp_path):
        a = store_for(str(tmp_path / "a"))
        assert store_for(str(tmp_path / "a")) is a
        assert store_for(a) is a
        assert store_for(str(tmp_path / "b")) is not a
        # Opening a store creates nothing on disk.
        assert not (tmp_path / "a").exists()


class TestGearEquivalence:
    """The vectorized boundary scan must match the pure-python rolling
    hash bit-for-bit — chunk boundaries are a durable on-disk contract
    (dedup depends on every process cutting identically)."""

    @staticmethod
    def _pure_candidates(data: bytes):
        import repro.mana.chunkstore as cs

        saved = cs._np
        cs._np = None
        try:
            return [int(i) for i in cs._boundary_candidates(data)]
        finally:
            cs._np = saved

    @staticmethod
    def _numpy_candidates(data: bytes):
        import repro.mana.chunkstore as cs

        assert cs._np is not None
        return [int(i) for i in cs._boundary_candidates(data)]

    @pytest.mark.parametrize(
        "size", [0, 1, 2, 3, 5, 11, 12, 13, 14, 31, 32, 33, 100, 4096,
                 65_537]
    )
    def test_equivalence_across_sizes(self, size):
        # Odd/even and sub-window sizes: the numpy path special-cases
        # partial windows (i < 12) and odd-length pair gathers.
        data = _payload(size, seed=size + 7)
        assert self._numpy_candidates(data) == self._pure_candidates(data)

    def test_equivalence_random_payloads(self):
        for seed in range(40):
            data = _payload(2048, seed=seed)
            assert (self._numpy_candidates(data)
                    == self._pure_candidates(data))

    def test_equivalence_adversarial_patterns(self):
        for pat in (b"\x00" * 5000, b"\xff" * 5000, bytes(range(256)) * 20,
                    b"ab" * 2500):
            assert (self._numpy_candidates(pat)
                    == self._pure_candidates(pat))

    def test_spans_identical_with_and_without_numpy(self):
        import repro.mana.chunkstore as cs

        data = _payload(300_000, seed=3)
        with_np = chunk_spans(data)
        saved = cs._np
        cs._np = None
        try:
            without_np = chunk_spans(data)
        finally:
            cs._np = saved
        assert with_np == without_np


class TestPutKnownAndPins:
    def test_put_known_matches_put(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        data = _payload(10_000)
        digest = hashlib.sha256(data).hexdigest()
        written, reused = store.put_known(digest, data)
        assert written > 0 and not reused
        assert store.get(digest) == data
        written2, reused2 = store.put_known(digest, data)
        assert reused2 and written2 == 0

    def test_pinned_chunk_survives_gc(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        keep, _, _ = store.put(_payload(10_000, seed=1))
        inflight, _, _ = store.put(_payload(10_000, seed=2))
        drop, _, _ = store.put(_payload(10_000, seed=3))
        store.pin([inflight])
        removed, _ = store.gc({keep})
        assert removed == 1
        assert store.digests() == {keep, inflight}
        # After the in-flight writer lands its header, the pin drops and
        # the next gc honours references alone.
        store.unpin([inflight])
        store.gc({keep})
        assert store.digests() == {keep}

    def test_pins_are_refcounted(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        d, _, _ = store.put(_payload(5_000))
        store.pin([d])
        store.pin([d])
        store.unpin([d])
        assert d in store.pinned()
        store.unpin([d])
        assert d not in store.pinned()
