"""Checkpoint images and the store that holds them.

One image file per rank per generation, plus a job-level manifest.
The per-rank payload is **one pickle**: the application object graph, the
virtual-id table, the drain buffer, the resumable-loop tokens, the clock
and RNG state.  Using a single pickle preserves object identity between,
e.g., a pending-receive buffer referenced from a RequestRecord and the
same numpy array inside the application state — they come back as one
object, just as they were one region of upper-half memory in real MANA.

Physical MPI ids are *not* in the image (VidEntry drops them when
pickled); "MANA does not require a special data structure in the
checkpoint image to identify these MANA-internal structures" — the
records are simply part of the saved upper half.

Two on-disk formats coexist (PROTOCOLS.md §10):

**Format 4** (read-side back-compat; jobs no longer write it)::

    MAGIC (8 bytes) | header length (4 bytes, big-endian) | JSON header
    | pickle payload

The JSON header carries ``payload_bytes`` and a ``payload_sha256`` over
the pickle blob, so a load detects truncation and bit rot *before*
unpickling.

**Format 5** (incremental, chunked, deduplicated)::

    MAGIC | header length | JSON header | sha256(JSON header) (32 bytes)

The payload is *not* in the image file.  It lives in the directory's
content-addressed :class:`repro.mana.chunkstore.ChunkStore` as
compressed content-defined chunks; the header's ``chunks`` list is the
ordered reference list ``[[sha256, uncompressed_len], ...]``.  A
generation whose application state barely changed re-produces mostly
identical chunk digests, so it writes only the changed chunks — the
incremental checkpointing the paper's Table 3 costs motivate.  The
trailing header digest makes any bit flip in the (small) image file
detectable; payload integrity is verified chunk-by-chunk at load, so a
corrupt chunk names itself instead of failing a full-payload hash.

All writes are atomic (temp file + rename) — an interrupted save never
leaves a torn image or chunk at a final path.

Everything about one checkpoint directory — its layout, chunk store,
journal, generation pins and memos — is one :class:`CheckpointStore`.
:func:`store_for` hands out the one instance per directory; opening a
store reads nothing and writes nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import struct
import threading
import warnings
from dataclasses import dataclass
from typing import Collection, Dict, Iterable, List, Optional, Set, Tuple

from repro.mana import storeio
from repro.mana.journal import JOURNAL_DIRNAME, Journal
from repro.mana.chunkstore import (
    CHUNK_MAX,
    CHUNK_MIN,
    COMPRESS_LEVEL,
    ChunkStore,
    STORE_DIRNAME,
    chunk_spans,
    digest_spans,
)
from repro.util.errors import (
    CheckpointError,
    InjectedFault,
    IntegrityError,
    RestartError,
)

FORMAT_VERSION = 5
#: Formats the read side (load/verify/validate/restart) accepts.
SUPPORTED_FORMATS = (4, 5)
MAGIC = b"RPCKPTIM"
MANIFEST_NAME = "manifest.json"
QUARANTINE_DIRNAME = "quarantine"
#: Base-dir entries that are part of the store layout, not generations.
RESERVED_DIRNAMES = (STORE_DIRNAME, JOURNAL_DIRNAME, QUARANTINE_DIRNAME)
_LEN = struct.Struct(">I")
_HDR_DIGEST_LEN = 32  # raw sha256 appended to format-5 headers


@dataclass
class CheckpointImage:
    """A loaded per-rank image."""

    rank: int
    nranks: int
    impl: str
    kind: str
    generation: int
    app: object
    loops: Dict[str, int]
    vid_table: object          # VirtualIdTable or LegacyVirtualIdMaps
    drain_buffer: object       # DrainBuffer
    clock_state: Dict
    rng_state: Optional[Dict]
    cs_count: int
    epoch: int
    # Logical size of the saved upper half (set by load_image; used for
    # the restart-time model).  Not serialized.
    stored_bytes: int = 0


def _stat_signature(*dirs: str) -> tuple:
    """(name, size, mtime_ns) of every regular file under ``dirs`` —
    cheap (one scandir per dir) but sensitive to truncation, bit flips
    (mtime), additions, and deletions."""
    sig = []
    for d in dirs:
        try:
            with os.scandir(d) as it:
                for e in it:
                    try:
                        st = e.stat(follow_symlinks=False)
                    except OSError:
                        continue
                    sig.append((d, e.name, st.st_size, st.st_mtime_ns))
        except FileNotFoundError:
            sig.append((d, None, -1, -1))
    return tuple(sorted(sig))


# ----------------------------------------------------------------------
# encode
# ----------------------------------------------------------------------
def pickle_upper_half(image: CheckpointImage) -> bytes:
    """The image's payload: one pickle of everything that shares
    objects (the async path's snapshot is exactly this)."""
    upper_half = {
        "app": image.app,
        "loops": image.loops,
        "vid_table": image.vid_table,
        "drain_buffer": image.drain_buffer,
        "clock_state": image.clock_state,
        "rng_state": image.rng_state,
        "cs_count": image.cs_count,
        "epoch": image.epoch,
    }
    try:
        return pickle.dumps(upper_half, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # unpicklable app state is a user error
        raise CheckpointError(
            f"rank {image.rank}: upper-half state is not serializable "
            f"({exc}); application state must be plain data + numpy"
        ) from exc


def _identity_header(image: CheckpointImage, fmt: int) -> Dict:
    return {
        "format_version": fmt,
        "rank": image.rank,
        "nranks": image.nranks,
        "impl": image.impl,
        "kind": image.kind,
        "generation": image.generation,
    }


def _encode_image_v4(image: CheckpointImage) -> bytes:
    """MAGIC + length-prefixed JSON header + checksummed pickle payload."""
    blob = pickle_upper_half(image)
    header = _identity_header(image, 4)
    header["payload_bytes"] = len(blob)
    header["payload_sha256"] = hashlib.sha256(blob).hexdigest()
    hdr = json.dumps(header, sort_keys=True).encode("utf-8")
    return MAGIC + _LEN.pack(len(hdr)) + hdr + blob


def _encode_image_v5(image: CheckpointImage, blob_len: int,
                     refs: List[List]) -> bytes:
    """MAGIC + length-prefixed JSON header + sha256 over the header."""
    header = _identity_header(image, 5)
    header["payload_bytes"] = blob_len
    header["chunks"] = refs
    header["chunking"] = {
        "min": CHUNK_MIN, "max": CHUNK_MAX, "compress_level": COMPRESS_LEVEL,
    }
    hdr = json.dumps(header, sort_keys=True).encode("utf-8")
    return MAGIC + _LEN.pack(len(hdr)) + hdr + hashlib.sha256(hdr).digest()


def _injection_points(path: str, data: bytes, image: CheckpointImage,
                      injector, vtime: float) -> None:
    """The save-site fault hooks, shared by both formats.

    A mid-save crash leaves a torn *temp* file (never a torn image at
    the final path); a disk-full error cleans its partial temp file up
    and surfaces the error with the final path untouched.
    """
    tmp = storeio.tmp_name(path)
    try:
        injector.crash_point("mid-save", image.rank, image.generation, vtime)
    except InjectedFault:
        with open(tmp, "wb") as f:
            f.write(data[: max(1, len(data) // 2)])
        raise
    if injector.disk_full_hit(image.rank, image.generation):
        try:
            with open(tmp, "wb") as f:
                f.write(data[: max(1, len(data) // 2)])
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        raise InjectedFault(
            f"injected disk-full: rank {image.rank} saving "
            f"generation {image.generation}"
        )


#: Pooled chunk runs target this many uncompressed bytes each: small
#: enough that a 4 MB rank splits into ~16 interleavable work items,
#: large enough that submit overhead stays under ~1% of the zlib cost.
_RUN_BYTES = 256 * 1024


def _store_chunk_run(store: ChunkStore, view, run,
                     context: str) -> Tuple[int, List[str]]:
    """Compress+store one run of (digest, start, end) items serially;
    returns (bytes_written, digests new to the store).  ``context`` is
    the saver's operation context, so a pool worker's crash points are
    named after the save it serves."""
    written = 0
    new_digests: List[str] = []
    for d, s, e in run:
        nbytes, reused = store.put_known(d, view[s:e], context)
        if not reused:
            written += nbytes
            new_digests.append(d)
    return written, new_digests


def dedup_summary(stats: Collection[Dict]) -> Dict:
    """One generation's incremental-save effectiveness: the per-rank
    :meth:`CheckpointStore.save` statistics summed over ranks — what
    manifests record under ``dedup`` and tickets report."""
    total = {
        k: sum(s[k] for s in stats)
        for k in ("chunks_total", "chunks_written", "chunks_reused",
                  "bytes_written", "payload_bytes")
    }
    payload = total["payload_bytes"]
    frac = total["bytes_written"] / payload if payload else 1.0
    return {"format": 5, **total, "written_fraction": round(frac, 6)}


# ----------------------------------------------------------------------
# decode
# ----------------------------------------------------------------------
def _read_image_file(path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        raise RestartError(f"no checkpoint image at {path}") from None


def _read_header(path: str, data: bytes) -> Dict:
    """Parse and sanity-check the length-prefixed JSON header."""
    if len(data) < len(MAGIC) + _LEN.size or not data.startswith(MAGIC):
        raise RestartError(
            f"{path}: unrecognized image header (bad magic); expected "
            f"format {FORMAT_VERSION}"
        )
    (hdr_len,) = _LEN.unpack_from(data, len(MAGIC))
    start = len(MAGIC) + _LEN.size
    if len(data) < start + hdr_len:
        raise IntegrityError(f"{path}: truncated image header")
    try:
        header = json.loads(data[start:start + hdr_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"{path}: corrupt image header ({exc})") from None
    fmt = header.get("format_version")
    if fmt not in SUPPORTED_FORMATS:
        raise RestartError(
            f"{path}: image format {fmt} not in supported formats "
            f"{SUPPORTED_FORMATS}"
        )
    return header


def _verify_bytes_v4(path: str, data: bytes, header: Dict) -> None:
    (hdr_len,) = _LEN.unpack_from(data, len(MAGIC))
    start = len(MAGIC) + _LEN.size + hdr_len
    payload = data[start:]
    if len(payload) != header["payload_bytes"]:
        raise IntegrityError(
            f"{path}: truncated image: payload is {len(payload)} bytes, "
            f"header promises {header['payload_bytes']}"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header["payload_sha256"]:
        raise IntegrityError(
            f"{path}: image checksum mismatch (bit rot or torn write): "
            f"sha256 {digest[:12]}… != recorded "
            f"{header['payload_sha256'][:12]}…"
        )


def _verify_bytes_v5(path: str, data: bytes) -> None:
    """The format-5 image file is header-only; a trailing sha256 over
    the header bytes makes any bit flip in the file detectable."""
    (hdr_len,) = _LEN.unpack_from(data, len(MAGIC))
    start = len(MAGIC) + _LEN.size
    end = start + hdr_len
    if len(data) < end + _HDR_DIGEST_LEN:
        raise IntegrityError(f"{path}: truncated image header digest")
    actual = hashlib.sha256(data[start:end]).digest()
    if actual != data[end:end + _HDR_DIGEST_LEN]:
        raise IntegrityError(
            f"{path}: image header checksum mismatch (bit rot or torn "
            f"write)"
        )


def image_chunk_refs(path: str) -> List[List]:
    """The ``[[digest, ulen], ...]`` reference list of a format-5 image
    (empty for format 4) — used by GC and diagnostics."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        return []
    try:
        header = _read_header(path, data)
    except (RestartError, IntegrityError):
        return []
    return header.get("chunks", []) or []


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class CheckpointStore:
    """One checkpoint base directory.

    Owns the directory's layout (``ckpt_NNNN`` generation dirs, rank
    image paths, manifests), its :class:`ChunkStore` (``chunks``) and
    :class:`Journal` (``journal``), the :class:`~repro.mana.storeio.
    StoreIO` both write through (``io``: its durability mode and crash
    injector; the process default unless given), refcounted generation
    pins, the warn-once set of unrecognized entries, and the
    validation-verdict memo.  Constructing one touches nothing on disk.

    Every mutating method names the operation it serves — its
    ``context``, the first half of each crash point it fires: ``save``
    (default) or ``drain`` for :meth:`save` and :meth:`commit`; ``gc``
    and ``prune`` name themselves; fsck passes ``fsck``.

    Everything that saves, restores, prunes or repairs a directory is
    handed its store: two jobs sharing a directory share pins (through
    :func:`store_for`), and a check → pick → restart sequence reuses the
    chunk store's verification memo.
    """

    def __init__(self, base_dir: str,
                 io: Optional[storeio.StoreIO] = None):
        self.base_dir = base_dir
        self.io = io or storeio.DEFAULT
        self.chunks = ChunkStore(base_dir, self.io)
        self.journal = Journal(base_dir, self.io)
        self._lock = threading.Lock()
        # generation -> pin refcount.  A pinned generation is being
        # written (async drain) or read (restart): some of its images
        # may not be on disk yet, or must not vanish, so pruning and
        # fsck treat it as live.
        self._pins: Dict[int, int] = {}
        self._warned: Set[str] = set()
        # (generation, require_cold) -> (stat signature, problems): a
        # verdict is reused while nothing in the generation dir or the
        # chunk store changed (new writes, pruning, GC and in-place
        # corruption all change the signature).
        self._verdicts: Dict[Tuple[int, bool], Tuple[tuple, List[str]]] = {}

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def generation_dir(self, generation: int) -> str:
        return os.path.join(self.base_dir, f"ckpt_{generation:04d}")

    def image_path(self, generation: int, rank: int) -> str:
        return os.path.join(self.generation_dir(generation),
                            f"rank_{rank:05d}.img")

    def manifest_path(self, generation: int) -> str:
        return os.path.join(self.generation_dir(generation), MANIFEST_NAME)

    def generations(self) -> List[int]:
        """Sorted generation numbers present in the directory.

        Unrecognized entries (anything that is not a ``ckpt_<int>``
        generation dir or part of the store layout) are warned about
        once instead of being skipped silently.
        """
        if not os.path.isdir(self.base_dir):
            return []
        gens = []
        for name in os.listdir(self.base_dir):
            if name.startswith("ckpt_"):
                try:
                    gens.append(int(name[len("ckpt_"):]))
                    continue
                except ValueError:
                    pass
            if name in RESERVED_DIRNAMES or name.endswith(storeio.TMP_SUFFIX):
                continue
            with self._lock:
                if name in self._warned:
                    continue
                self._warned.add(name)
            warnings.warn(
                f"unrecognized entry {name!r} in checkpoint dir "
                f"{self.base_dir} (expected ckpt_<generation> dirs or one "
                f"of {RESERVED_DIRNAMES})",
                stacklevel=2,
            )
        gens.sort()
        return gens

    # ------------------------------------------------------------------
    # pins
    # ------------------------------------------------------------------
    def pin(self, generation: int) -> None:
        """Hold ``generation`` in flight until a matching :meth:`unpin`:
        :meth:`prune` neither dooms it nor counts it toward ``keep``,
        and fsck leaves it alone.  Pins are refcounted."""
        with self._lock:
            self._pins[generation] = self._pins.get(generation, 0) + 1

    def unpin(self, generation: int) -> None:
        with self._lock:
            n = self._pins.pop(generation) - 1
            if n:
                self._pins[generation] = n

    @contextlib.contextmanager
    def pinned(self, generation: int):
        """:meth:`pin` ``generation`` for the ``with`` block."""
        self.pin(generation)
        try:
            yield
        finally:
            self.unpin(generation)

    def pinned_generations(self) -> Set[int]:
        with self._lock:
            return set(self._pins)

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def save_v4(self, image: CheckpointImage, *, injector=None,
                vtime: float = 0.0) -> int:
        """Write one rank's image in **format 4**; returns its size in
        bytes.  One monolithic checksummed pickle per file.  Jobs write
        format 5 only; this writer stays because the read-compatibility
        tests build their format-4 fixtures with it and the benchmark
        probes it (through :func:`save_image`).

        Crash-safe: the bytes land in a unique temp file and are
        atomically renamed, so the final path either holds a complete
        verified image or nothing.  ``injector`` (a
        :class:`repro.faults.FaultInjector`) may fire a mid-save crash
        or a disk-full error at this site.
        """
        path = self.image_path(image.generation, image.rank)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        data = _encode_image_v4(image)
        # Intent journal: a crash anywhere inside this mutation leaves the
        # record pending, and fsck rolls the (manifest-less) generation
        # back.  No in-writer rollback on exceptions — the writer is
        # treated as dead and repair is fsck's job (PROTOCOLS.md §13).
        token = self.journal.begin(
            "image-save", generation=image.generation, rank=image.rank,
            format=4,
        )
        if injector is not None:
            _injection_points(path, data, image, injector, vtime)
        tmp = storeio.tmp_name(path)
        self.io.write_file(tmp, data, "image.tmp", "save")
        self.io.rename(tmp, path, "image", "save")  # atomic: no torn images
        self.journal.retire(token)
        if injector is not None:
            # Post-rename bit rot / torn-write simulation on the final file.
            injector.after_save(path, image.rank, image.generation)
        return len(data)

    def save(self, image: CheckpointImage, blob: Optional[bytes] = None, *,
             injector=None, vtime: float = 0.0, pool=None,
             pin: bool = False, context: str = "save") -> Dict:
        """Write one rank's image in **format 5**: chunks into the chunk
        store, a small header-only image file at its layout path.

        ``blob`` is the pickled upper half when the caller already has
        it (the async drainer snapshots it at the barrier and encodes it
        here later); otherwise the image is pickled now.  Returns the
        save statistics the dedup reporting and the checkpoint cost
        model consume::

            {"format": 5,
             "payload_bytes":  <uncompressed pickle size>,
             "file_bytes":     <image file size>,
             "chunks_total":   n, "chunks_written": w, "chunks_reused": r,
             "bytes_written":  <image file + newly stored compressed bytes>}

        Only chunks whose content is new to the store are written —
        generation N+1 of a mostly-unchanged rank writes a few chunks
        plus the reference list.  Faults fire *before* any durable
        write, so an injected crash or disk-full leaves no fresh chunks
        behind.

        With a ``pool`` (:class:`repro.harness.parallel.TaskPool`), the
        unique chunks are fanned out in ~256 KiB runs so chunk writes
        from *all* ranks interleave across the pool's workers — one
        large rank no longer serializes a save round.  With ``pin``, the
        chunk digests are refcount-pinned in the chunk store until the
        image header reaches its final path, keeping a concurrent GC
        from deleting chunks whose referencing header is not yet visible
        on disk.  ``context`` names the operation (``"save"``, or
        ``"drain"`` from the async drainer) in every crash point fired.
        """
        if blob is None:
            blob = pickle_upper_half(image)
        path = self.image_path(image.generation, image.rank)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        spans = chunk_spans(blob)
        view = memoryview(blob)
        digests = digest_spans(view, spans)
        refs = [[d, e - s] for d, (s, e) in zip(digests, spans)]
        data = _encode_image_v5(image, len(blob), refs)
        # Intent journal: pending record = this image (and the chunks only
        # it references) may be half-published; fsck rolls the generation
        # back unless its manifest made it to disk.  Chunk publishes are
        # covered by this record rather than journaled one-by-one — an
        # orphaned chunk is invisible (content-addressed, unreferenced)
        # until GC or fsck reclaims it.
        token = self.journal.begin(
            "image-save", context=context, generation=image.generation,
            rank=image.rank, format=5,
        )
        if injector is not None:
            _injection_points(path, data, image, injector, vtime)
        seen: Set[str] = set()
        todo: List[Tuple[str, int, int]] = []
        for d, (s, e) in zip(digests, spans):
            if d in seen:
                continue  # intra-payload duplicate: one store write at most
            seen.add(d)
            todo.append((d, s, e))
        if pin:
            self.chunks.pin(seen)
        try:
            runs: List[List[Tuple[str, int, int]]] = []
            run: List[Tuple[str, int, int]] = []
            size = 0
            for item in todo:
                run.append(item)
                size += item[2] - item[1]
                if size >= _RUN_BYTES:
                    runs.append(run)
                    run, size = [], 0
            if run:
                runs.append(run)
            if pool is not None and len(runs) > 1:
                results = pool.gather([
                    (_store_chunk_run, self.chunks, view, r, context)
                    for r in runs
                ])
            else:
                results = [_store_chunk_run(self.chunks, view, r, context)
                           for r in runs]
            written = sum(w for w, _ in results)
            new_digests = [d for _, nd in results for d in nd]
            tmp = storeio.tmp_name(path)
            self.io.write_file(tmp, data, "image.tmp", context)
            self.io.rename(tmp, path, "image", context)
        finally:
            if pin:
                self.chunks.unpin(seen)
        self.journal.retire(token, context)
        if injector is not None:
            injector.after_save(path, image.rank, image.generation)
            injector.after_chunked_save(
                self, image.rank, image.generation, new_digests, digests
            )
        return {
            "format": 5,
            "payload_bytes": len(blob),
            "file_bytes": len(data),
            "chunks_total": len(refs),
            "chunks_written": len(new_digests),
            "chunks_reused": len(seen) - len(new_digests),
            "bytes_written": len(data) + written,
        }

    def write_manifest(
        self,
        generation: int,
        *,
        nranks: int,
        impl: str,
        kind: str,
        cold_restartable: bool,
        loop_target: Optional[int],
        extra: Optional[Dict] = None,
        dedup: Optional[Dict] = None,
        context: str = "save",
    ) -> str:
        """Job-level manifest, written once per generation (by
        :meth:`commit`); returns its path.

        Atomic like the images: a generation with a manifest at its
        final path is by construction complete (the manifest is written
        last, after every rank's image passed the saved barrier).

        ``dedup`` records the generation's incremental-save
        effectiveness (``chunks_written`` / ``chunks_reused`` /
        ``bytes_written`` summed over ranks, :func:`dedup_summary`);
        surfaced by ``python -m repro faults``.
        """
        os.makedirs(self.generation_dir(generation), exist_ok=True)
        path = self.manifest_path(generation)
        doc = {
            "format_version": FORMAT_VERSION,
            "generation": generation,
            "nranks": nranks,
            "impl": impl,
            "kind": kind,
            "cold_restartable": cold_restartable,
            "loop_target": loop_target,
            "extra": extra or {},
        }
        if dedup is not None:
            doc["dedup"] = dedup
        # The manifest is the generation's commit marker: journal the
        # commit intent, publish atomically, retire.  A crash in between
        # leaves a pending record for fsck, which rolls forward (manifest
        # landed) or back (it did not — the generation is invisible
        # either way).
        token = self.journal.begin("manifest-commit", context=context,
                                   generation=generation)
        tmp = storeio.tmp_name(path)
        self.io.write_file(tmp, json.dumps(doc, indent=2).encode("utf-8"),
                           "manifest.tmp", context)
        self.io.rename(tmp, path, "manifest", context)
        self.journal.retire(token, context)
        return path

    def commit(self, generation: int, manifest_fields: Dict,
               keep: Optional[int] = None, *, unpin: bool = False,
               context: str = "save") -> None:
        """Commit a round's generation once every rank image is durable:
        :meth:`write_manifest`, then :meth:`prune` to ``keep`` if set.
        The coordinator's save-gate action calls it in a sync round, the
        drainer in an async one; nothing else writes a round's manifest.

        ``unpin`` drops the caller's :meth:`pin` (an async drain writes
        under one) after the manifest write and before the prune, so
        the new generation counts toward ``keep``.  ``context`` names
        the manifest write's crash points; the prune names its own."""
        try:
            self.write_manifest(generation, context=context,
                                **manifest_fields)
        finally:
            if unpin:
                self.unpin(generation)
        if keep:
            self.prune(keep)

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def read_manifest(self, generation: Optional[int] = None) -> Dict:
        """Read a generation's manifest; latest generation when
        unspecified."""
        if generation is None:
            gens = self.generations()
            if not gens:
                raise RestartError(f"no checkpoints under {self.base_dir}")
            generation = gens[-1]
        path = self.manifest_path(generation)
        try:
            with open(path) as f:
                return json.load(f)
        except FileNotFoundError:
            raise RestartError(f"no manifest at {path}") from None

    def verify_image(self, path: str, deep: bool = True) -> Dict:
        """Integrity-check one image of this store without unpickling
        its payload; returns the parsed header.

        Raises :class:`IntegrityError` on truncation or checksum
        mismatch (for format 5: of the header file or, with ``deep``, of
        any referenced chunk — decompress + sha256, memoized per chunk
        file), :class:`RestartError` when the file is missing or not a
        recognized image format.
        """
        data = _read_image_file(path)
        header = _read_header(path, data)
        if header["format_version"] == 4:
            _verify_bytes_v4(path, data, header)
            return header
        _verify_bytes_v5(path, data)
        if deep:
            refs = header.get("chunks", [])
            for i, (digest, _ulen) in enumerate(refs):
                self.chunks.verify(
                    digest, context=f"{path}: chunk {i}/{len(refs)}"
                )
        return header

    def load_image(self, path: str,
                   expect_nranks: Optional[int] = None) -> CheckpointImage:
        """Load one image of this store (either format), verifying
        integrity first.

        Format 4 verifies the full-payload sha256; format 5 streams the
        payload back chunk by chunk, each chunk verified against its own
        digest — corruption therefore names the chunk index rather than
        just "checksum mismatch somewhere in N hundred MB".

        ``expect_nranks`` fails fast — *before* the expensive unpickle —
        when the image was written at a different world size, instead of
        letting the mismatch surface as an obscure replay or membership
        error later.
        """
        data = _read_image_file(path)
        header = _read_header(path, data)
        if expect_nranks is not None and header["nranks"] != expect_nranks:
            raise RestartError(
                f"{path}: image was checkpointed at nranks="
                f"{header['nranks']} but the restore expects "
                f"{expect_nranks} ranks; restore at the original rank "
                f"count or use elastic restart "
                f"(Launcher.elastic_restart / `python -m repro restart "
                f"--ranks N`) to repartition"
            )
        (hdr_len,) = _LEN.unpack_from(data, len(MAGIC))
        if header["format_version"] == 4:
            _verify_bytes_v4(path, data, header)
            blob = data[len(MAGIC) + _LEN.size + hdr_len:]
            stored = len(data)
        else:
            _verify_bytes_v5(path, data)
            refs = header.get("chunks", [])
            parts = bytearray()
            for i, (digest, ulen) in enumerate(refs):
                chunk = self.chunks.get(
                    digest, context=f"{path}: chunk {i}/{len(refs)}"
                )
                if len(chunk) != ulen:
                    raise IntegrityError(
                        f"{path}: chunk {i}/{len(refs)} {digest[:12]}… "
                        f"length {len(chunk)} != recorded {ulen}"
                    )
                parts += chunk
            if len(parts) != header["payload_bytes"]:
                raise IntegrityError(
                    f"{path}: reassembled payload is {len(parts)} bytes, "
                    f"header promises {header['payload_bytes']}"
                )
            blob = bytes(parts)
            stored = len(data) + len(blob)
        uh = pickle.loads(blob)
        return CheckpointImage(
            rank=header["rank"],
            nranks=header["nranks"],
            impl=header["impl"],
            kind=header["kind"],
            generation=header["generation"],
            app=uh["app"],
            loops=uh["loops"],
            vid_table=uh["vid_table"],
            drain_buffer=uh["drain_buffer"],
            clock_state=uh["clock_state"],
            rng_state=uh["rng_state"],
            cs_count=uh["cs_count"],
            epoch=uh["epoch"],
            stored_bytes=stored,
        )

    def referenced_chunks(
            self, generations: Optional[Iterable[int]] = None) -> Set[str]:
        """Union of chunk digests referenced by the images of
        ``generations`` (default: every generation present)."""
        if generations is None:
            generations = self.generations()
        refs: Set[str] = set()
        for g in generations:
            d = self.generation_dir(g)
            if not os.path.isdir(d):
                continue
            for name in os.listdir(d):
                if name.startswith("rank_") and name.endswith(".img"):
                    for digest, _ulen in image_chunk_refs(
                            os.path.join(d, name)):
                        refs.add(digest)
        return refs

    # ------------------------------------------------------------------
    # restorability
    # ------------------------------------------------------------------
    def validate(self, generation: int,
                 require_cold: bool = True) -> List[str]:
        """Why ``generation`` cannot be restored (empty = it can).

        Checks manifest presence, cold-restartability, completeness (an
        image for every rank), and per-image integrity — for format 5
        that includes every referenced chunk in the store.  Returns
        human-readable problem strings.  The verdict is memoized against
        a stat signature of the generation dir and the chunk store, so
        repeated restorability questions stop re-hashing unchanged
        images.
        """
        sig = _stat_signature(self.generation_dir(generation),
                              self.chunks.dir)
        key = (generation, require_cold)
        with self._lock:
            cached = self._verdicts.get(key)
        if cached is not None and cached[0] == sig:
            return list(cached[1])
        problems = self._problems(generation, require_cold)
        with self._lock:
            self._verdicts[key] = (sig, list(problems))
        return problems

    def _problems(self, generation: int, require_cold: bool) -> List[str]:
        problems: List[str] = []
        try:
            manifest = self.read_manifest(generation)
        except RestartError as exc:
            return [str(exc)]
        if require_cold and not manifest.get("cold_restartable"):
            problems.append(
                f"generation {generation} is not cold-restartable "
                f"(kind={manifest.get('kind')!r})"
            )
        for rank in range(manifest.get("nranks", 0)):
            path = self.image_path(generation, rank)
            if not os.path.exists(path):
                problems.append(f"no checkpoint image for rank {rank}")
                continue
            try:
                header = self.verify_image(path)
            except (IntegrityError, RestartError) as exc:
                problems.append(f"rank {rank}: {exc}")
                continue
            if header["generation"] != generation or header["rank"] != rank:
                problems.append(
                    f"rank {rank}: image identity mismatch "
                    f"(header says rank {header['rank']} "
                    f"generation {header['generation']})"
                )
        return problems

    def restorable(self) -> List[int]:
        """Generations that pass :meth:`validate`, ascending."""
        return [g for g in self.generations() if not self.validate(g)]

    def latest_restorable(self) -> Optional[int]:
        """Newest complete, integrity-verified, cold-restartable
        generation (None when no generation qualifies)."""
        gens = self.restorable()
        return gens[-1] if gens else None

    # ------------------------------------------------------------------
    # pruning + chunk garbage collection
    # ------------------------------------------------------------------
    def gc(self) -> Tuple[int, int]:
        """Delete chunks referenced by no remaining generation; returns
        (chunks removed, compressed bytes reclaimed).

        GC is journaled but idempotent: a crash mid-sweep leaves a
        pending ``gc`` record and some unreferenced chunks undeleted;
        fsck simply redoes the reference scan and finishes the sweep.
        """
        token = self.journal.begin("gc", context="gc")
        removed, reclaimed = self.chunks.gc(self.referenced_chunks(), "gc")
        self.journal.retire(token, "gc")
        return removed, reclaimed

    def remove_generation(self, generation: int, context: str) -> None:
        """Delete one generation directory, manifest **first**.

        Ordering is the crash-safety argument: the manifest is the
        commit marker, so unlinking it first makes the generation
        invisible before any image disappears — a crash mid-removal
        leaves a manifest-less directory that fsck (or a re-run prune)
        finishes deleting, never a manifest pointing at missing images.
        ``context`` names the operation removing it (``prune``,
        ``drain`` or ``fsck``).
        """
        d = self.generation_dir(generation)
        self.io.unlink(self.manifest_path(generation), "manifest", context)
        try:
            names = sorted(os.listdir(d))
        except FileNotFoundError:
            return
        for name in names:
            if name == MANIFEST_NAME:
                continue
            self.io.unlink(os.path.join(d, name), "image", context)
        self.io.rmdir(d, "generation", context)

    def prune(self, keep: int) -> Dict:
        """Remove all but the newest ``keep`` generations, then collect
        unreferenced chunks.  Returns a summary dict.

        Pinned generations are never doomed and do not count toward
        ``keep`` — a half-materialized newest generation must not cause
        the last complete one to be pruned out from under a restart.

        The journaled ``prune`` record names the doomed generations up
        front; deletion (manifest-first, see :meth:`remove_generation`)
        is re-runnable, so fsck finishes an interrupted prune instead of
        rolling it back.
        """
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        gens = self.generations()
        pinned = self.pinned_generations()
        prunable = [g for g in gens if g not in pinned]
        doomed = prunable[:-keep] if len(prunable) > keep else []
        token = None
        if doomed:
            token = self.journal.begin("prune", context="prune",
                                       generations=doomed)
        for g in doomed:
            self.remove_generation(g, "prune")
        removed, reclaimed = self.gc()
        self.journal.retire(token, "prune")
        return {
            "pruned_generations": doomed,
            "kept_generations": [g for g in gens if g not in doomed],
            "chunks_removed": removed,
            "bytes_reclaimed": reclaimed,
        }


# ----------------------------------------------------------------------
# one store per directory
# ----------------------------------------------------------------------
_STORES: Dict[str, CheckpointStore] = {}
_STORES_LOCK = threading.Lock()


def store_for(base_dir) -> CheckpointStore:
    """The process-wide :class:`CheckpointStore` of a checkpoint
    directory (a store passes through unchanged).

    The registry is strong on purpose: two jobs sharing a directory must
    see each other's generation pins, and a restart that follows an
    fsck reuses the chunk verification memo the fsck built.
    """
    if isinstance(base_dir, CheckpointStore):
        return base_dir
    key = os.path.abspath(base_dir)
    with _STORES_LOCK:
        store = _STORES.get(key)
        if store is None:
            store = _STORES[key] = CheckpointStore(base_dir)
        return store


# ----------------------------------------------------------------------
# module-level names benchmarks/perf calls: delegations to the store.
# A save's ``path`` must be the image's own layout path
# (``rank_image_path(base, image.generation, image.rank)``): the store
# derives where to write from the image.
# ----------------------------------------------------------------------
def _owner(path: str) -> CheckpointStore:
    """The store an image path ``<base>/ckpt_NNNN/rank_NNNNN.img`` is in."""
    return store_for(os.path.dirname(os.path.dirname(path)))


def rank_image_path(base_dir: str, generation: int, rank: int) -> str:
    return store_for(base_dir).image_path(generation, rank)


def save_image(path: str, image: CheckpointImage, injector=None,
               vtime: float = 0.0) -> int:
    return _owner(path).save_v4(image, injector=injector, vtime=vtime)


def save_chunked_image(path: str, image: CheckpointImage, store=None,
                       injector=None, vtime: float = 0.0,
                       pool=None) -> Dict:
    """``store`` (a :class:`ChunkStore` of the same directory) is kept
    for the caller's argument list; the directory's own chunk store
    writes."""
    return _owner(path).save(image, injector=injector, vtime=vtime,
                             pool=pool)


def write_manifest(base_dir: str, generation: int, **fields) -> str:
    return store_for(base_dir).write_manifest(generation, **fields)


def read_manifest(base_dir: str, generation: Optional[int] = None) -> Dict:
    return store_for(base_dir).read_manifest(generation)


def load_image(path: str,
               expect_nranks: Optional[int] = None) -> CheckpointImage:
    return _owner(path).load_image(path, expect_nranks)


def verify_image(path: str, deep: bool = True) -> Dict:
    return _owner(path).verify_image(path, deep)


def validate_generation(base_dir: str, generation: int,
                        require_cold: bool = True) -> List[str]:
    return store_for(base_dir).validate(generation, require_cold)


def latest_restorable_generation(base_dir: str) -> Optional[int]:
    return store_for(base_dir).latest_restorable()


def referenced_chunks(base_dir: str,
                      generations: Optional[Iterable[int]] = None
                      ) -> Set[str]:
    return store_for(base_dir).referenced_chunks(generations)


def prune_generations(base_dir: str, keep: int) -> Dict:
    return store_for(base_dir).prune(keep)
