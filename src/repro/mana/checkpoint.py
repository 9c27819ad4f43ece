"""Checkpoint images: the serialized upper half.

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

**Format 4** (read-side back-compat, and still the write path when no
chunk store is configured)::

    MAGIC (8 bytes) | header length (4 bytes, big-endian) | JSON header
    | pickle payload

The JSON header carries ``payload_bytes`` and a ``payload_sha256`` over
the pickle blob, so :func:`load_image` detects truncation and bit rot
*before* unpickling.

**Format 5** (incremental, chunked, deduplicated)::

    MAGIC | header length | JSON header | sha256(JSON header) (32 bytes)

The payload is *not* in the image file.  It lives in the per-job
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
"""

from __future__ import annotations

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
    ChunkStore,
    STORE_DIRNAME,
    chunk_spans,
    digest_spans,
    store_for,
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


def generation_dir(base_dir: str, generation: int) -> str:
    return os.path.join(base_dir, f"ckpt_{generation:04d}")


def rank_image_path(base_dir: str, generation: int, rank: int) -> str:
    return os.path.join(generation_dir(base_dir, generation), f"rank_{rank:05d}.img")


def _base_dir_of(path: str) -> str:
    """ckpt base dir for an image path (…/base/ckpt_NNNN/rank_X.img)."""
    return os.path.dirname(os.path.dirname(os.path.abspath(path)))


# ----------------------------------------------------------------------
# directory caches (satellite: no repeated re-scans / re-verifies)
# ----------------------------------------------------------------------
# Both caches are keyed by absolute base dir and guarded by one lock.
#
# * listing cache: latest_generations() re-listed and re-sorted the base
#   dir on every call; now the sorted list is reused while the base
#   dir's mtime_ns is unchanged (creating/removing a generation dir
#   bumps it).
# * validation cache: restorable_generations()/
#   latest_restorable_generation() re-verified every image of every
#   generation per call; now a generation's verdict is reused while its
#   stat signature (file names, sizes, mtimes of the generation dir and
#   the chunk store) is unchanged.  New-generation writes, pruning, GC,
#   and any in-place corruption all change the signature.
_CACHE_LOCK = threading.Lock()
_LIST_CACHE: Dict[str, Tuple[int, List[int]]] = {}
_VALIDATION_CACHE: Dict[str, Dict[Tuple[int, bool], Tuple[tuple, List[str]]]] = {}
_WARNED_ENTRIES: Set[Tuple[str, str]] = set()


def invalidate_checkpoint_caches(base_dir: Optional[str] = None) -> None:
    """Drop cached directory listings and generation verdicts (all
    directories when ``base_dir`` is None).  Called on new-generation
    writes and pruning; exposed for tests and external mutation."""
    with _CACHE_LOCK:
        if base_dir is None:
            _LIST_CACHE.clear()
            _VALIDATION_CACHE.clear()
            return
        key = os.path.abspath(base_dir)
        _LIST_CACHE.pop(key, None)
        _VALIDATION_CACHE.pop(key, None)


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
# encode / save
# ----------------------------------------------------------------------
def _pickle_upper_half(image: CheckpointImage) -> bytes:
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
        # One pickle for everything that shares objects:
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
    blob = _pickle_upper_half(image)
    header = _identity_header(image, 4)
    header["payload_bytes"] = len(blob)
    header["payload_sha256"] = hashlib.sha256(blob).hexdigest()
    hdr = json.dumps(header, sort_keys=True).encode("utf-8")
    return MAGIC + _LEN.pack(len(hdr)) + hdr + blob


def _encode_image_v5(image: CheckpointImage, blob_len: int,
                     refs: List[List], compress_level: int) -> bytes:
    """MAGIC + length-prefixed JSON header + sha256 over the header."""
    header = _identity_header(image, 5)
    header["payload_bytes"] = blob_len
    header["chunks"] = refs
    header["chunking"] = {
        "min": CHUNK_MIN, "max": CHUNK_MAX, "compress_level": compress_level,
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


def save_image(path: str, image: CheckpointImage, injector=None,
               vtime: float = 0.0) -> int:
    """Write one rank's image in **format 4**; returns its size in bytes.

    Kept as the storeless write path (and the write-side compatibility
    reference): one monolithic checksummed pickle per file.  Jobs with a
    chunk store use :func:`save_chunked_image` instead.

    Crash-safe: the bytes land in ``<path>.tmp`` and are atomically
    renamed, so the final path either holds a complete verified image or
    nothing.  ``injector`` (a :class:`repro.faults.FaultInjector`) may
    fire a mid-save crash or a disk-full error at this site.
    """
    os.makedirs(os.path.dirname(path), exist_ok=True)
    base = _base_dir_of(path)
    invalidate_checkpoint_caches(base)
    data = _encode_image_v4(image)
    # Intent journal: a crash anywhere inside this mutation leaves the
    # record pending, and fsck rolls the (manifest-less) generation
    # back.  No in-writer rollback on exceptions — the writer is
    # treated as dead and repair is fsck's job (PROTOCOLS.md §13).
    token = Journal(base).begin(
        "image-save", generation=image.generation, rank=image.rank,
        format=4,
    )
    if injector is not None:
        _injection_points(path, data, image, injector, vtime)
    tmp = storeio.tmp_name(path)
    storeio.write_file(tmp, data, site="image.tmp")
    storeio.rename(tmp, path, site="image")  # atomic: no torn images
    Journal(base).retire(token)
    if injector is not None:
        # Post-rename bit rot / torn-write simulation on the final file.
        injector.after_save(path, image.rank, image.generation)
    return len(data)


def save_chunked_image(
    path: str,
    image: CheckpointImage,
    store: ChunkStore,
    injector=None,
    vtime: float = 0.0,
    pool=None,
) -> Dict:
    """Write one rank's image in **format 5**: chunks into ``store``,
    a small header-only image file at ``path``.

    Pickles the upper half and delegates to :func:`save_chunked_blob`;
    see there for the statistics dict and the pool semantics.
    """
    blob = _pickle_upper_half(image)
    return save_chunked_blob(
        path, image, blob, store, injector=injector, vtime=vtime, pool=pool
    )


#: Pooled chunk runs target this many uncompressed bytes each: small
#: enough that a 4 MB rank splits into ~16 interleavable work items,
#: large enough that submit overhead stays under ~1% of the zlib cost.
_RUN_BYTES = 256 * 1024


def _store_chunk_run(store: ChunkStore, view, run) -> Tuple[int, List[str]]:
    """Compress+store one run of (digest, start, end) items serially;
    returns (bytes_written, digests new to the store)."""
    written = 0
    new_digests: List[str] = []
    for d, s, e in run:
        nbytes, reused = store.put_known(d, view[s:e])
        if not reused:
            written += nbytes
            new_digests.append(d)
    return written, new_digests


def save_chunked_blob(
    path: str,
    image: CheckpointImage,
    blob: bytes,
    store: ChunkStore,
    injector=None,
    vtime: float = 0.0,
    pool=None,
    pin: bool = False,
) -> Dict:
    """Write one rank's **format-5** image from an already-pickled
    ``blob`` (the async drainer snapshots the pickle at the barrier and
    encodes it here later).

    Returns the save statistics the dedup reporting and the checkpoint
    cost model consume::

        {"format": 5,
         "payload_bytes":  <uncompressed pickle size>,
         "file_bytes":     <image file size>,
         "chunks_total":   n, "chunks_written": w, "chunks_reused": r,
         "bytes_written":  <image file + newly stored compressed bytes>}

    Only chunks whose content is new to the store are written —
    generation N+1 of a mostly-unchanged rank writes a few chunks plus
    the reference list.  Faults fire *before* any durable write, so an
    injected crash or disk-full leaves no fresh chunks behind.

    With a ``pool`` (:class:`repro.harness.parallel.TaskPool`), the
    unique chunks are fanned out in ~256 KiB runs so chunk writes from
    *all* ranks interleave across the pool's workers — one large rank no
    longer serializes a save round.  With ``pin``, the chunk digests are
    refcount-pinned in the store until the image header reaches its
    final path, keeping a concurrent GC from deleting chunks whose
    referencing header is not yet visible on disk.
    """
    os.makedirs(os.path.dirname(path), exist_ok=True)
    base = _base_dir_of(path)
    invalidate_checkpoint_caches(base)
    spans = chunk_spans(blob)
    view = memoryview(blob)
    digests = digest_spans(view, spans)
    refs = [[d, e - s] for d, (s, e) in zip(digests, spans)]
    data = _encode_image_v5(image, len(blob), refs, store.compress_level)
    # Intent journal: pending record = this image (and the chunks only
    # it references) may be half-published; fsck rolls the generation
    # back unless its manifest made it to disk.  Chunk publishes are
    # covered by this record rather than journaled one-by-one — an
    # orphaned chunk is invisible (content-addressed, unreferenced)
    # until GC or fsck reclaims it.
    token = Journal(base).begin(
        "image-save", generation=image.generation, rank=image.rank,
        format=5,
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
        store.pin(seen)
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
            results = pool.gather(
                [(_store_chunk_run, store, view, r) for r in runs]
            )
        else:
            results = [_store_chunk_run(store, view, r) for r in runs]
        written = sum(w for w, _ in results)
        new_digests = [d for _, nd in results for d in nd]
        tmp = storeio.tmp_name(path)
        storeio.write_file(tmp, data, site="image.tmp")
        storeio.rename(tmp, path, site="image")
    finally:
        if pin:
            store.unpin(seen)
    Journal(base).retire(token)
    if injector is not None:
        injector.after_save(path, image.rank, image.generation)
        injector.after_chunked_save(
            store, image.rank, image.generation, new_digests, digests
        )
    reused_count = len(seen) - len(new_digests)
    return {
        "format": 5,
        "payload_bytes": len(blob),
        "file_bytes": len(data),
        "chunks_total": len(refs),
        "chunks_written": len(new_digests),
        "chunks_reused": reused_count,
        "bytes_written": len(data) + written,
    }


def dedup_summary(stats: Collection[Dict]) -> Dict:
    """One generation's incremental-save effectiveness: the per-rank
    :func:`save_chunked_blob` statistics summed over ranks — what
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
# decode / load
# ----------------------------------------------------------------------
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


def _verify_bytes(path: str, data: bytes, deep: bool = True) -> Dict:
    """Header + integrity check for either format; returns the header.

    For format 5 with ``deep=True`` every referenced chunk is verified
    in the store (decompress + sha256, memoized per chunk file) — a
    corrupt or missing chunk names its index and digest.
    """
    header = _read_header(path, data)
    if header["format_version"] == 4:
        _verify_bytes_v4(path, data, header)
        return header
    _verify_bytes_v5(path, data)
    if deep:
        store = store_for(_base_dir_of(path))
        refs = header.get("chunks", [])
        for i, (digest, _ulen) in enumerate(refs):
            store.verify(digest, context=f"{path}: chunk {i}/{len(refs)}")
    return header


def verify_image(path: str, deep: bool = True) -> Dict:
    """Integrity-check one image without unpickling its payload.

    Returns the parsed header; raises :class:`IntegrityError` on
    truncation or checksum mismatch (for format 5: of the header file
    or of any referenced chunk), :class:`RestartError` when the file is
    missing or not a recognized image format.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        raise RestartError(f"no checkpoint image at {path}") from None
    return _verify_bytes(path, data, deep=deep)


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


def load_image(path: str, expect_nranks: Optional[int] = None) -> CheckpointImage:
    """Load one rank's image (either format), verifying integrity first.

    Format 4 verifies the full-payload sha256; format 5 streams the
    payload back chunk by chunk, each chunk verified against its own
    digest — corruption therefore names the chunk index rather than
    just "checksum mismatch somewhere in N hundred MB".

    ``expect_nranks`` fails fast — *before* the expensive unpickle — when
    the image was written at a different world size, instead of letting
    the mismatch surface as an obscure replay or membership error later.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        raise RestartError(f"no checkpoint image at {path}") from None
    header = _read_header(path, data)
    if expect_nranks is not None and header["nranks"] != expect_nranks:
        raise RestartError(
            f"{path}: image was checkpointed at nranks="
            f"{header['nranks']} but the restore expects "
            f"{expect_nranks} ranks; restore at the original rank count "
            f"or use elastic restart "
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
        store = store_for(_base_dir_of(path))
        refs = header.get("chunks", [])
        parts = bytearray()
        for i, (digest, ulen) in enumerate(refs):
            chunk = store.get(
                digest, context=f"{path}: chunk {i}/{len(refs)}"
            )
            if len(chunk) != ulen:
                raise IntegrityError(
                    f"{path}: chunk {i}/{len(refs)} {digest[:12]}… length "
                    f"{len(chunk)} != recorded {ulen}"
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


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------
def write_manifest(
    base_dir: str,
    generation: int,
    *,
    nranks: int,
    impl: str,
    kind: str,
    cold_restartable: bool,
    loop_target: Optional[int],
    extra: Optional[Dict] = None,
    dedup: Optional[Dict] = None,
) -> str:
    """Job-level manifest, written once (by rank 0) per generation.

    Atomic like the images: a generation with a manifest at its final
    path is by construction complete (the manifest is written last,
    after every rank's image passed the saved barrier).

    ``dedup`` records the generation's incremental-save effectiveness
    (``chunks_written`` / ``chunks_reused`` / ``bytes_written`` summed
    over ranks, :func:`dedup_summary`); surfaced by ``python -m repro
    faults``.
    """
    d = generation_dir(base_dir, generation)
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, MANIFEST_NAME)
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
    # The manifest is the generation's commit marker: journal the commit
    # intent, publish atomically, retire.  A crash in between leaves a
    # pending record for fsck, which rolls forward (manifest landed) or
    # back (it did not — the generation is invisible either way).
    token = Journal(base_dir).begin("manifest-commit", generation=generation)
    tmp = storeio.tmp_name(path)
    storeio.write_file(
        tmp, json.dumps(doc, indent=2).encode("utf-8"), site="manifest.tmp"
    )
    storeio.rename(tmp, path, site="manifest")
    Journal(base_dir).retire(token)
    # A new generation just completed: cached listings/verdicts for this
    # base dir are stale.
    invalidate_checkpoint_caches(base_dir)
    return path


def read_manifest(base_dir: str, generation: Optional[int] = None) -> Dict:
    """Read a generation's manifest; latest generation when unspecified."""
    if generation is None:
        gens = latest_generations(base_dir)
        if not gens:
            raise RestartError(f"no checkpoints under {base_dir}")
        generation = gens[-1]
    path = os.path.join(generation_dir(base_dir, generation), MANIFEST_NAME)
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise RestartError(f"no manifest at {path}") from None


def latest_generations(base_dir: str) -> List[int]:
    """Sorted generation numbers present under ``base_dir``.

    The scan+sort runs once per directory state: the result is cached
    against the base dir's mtime_ns, which changes whenever an entry is
    added or removed.  Unrecognized entries (anything that is not a
    ``ckpt_<int>`` generation dir or the chunk store) are warned about
    once instead of being skipped silently.
    """
    if not os.path.isdir(base_dir):
        return []
    key = os.path.abspath(base_dir)
    mtime = os.stat(base_dir).st_mtime_ns
    with _CACHE_LOCK:
        cached = _LIST_CACHE.get(key)
        if cached is not None and cached[0] == mtime:
            return list(cached[1])
    gens = []
    for name in os.listdir(base_dir):
        if name.startswith("ckpt_"):
            try:
                gens.append(int(name[len("ckpt_"):]))
                continue
            except ValueError:
                pass
        if name in RESERVED_DIRNAMES or name.endswith(storeio.TMP_SUFFIX):
            continue
        with _CACHE_LOCK:
            if (key, name) in _WARNED_ENTRIES:
                continue
            _WARNED_ENTRIES.add((key, name))
        warnings.warn(
            f"unrecognized entry {name!r} in checkpoint dir {base_dir} "
            f"(expected ckpt_<generation> dirs or one of "
            f"{RESERVED_DIRNAMES})",
            stacklevel=2,
        )
    gens.sort()
    with _CACHE_LOCK:
        _LIST_CACHE[key] = (mtime, list(gens))
    return gens


def _validate_generation_uncached(base_dir: str, generation: int,
                                  require_cold: bool) -> List[str]:
    problems: List[str] = []
    try:
        manifest = read_manifest(base_dir, generation)
    except RestartError as exc:
        return [str(exc)]
    if require_cold and not manifest.get("cold_restartable"):
        problems.append(
            f"generation {generation} is not cold-restartable "
            f"(kind={manifest.get('kind')!r})"
        )
    for rank in range(manifest.get("nranks", 0)):
        path = rank_image_path(base_dir, generation, rank)
        if not os.path.exists(path):
            problems.append(f"no checkpoint image for rank {rank}")
            continue
        try:
            header = verify_image(path)
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


def validate_generation(base_dir: str, generation: int,
                        require_cold: bool = True) -> List[str]:
    """Why generation ``generation`` cannot be restored (empty = it can).

    Checks manifest presence, cold-restartability, completeness (an
    image for every rank), and per-image integrity — for format 5 that
    includes every referenced chunk in the store.  Returns
    human-readable problem strings.

    Verdicts are cached per (base dir, generation) against a stat
    signature of the generation dir and the chunk store, so repeated
    ``restorable_generations`` calls stop re-hashing unchanged images;
    any on-disk change (new write, corruption, pruning, GC) changes the
    signature and forces re-validation.
    """
    key = os.path.abspath(base_dir)
    sig = _stat_signature(
        generation_dir(base_dir, generation),
        os.path.join(base_dir, STORE_DIRNAME),
    )
    ckey = (generation, require_cold)
    with _CACHE_LOCK:
        cached = _VALIDATION_CACHE.get(key, {}).get(ckey)
        if cached is not None and cached[0] == sig:
            return list(cached[1])
    problems = _validate_generation_uncached(base_dir, generation,
                                             require_cold)
    with _CACHE_LOCK:
        _VALIDATION_CACHE.setdefault(key, {})[ckey] = (sig, list(problems))
    return problems


def restorable_generations(base_dir: str) -> List[int]:
    """Generations that pass :func:`validate_generation`, ascending."""
    return [
        g for g in latest_generations(base_dir)
        if not validate_generation(base_dir, g)
    ]


def latest_restorable_generation(base_dir: str) -> Optional[int]:
    """Newest complete, integrity-verified, cold-restartable generation
    (None when no generation qualifies)."""
    gens = restorable_generations(base_dir)
    return gens[-1] if gens else None


# ----------------------------------------------------------------------
# pruning + chunk garbage collection
# ----------------------------------------------------------------------
# base_dir -> {generation: pin refcount}.  A pinned generation is one an
# async drainer is still materializing: some of its rank images (and the
# chunks only they reference) may not be on disk yet, so pruning and
# reference scans must treat it as live instead of racing the drainer.
_PIN_LOCK = threading.Lock()
_PINNED_GENS: Dict[str, Dict[int, int]] = {}


def pin_generation(base_dir: str, generation: int) -> None:
    """Mark ``generation`` as in-flight: :func:`prune_generations` will
    not doom it (nor treat it as satisfying ``keep``) until unpinned."""
    key = os.path.abspath(base_dir)
    with _PIN_LOCK:
        gens = _PINNED_GENS.setdefault(key, {})
        gens[generation] = gens.get(generation, 0) + 1


def unpin_generation(base_dir: str, generation: int) -> None:
    key = os.path.abspath(base_dir)
    with _PIN_LOCK:
        gens = _PINNED_GENS.get(key)
        if not gens:
            return
        c = gens.get(generation, 0) - 1
        if c <= 0:
            gens.pop(generation, None)
            if not gens:
                _PINNED_GENS.pop(key, None)
        else:
            gens[generation] = c


def pinned_generations(base_dir: str) -> Set[int]:
    with _PIN_LOCK:
        return set(_PINNED_GENS.get(os.path.abspath(base_dir), ()))


def referenced_chunks(base_dir: str,
                      generations: Optional[Iterable[int]] = None) -> Set[str]:
    """Union of chunk digests referenced by the images of
    ``generations`` (default: every generation present)."""
    if generations is None:
        generations = latest_generations(base_dir)
    refs: Set[str] = set()
    for g in generations:
        d = generation_dir(base_dir, g)
        if not os.path.isdir(d):
            continue
        for name in os.listdir(d):
            if name.startswith("rank_") and name.endswith(".img"):
                for digest, _ulen in image_chunk_refs(os.path.join(d, name)):
                    refs.add(digest)
    return refs


def gc_chunks(base_dir: str) -> Tuple[int, int]:
    """Delete store chunks referenced by no remaining generation;
    returns (chunks removed, compressed bytes reclaimed).

    GC is journaled but idempotent: a crash mid-sweep leaves a pending
    ``gc`` record and some unreferenced chunks undeleted; fsck simply
    redoes the reference scan and finishes the sweep.
    """
    store = store_for(base_dir)
    with storeio.op_context("gc"):
        token = Journal(base_dir).begin("gc")
        removed, reclaimed = store.gc(referenced_chunks(base_dir))
        Journal(base_dir).retire(token)
    if removed:
        invalidate_checkpoint_caches(base_dir)
    return removed, reclaimed


def remove_generation_dir(base_dir: str, generation: int) -> None:
    """Delete one generation directory, manifest **first**.

    Ordering is the crash-safety argument: the manifest is the commit
    marker, so unlinking it first makes the generation invisible before
    any image disappears — a crash mid-removal leaves a manifest-less
    directory that fsck (or a re-run prune) finishes deleting, never a
    manifest pointing at missing images.
    """
    d = generation_dir(base_dir, generation)
    storeio.unlink(os.path.join(d, MANIFEST_NAME), site="manifest")
    try:
        names = sorted(os.listdir(d))
    except FileNotFoundError:
        return
    for name in names:
        if name == MANIFEST_NAME:
            continue
        storeio.unlink(os.path.join(d, name), site="image")
    storeio.rmdir(d, site="generation")


def prune_generations(base_dir: str, keep: int) -> Dict:
    """Remove all but the newest ``keep`` generations, then collect
    unreferenced chunks.  Returns a summary dict.

    Generations pinned by an in-flight async drain are never doomed and
    do not count toward ``keep`` — a half-materialized newest generation
    must not cause the last complete one to be pruned out from under a
    restart.

    The journaled ``prune`` record names the doomed generations up
    front; deletion (manifest-first, see :func:`remove_generation_dir`)
    is re-runnable, so fsck finishes an interrupted prune instead of
    rolling it back.
    """
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    gens = latest_generations(base_dir)
    pinned = pinned_generations(base_dir)
    prunable = [g for g in gens if g not in pinned]
    doomed = prunable[:-keep] if len(prunable) > keep else []
    with storeio.op_context("prune"):
        token = None
        if doomed:
            token = Journal(base_dir).begin("prune", generations=doomed)
        for g in doomed:
            remove_generation_dir(base_dir, g)
        if doomed:
            invalidate_checkpoint_caches(base_dir)
        removed, reclaimed = gc_chunks(base_dir)
        Journal(base_dir).retire(token)
    return {
        "pruned_generations": doomed,
        "kept_generations": [g for g in gens if g not in doomed],
        "chunks_removed": removed,
        "bytes_reclaimed": reclaimed,
    }
