"""Content-addressed chunk store for format-5 checkpoint images.

The per-rank pickle payload is split into **content-defined chunks**: a
gear-style rolling hash slides over the bytes and declares a boundary
wherever the hash's low bits hit a fixed pattern.  Boundaries therefore
move *with the content* — inserting or resizing a region early in the
pickle shifts at most the chunks it touches, while every later chunk
keeps its bytes and hence its sha256.  That is what makes generation
N+1 cheap: unchanged application state re-produces the same chunk
digests, and the store already has them.

Each chunk is stored once per checkpoint directory under
``<ckpt_base>/chunks/`` in a file named by the sha256 of its
*uncompressed* bytes, compressed with zlib at :data:`COMPRESS_LEVEL`.  Writes are atomic (unique temp name +
``os.replace``), so two ranks racing to store the same chunk both win:
the content under a digest is immutable by construction.

Integrity is per-chunk: :meth:`ChunkStore.get` decompresses and
re-hashes, so a corrupt chunk names itself (digest + context) instead of
forcing a full-payload re-hash at restart.  :meth:`ChunkStore.verify`
memoizes successful checks against the chunk file's (size, mtime), so
repeated generation validation does not re-read healthy chunks.

Garbage collection is reference-based: :meth:`repro.mana.checkpoint.
CheckpointStore.gc` scans the refs of every remaining image header and
calls :meth:`ChunkStore.gc` with the union.  A chunk store belongs to
its directory's :class:`~repro.mana.checkpoint.CheckpointStore`.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading
import zlib
from typing import Dict, Iterable, List, Set, Tuple

from repro.mana import storeio
from repro.util.errors import IntegrityError

try:  # numpy vectorizes the rolling hash; fall back to pure python
    import numpy as _np
except Exception:  # pragma: no cover - numpy is a hard dep in practice
    _np = None

#: Chunking parameters (format-5 header records them for forensics).
CHUNK_MIN = 2048
CHUNK_MAX = 64 * 1024
#: Boundary when (hash & CHUNK_MASK) == CHUNK_MASK: 13 bits -> ~8 KiB
#: average chunk.
CHUNK_MASK = 0x1FFF

#: Rolling-hash window: the gear hash's state is a weighted sum of the
#: last ``_WINDOW`` bytes (weights 2^0..2^(W-1)); older bytes shift out.
_WINDOW = 32

STORE_DIRNAME = "chunks"
CHUNK_SUFFIX = ".z"
#: zlib level of every stored chunk (format-5 headers record it).
COMPRESS_LEVEL = 3


def _gear_table():
    """256 deterministic 64-bit mixing constants.

    Derived from sha256, never a host RNG, so chunk boundaries are
    bit-identical across processes, machines, and library versions.
    """
    vals = [
        int.from_bytes(
            hashlib.sha256(b"repro-gear/" + bytes([i])).digest()[:8], "big"
        )
        for i in range(256)
    ]
    if _np is not None:
        return _np.array(vals, dtype=_np.uint64)
    return vals


_GEAR = _gear_table()

#: Truncated gear table for the vectorized boundary scan.  The boundary
#: test only reads the low 13 bits of the windowed hash, a term
#: ``g << j`` contributes nothing modulo 2**13 once ``j >= 13``, and
#: wrapping addition commutes with truncation — so the whole scan is
#: exact in uint16 over the newest 13 window bytes.
_GEAR16 = (_GEAR & _np.uint64(0xFFFF)).astype(_np.uint16) if _np is not None else None

#: Number of window positions that can influence the low 13 bits.
_EFFECTIVE_WINDOW = 13

if _np is not None:
    #: Low byte of each gear constant — the uint8 prefilter table.
    _GEAR8 = (_GEAR & _np.uint64(0xFF)).astype(_np.uint8)
    #: Pair table: entry ``b0 | b1 << 8`` packs ``g8[b0] | g8[b1] << 8``,
    #: so on a little-endian host one gather over the uint16 view of the
    #: payload yields the g8 values of *two* bytes (viewing the packed
    #: result as uint8 lands them in input order) — half the gather
    #: count of a byte-at-a-time lookup, and the 128 KiB table stays
    #: cache-resident.
    _idx = _np.arange(65536, dtype=_np.uint32)
    _GEAR8_PAIR = (
        _GEAR8[_idx & 0xFF].astype(_np.uint16)
        | (_GEAR8[_idx >> 8].astype(_np.uint16) << _np.uint16(8))
    )
    del _idx
else:  # pragma: no cover - exercised via the pure-python fallback tests
    _GEAR8 = None
    _GEAR8_PAIR = None

_LITTLE_ENDIAN = sys.byteorder == "little"


def _gear8_values(arr):
    """g8 value per payload byte, two bytes per table lookup when the
    host is little-endian (one lookup per byte otherwise)."""
    n = arr.shape[0]
    if _LITTLE_ENDIAN and n >= 2:
        even = n & ~1
        packed = _GEAR8_PAIR[arr[:even].view(_np.uint16)].view(_np.uint8)
        if not (n & 1):
            return packed
        g8 = _np.empty(n, dtype=_np.uint8)
        g8[:even] = packed
        g8[n - 1] = _GEAR8[arr[n - 1]]
        return g8
    return _GEAR8[arr]


def _short_window_boundary(arr, i: int) -> bool:
    """Exact boundary test for a position whose window is still growing
    (i < _EFFECTIVE_WINDOW - 1): fewer than 13 bytes contribute."""
    h = 0
    for j in range(i + 1):
        h += int(_GEAR[int(arr[i - j])]) << j
    return (h & CHUNK_MASK) == CHUNK_MASK


def _boundary_candidates(data: bytes):
    """Positions i where the windowed gear hash over data[i-W+1 .. i]
    matches the boundary pattern.

    With numpy, a two-stage scan (sorted int ndarray result):

    1. **uint8 prefilter** — the low 8 bits of the windowed sum depend
       only on the newest 8 bytes (a term ``g << j`` vanishes mod 2**8
       for ``j >= 8``), so three uint8 log-doubling passes
       (``H_2k(i) = H_k(i) + (H_k(i-k) << k)``) compute them for every
       position at half the memory traffic of a uint16 scan.  The
       boundary pattern requires those bits to be all-ones — a 1/256
       filter.
    2. **exact check at survivors** — the full 13-term uint16 hash is
       gathered only at prefilter hits (~n/256 positions), then tested
       against CHUNK_MASK.

    Without numpy, returns a list from the byte-at-a-time fallback;
    both paths yield identical positions.
    """
    n = len(data)
    if n == 0:
        return []
    if _np is not None:
        arr = _np.frombuffer(data, dtype=_np.uint8)
        g8 = _gear8_values(arr)                   # H_1 mod 2^8
        t = _np.empty_like(g8)
        t[0] = 0
        _np.left_shift(g8[:-1], 1, out=t[1:])
        t += g8                                   # H_2
        h8 = _np.empty_like(g8)
        h8[:2] = 0
        _np.left_shift(t[:-2], 2, out=h8[2:])
        h8 += t                                   # H_4
        t[:4] = 0
        _np.left_shift(h8[:-4], 4, out=t[4:])
        t += h8                                   # H_8 mod 2^8
        cand = _np.flatnonzero(t == _np.uint8(0xFF))
        if cand.size == 0:
            return cand
        short = cand[cand < _EFFECTIVE_WINDOW - 1]
        full = cand[cand >= _EFFECTIVE_WINDOW - 1]
        h16 = _np.zeros(full.shape[0], dtype=_np.uint16)
        for j in range(_EFFECTIVE_WINDOW):
            h16 += _GEAR16[arr[full - j]] << _np.uint16(j)
        mask = _np.uint16(CHUNK_MASK)
        out = full[(h16 & mask) == mask]
        if short.size:
            extra = [
                int(i) for i in short if _short_window_boundary(arr, int(i))
            ]
            if extra:
                out = _np.concatenate(
                    [_np.asarray(extra, dtype=out.dtype), out]
                )
        return out
    # Pure-python fallback: same function, byte at a time.
    out = []
    mask = CHUNK_MASK
    window: List[int] = []
    h = 0
    for i, b in enumerate(data):
        window.append(int(_GEAR[b]))
        if len(window) > _WINDOW:
            window.pop(0)
        h = 0
        for j, gv in enumerate(reversed(window)):
            h = (h + (gv << j)) & 0xFFFFFFFFFFFFFFFF
        if (h & mask) == mask:
            out.append(i)
    return out


def chunk_spans(
    data: bytes,
    min_size: int = CHUNK_MIN,
    max_size: int = CHUNK_MAX,
) -> List[Tuple[int, int]]:
    """Content-defined (start, end) spans covering ``data``.

    Deterministic in the bytes alone.  Boundaries come from the rolling
    hash; ``min_size``/``max_size`` bound the pathological cases (a
    boundary pattern repeating every byte, or never appearing).
    """
    n = len(data)
    if n == 0:
        return []
    if n <= min_size:
        return [(0, n)]
    cands = _boundary_candidates(data)
    vectorized = _np is not None and isinstance(cands, _np.ndarray)
    spans: List[Tuple[int, int]] = []
    start = 0
    import bisect

    while start < n:
        hard_end = min(start + max_size, n)
        lo = start + min_size
        if lo >= n:
            spans.append((start, n))
            break
        # First candidate boundary in [start+min_size, start+max_size).
        if vectorized:
            k = int(_np.searchsorted(cands, lo))
        else:
            k = bisect.bisect_left(cands, lo)
        end = hard_end
        if k < len(cands) and int(cands[k]) < hard_end:
            end = int(cands[k]) + 1  # boundary byte included in the chunk
        spans.append((start, end))
        start = end
    return spans


def digest_spans(view, spans: List[Tuple[int, int]]) -> List[str]:
    """sha256 hexdigests for every (start, end) span of ``view``.

    One tight loop over a single memoryview: the format-5 writer hashes
    all chunk spans in a batch instead of re-slicing inside its store
    loop, and hashlib releases the GIL for buffers over 2 KiB so rank
    threads digest concurrently.
    """
    sha = hashlib.sha256
    return [sha(view[s:e]).hexdigest() for s, e in spans]


class ChunkStore:
    """Per-directory content-addressed store of compressed checkpoint
    chunks."""

    def __init__(self, base_dir: str):
        self.base_dir = base_dir
        self._lock = threading.Lock()
        # digest -> (size, mtime_ns) of the chunk file when it last
        # passed a full decompress+hash verification.
        self._verified: Dict[str, Tuple[int, int]] = {}
        # digest -> refcount of in-flight writers (async drains) whose
        # image headers do not exist on disk yet; gc treats these as
        # referenced.
        self._pins: Dict[str, int] = {}

    @property
    def dir(self) -> str:
        return os.path.join(self.base_dir, STORE_DIRNAME)

    def chunk_path(self, digest: str) -> str:
        return os.path.join(self.dir, digest + CHUNK_SUFFIX)

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def put(self, data: bytes) -> Tuple[str, int, bool]:
        """Store one chunk; returns (digest, bytes_written, reused).

        ``bytes_written`` is the compressed on-disk size when the chunk
        was new, 0 when the store already had it (dedup hit).
        """
        digest = hashlib.sha256(data).hexdigest()
        written, reused = self.put_known(digest, data)
        return digest, written, reused

    def put_known(self, digest: str, data) -> Tuple[int, bool]:
        """Store a chunk whose sha256 the caller already computed (the
        format-5 writer batch-hashes all spans up front); returns
        (bytes_written, reused)."""
        path = self.chunk_path(digest)
        if os.path.exists(path):
            return 0, True
        os.makedirs(self.dir, exist_ok=True)
        comp = zlib.compress(bytes(data), COMPRESS_LEVEL)
        # Unique temp name, then an atomic create-if-absent link: when
        # concurrent rank writers race on the same digest, exactly one
        # wins the link and charges bytes_written — the losers report a
        # dedup hit.  (os.replace would let both "succeed" and the
        # double-counted bytes would make checkpoint durations — hence
        # recovery traces — scheduling-dependent.)
        tmp = storeio.tmp_name(path)
        storeio.write_file(tmp, comp, site="chunk.tmp")
        try:
            storeio.link(tmp, path, site="chunk")
        except FileExistsError:
            return 0, True
        finally:
            storeio.unlink(tmp, site="chunk.tmp", missing_ok=True)
        with self._lock:
            st = os.stat(path)
            self._verified[digest] = (st.st_size, st.st_mtime_ns)
        return len(comp), False

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def get(self, digest: str, context: str = "") -> bytes:
        """Read, decompress, and integrity-check one chunk."""
        path = self.chunk_path(digest)
        where = f"{context}: " if context else ""
        try:
            with open(path, "rb") as f:
                comp = f.read()
        except FileNotFoundError:
            raise IntegrityError(
                f"{where}chunk {digest[:12]}… missing from store "
                f"{self.dir}"
            ) from None
        try:
            data = zlib.decompress(comp)
        except zlib.error as exc:
            raise IntegrityError(
                f"{where}chunk {digest[:12]}… corrupt "
                f"(decompression failed: {exc})"
            ) from None
        actual = hashlib.sha256(data).hexdigest()
        if actual != digest:
            raise IntegrityError(
                f"{where}chunk {digest[:12]}… checksum mismatch "
                f"(bit rot or torn write): sha256 {actual[:12]}…"
            )
        with self._lock:
            st = os.stat(path)
            self._verified[digest] = (st.st_size, st.st_mtime_ns)
        return data

    def verify(self, digest: str, context: str = "") -> None:
        """Like :meth:`get` but memoized: a chunk whose file stat is
        unchanged since its last successful verification is trusted."""
        path = self.chunk_path(digest)
        try:
            st = os.stat(path)
        except FileNotFoundError:
            raise IntegrityError(
                f"{context + ': ' if context else ''}chunk "
                f"{digest[:12]}… missing from store {self.dir}"
            ) from None
        with self._lock:
            if self._verified.get(digest) == (st.st_size, st.st_mtime_ns):
                return
        self.get(digest, context)

    def contains(self, digest: str) -> bool:
        return os.path.exists(self.chunk_path(digest))

    # ------------------------------------------------------------------
    # accounting / garbage collection
    # ------------------------------------------------------------------
    def digests(self) -> Set[str]:
        """Digests of every chunk currently on disk."""
        if not os.path.isdir(self.dir):
            return set()
        out = set()
        for name in os.listdir(self.dir):
            if name.endswith(CHUNK_SUFFIX) and not name.endswith(".tmp"):
                out.add(name[: -len(CHUNK_SUFFIX)])
        return out

    def stored_bytes(self) -> int:
        if not os.path.isdir(self.dir):
            return 0
        total = 0
        with os.scandir(self.dir) as it:
            for e in it:
                if e.name.endswith(CHUNK_SUFFIX):
                    total += e.stat().st_size
        return total

    # ------------------------------------------------------------------
    # pinning (async drains)
    # ------------------------------------------------------------------
    def pin(self, digests: Iterable[str]) -> None:
        """Refcount-protect chunks against :meth:`gc` while an async
        drain holds them — the window between a chunk landing in the
        store and the image header that references it reaching disk,
        during which a reference scan cannot see them."""
        with self._lock:
            for d in digests:
                self._pins[d] = self._pins.get(d, 0) + 1

    def unpin(self, digests: Iterable[str]) -> None:
        with self._lock:
            for d in digests:
                c = self._pins.get(d, 0) - 1
                if c <= 0:
                    self._pins.pop(d, None)
                else:
                    self._pins[d] = c

    def pinned(self) -> Set[str]:
        with self._lock:
            return set(self._pins)

    def gc(self, referenced: Iterable[str]) -> Tuple[int, int]:
        """Delete chunks not in ``referenced``; returns (removed count,
        reclaimed compressed bytes).  Pinned chunks (in-flight async
        drains) are always kept."""
        keep = set(referenced) | self.pinned()
        removed = 0
        reclaimed = 0
        for digest in sorted(self.digests() - keep):
            path = self.chunk_path(digest)
            try:
                size = os.path.getsize(path)
                storeio.unlink(path, site="chunk", missing_ok=False)
                reclaimed += size
                removed += 1
            except OSError:
                continue
            with self._lock:
                self._verified.pop(digest, None)
        return removed, reclaimed
