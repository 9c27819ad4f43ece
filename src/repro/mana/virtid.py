"""The NEW virtual-id architecture (paper Section 4.2).

One table for all five MPI object kinds.  A virtual id is a 32-bit
integer::

    [ kind:3 | index:29 ]

and is *embedded into the first 32 bits of whatever MPI object type the
target implementation's mpi.h declares*:

* 32-bit handle types (MPICH family): the virtual id IS the handle value
  the application sees;
* 64-bit handle types (Open MPI, ExaMPI pointers): the virtual id
  occupies the low 32 bits, and the high 32 bits carry a MANA tag so a
  stray physical pointer can never be mistaken for a virtual handle.

For communicators (and groups) the index embeds the *ggid* — the global
group id derived from world-rank membership — so a communicator's
virtual id is identical on every member rank and across restarts.

Each table entry carries the reconstruction record and MANA-internal
metadata (drain counters, collective sequence numbers), eliminating the
old design's per-datum side maps: one lookup returns everything
(Section 4.1, problem 3).

Ggid computation policy is pluggable (Section 9 future work): ``eager``
computes the ggid at communicator creation, ``lazy`` defers it to
checkpoint time, ``hybrid`` defers but caches by membership so
create/free loops pay the hash at most once per distinct membership.

Hot-path fast lane
------------------
``lookup``/``phys`` are called on every wrapper crossing — millions of
times per simulated job — so the table keeps two small caches in front
of the full translation path:

* an *entry cache* mapping an application-held vhandle (either embedding
  width) directly to its live :class:`VidEntry`, skipping ``extract``;
* per-kind *phys caches* (one dict per handle kind, precomputed at
  construction) so ``phys(vhandle, kind)`` on the hot wrapper paths is a
  single dict hit that also enforces the kind check by construction.

Invalidation protocol (docs/PROTOCOLS.md §8): ``set_phys`` and
``remove`` evict both embedding widths of the affected vid from every
cache; ``rebuild_reverse`` (the restart-replay epilogue) and any
``handle_bits`` change (a lower-half swap, possibly to a different
implementation) clear everything and bump ``cache_epoch``.  The caches
never survive pickling.  ``lookup_count`` is incremented exactly once
per translation whether served fast or slow, so the §6.3 ablation
numbers are unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterator, Optional, Tuple

from repro.mana.records import (
    CommRecord,
    ConstantRecord,
    GroupRecord,
    RequestRecord,
)
from repro.mpi.api import HandleKind
from repro.mpi.group import ggid_of
from repro.util.bits import BitField
from repro.util.errors import ElasticRestartError, InvalidHandleError
from repro.util.rng import _stable_hash

VID_LAYOUT = BitField(32, [("kind", 3), ("index", 29)])
INDEX_MASK = (1 << 29) - 1

KIND_TAGS = MappingProxyType({
    HandleKind.COMM: 1,
    HandleKind.GROUP: 2,
    HandleKind.DATATYPE: 3,
    HandleKind.OP: 4,
    HandleKind.REQUEST: 5,
})

#: High-word tag for 64-bit embeddings: "MANA" in ASCII.
MANA_MAGIC = 0x4D414E41

#: Cost (virtual seconds) of hashing one member world rank into a ggid —
#: the unit the eager/lazy ggid ablation measures.
GGID_HASH_COST_PER_RANK = 12e-9


class GgidPolicy:
    """When communicator ggids are computed (paper §9)."""

    EAGER = "eager"
    LAZY = "lazy"
    HYBRID = "hybrid"
    ALL = (EAGER, LAZY, HYBRID)


@dataclass
class VidEntry:
    """One row of the virtual-id table.

    ``phys`` is the current lower half's physical id — transient by
    definition: it is dropped when the entry is pickled into a
    checkpoint image and rebound by replay at restart.
    """

    vid: int             # full 32-bit virtual id (kind tag included)
    kind: str
    record: object       # reconstruction record (records.py)
    phys: Optional[int]  # physical id in the CURRENT lower half
    creation_seq: int
    constant_name: Optional[str] = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["phys"] = None  # physical ids are meaningless after restart
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    @property
    def index(self) -> int:
        return self.vid & INDEX_MASK


class VirtualIdTable:
    """The single-table virtual-id manager (the paper's new design)."""

    design_name = "new"

    def __init__(
        self,
        handle_bits: int = 32,
        ggid_policy: str = GgidPolicy.EAGER,
        clock=None,
    ):
        if ggid_policy not in GgidPolicy.ALL:
            raise ValueError(f"unknown ggid policy {ggid_policy!r}")
        self._init_fast_lane()
        self.handle_bits = handle_bits
        self.ggid_policy = ggid_policy
        self.clock = clock  # charged for ggid hashing when set
        self._entries: Dict[int, VidEntry] = {}
        self._reverse: Dict[Tuple[str, int], int] = {}  # (kind, phys) -> vid
        self._constants: Dict[str, int] = {}            # name -> vid
        self._seq = itertools.count(1)
        self._next_index: Dict[str, int] = {k: 1 for k in HandleKind.ALL}
        self._ggid_cache: Dict[Tuple[int, ...], int] = {}  # hybrid policy
        # Monotonic per-membership communicator incarnation counter: the
        # dup_seq of a new communicator.  Monotonicity (never reset by
        # comm_free) keeps (ggid, dup_seq) keys unique across create/free
        # cycles — required by the two-phase collective barrier.  Stored
        # here so it is checkpointed with the table.
        self.membership_incarnations: Dict[Tuple[int, ...], int] = {}
        # instrumentation for the lookup-cost ablation
        self.lookup_count = 0
        # Wrapper-level attribute keyvals (MPI_Comm_create_keyval):
        # persisted with the table so keyvals held in application state
        # stay valid across cold restarts.
        self.live_keyvals: set = set()
        self.next_keyval: int = 1

    # ------------------------------------------------------------------
    # hot-path fast lane (see module docstring for the protocol)
    # ------------------------------------------------------------------
    def _init_fast_lane(self) -> None:
        # vhandle (either width) -> live VidEntry
        self._fast: Dict[int, VidEntry] = {}
        # per-kind dispatch: kind (or None) -> {vhandle: phys}
        self._physcache: Dict[Optional[str], Dict[int, int]] = {
            None: {}, **{k: {} for k in HandleKind.ALL}
        }
        self.cache_hits = 0
        self.cache_epoch = 0

    @property
    def handle_bits(self) -> int:
        return self._handle_bits

    @handle_bits.setter
    def handle_bits(self, bits: int) -> None:
        # A width change means the lower half was swapped (bootstrap,
        # relaunch, or cross-impl restart): nothing cached can be trusted.
        self._handle_bits = bits
        self.invalidate_cache()

    def invalidate_cache(self) -> None:
        """Drop every fast-lane entry and start a new cache epoch."""
        self._fast.clear()
        for c in self._physcache.values():
            c.clear()
        self.cache_epoch += 1

    def _invalidate(self, vid: int) -> None:
        """Evict one vid — under both embedding widths — from all caches."""
        for key in (vid, (MANA_MAGIC << 32) | vid):
            self._fast.pop(key, None)
            for c in self._physcache.values():
                c.pop(key, None)

    # ------------------------------------------------------------------
    # embedding (paper §4.2: vid occupies the first 32 bits of the
    # implementation's MPI object type)
    # ------------------------------------------------------------------
    def embed(self, vid: int) -> int:
        """Wrap a 32-bit vid as a handle of the declared width."""
        if self.handle_bits == 32:
            return vid
        return (MANA_MAGIC << 32) | vid

    @staticmethod
    def extract(vhandle: int) -> int:
        """Recover the 32-bit vid from an application-held handle.

        Accepts both widths regardless of the current implementation, so
        upper-half memory checkpointed under a 32-bit-handle MPI can be
        restarted under a 64-bit-handle MPI and vice versa.
        """
        if vhandle < 0:
            raise InvalidHandleError(f"negative handle {vhandle}")
        if vhandle < (1 << 32):
            return vhandle
        if (vhandle >> 32) != MANA_MAGIC:
            raise InvalidHandleError(
                f"{vhandle:#x} is not a MANA virtual handle "
                f"(missing MANA tag in high word)"
            )
        return vhandle & 0xFFFFFFFF

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def attach(
        self,
        kind: str,
        record,
        phys: Optional[int],
        constant_name: Optional[str] = None,
    ) -> int:
        """Create an entry; returns the *embedded* virtual handle."""
        index = self._pick_index(kind, record, constant_name)
        vid = VID_LAYOUT.pack(kind=KIND_TAGS[kind], index=index)
        if vid in self._entries:
            raise InvalidHandleError(
                f"virtual id {vid:#010x} collision ({kind})"
            )
        entry = VidEntry(
            vid=vid,
            kind=kind,
            record=record,
            phys=phys,
            creation_seq=next(self._seq),
            constant_name=constant_name,
        )
        self._entries[vid] = entry
        if phys is not None:
            self._reverse[(kind, phys)] = vid
        if constant_name is not None:
            self._constants[constant_name] = vid
        return self.embed(vid)

    def _pick_index(
        self, kind: str, record, constant_name: Optional[str]
    ) -> int:
        if constant_name is not None:
            # Constants get name-derived indices: stable across sessions
            # and implementations (needed for cross-impl cold restart).
            base = _stable_hash(f"const/{constant_name}") & INDEX_MASK
            return self._probe(kind, base)
        if kind == HandleKind.COMM and isinstance(record, CommRecord):
            g = self._comm_ggid(record)
            if g is not None:
                base = (g ^ (record.dup_seq * 0x9E37)) & INDEX_MASK
                return self._probe(kind, base)
        if kind == HandleKind.GROUP and isinstance(record, GroupRecord):
            base = ggid_of(record.world_ranks) & INDEX_MASK
            self._charge_ggid(len(record.world_ranks))
            return self._probe(kind, base)
        # requests, datatypes, ops: sequential indices with reuse via probe
        idx = self._next_index[kind]
        self._next_index[kind] = (idx + 1) & INDEX_MASK or 1
        return self._probe(kind, idx)

    def _comm_ggid(self, record: CommRecord) -> Optional[int]:
        """Apply the ggid policy at creation time."""
        if self.ggid_policy == GgidPolicy.EAGER:
            if record.ggid is None:
                record.ggid = ggid_of(record.world_ranks)
                self._charge_ggid(len(record.world_ranks))
            return record.ggid
        if self.ggid_policy == GgidPolicy.HYBRID:
            cached = self._ggid_cache.get(record.world_ranks)
            if cached is not None:
                record.ggid = cached
                return cached
            return None  # first sight: defer to checkpoint time
        return None  # lazy

    def _charge_ggid(self, nranks: int) -> None:
        if self.clock is not None:
            self.clock.advance(GGID_HASH_COST_PER_RANK * nranks, "mana-ggid")

    def _probe(self, kind: str, base: int) -> int:
        """Linear probing for a free index (0 is reserved as null)."""
        tag = KIND_TAGS[kind]
        index = base or 1
        for _ in range(1 << 16):
            vid = VID_LAYOUT.pack(kind=tag, index=index)
            if vid not in self._entries:
                return index
            index = (index + 1) & INDEX_MASK or 1
        raise InvalidHandleError(f"virtual id space exhausted for {kind}")

    def finalize_ggids(self) -> int:
        """Checkpoint-time pass for lazy/hybrid policies: compute any
        deferred ggids.  Returns how many were computed now."""
        computed = 0
        for entry in self._entries.values():
            if entry.kind != HandleKind.COMM:
                continue
            rec = entry.record
            if isinstance(rec, CommRecord) and rec.ggid is None:
                rec.ggid = ggid_of(rec.world_ranks)
                self._charge_ggid(len(rec.world_ranks))
                computed += 1
                if self.ggid_policy == GgidPolicy.HYBRID:
                    self._ggid_cache[rec.world_ranks] = rec.ggid
        return computed

    # ------------------------------------------------------------------
    # translation
    # ------------------------------------------------------------------
    def lookup(self, vhandle: int, kind: Optional[str] = None) -> VidEntry:
        """Virtual handle -> entry.  One lookup returns record, physical
        id, and MANA metadata together (§4.1 problem 3, solved)."""
        entry = self._fast.get(vhandle)
        if entry is not None and (kind is None or entry.kind == kind):
            self.lookup_count += 1
            self.cache_hits += 1
            return entry
        return self._lookup_slow(vhandle, kind)

    def _lookup_slow(self, vhandle: int, kind: Optional[str]) -> VidEntry:
        """The full translation path (and the fast lane's fill side)."""
        self.lookup_count += 1
        vid = self.extract(vhandle)
        entry = self._entries.get(vid)
        if entry is None:
            raise InvalidHandleError(
                f"unknown virtual id {vid:#010x} "
                f"(freed, or a physical id leaked into the upper half?)"
            )
        if kind is not None and entry.kind != kind:
            raise InvalidHandleError(
                f"virtual id {vid:#010x} is a {entry.kind}, not a {kind}"
            )
        self._fast[vhandle] = entry
        return entry

    def phys(self, vhandle: int, kind: Optional[str] = None) -> int:
        p = self._physcache[kind].get(vhandle)
        if p is not None:
            self.lookup_count += 1
            self.cache_hits += 1
            return p
        entry = self._lookup_slow(vhandle, kind)
        if entry.phys is None:
            raise InvalidHandleError(
                f"virtual id {entry.vid:#010x} ({entry.kind}) has no "
                f"physical binding — replay incomplete after restart?"
            )
        self._physcache[kind][vhandle] = entry.phys
        return entry.phys

    def set_phys(self, vhandle: int, phys: Optional[int]) -> None:
        entry = self._lookup_slow(vhandle, None)
        old = entry.phys
        if old is not None:
            self._reverse.pop((entry.kind, old), None)
        entry.phys = phys
        self._invalidate(entry.vid)
        if phys is not None:
            self._reverse[(entry.kind, phys)] = entry.vid

    def vid_of_phys(self, kind: str, phys: int) -> Optional[int]:
        """Reverse translation, O(1) in the new design (§4.1 problem 5:
        the old design's was O(n)).  Returns an embedded handle."""
        self.lookup_count += 1
        vid = self._reverse.get((kind, phys))
        return None if vid is None else self.embed(vid)

    def constant_vid(self, name: str) -> Optional[int]:
        vid = self._constants.get(name)
        return None if vid is None else self.embed(vid)

    def remove(self, vhandle: int) -> None:
        vid = self.extract(vhandle)
        entry = self._entries.pop(vid, None)
        if entry is None:
            raise InvalidHandleError(f"double free of virtual id {vid:#010x}")
        self._invalidate(vid)
        if entry.phys is not None:
            self._reverse.pop((entry.kind, entry.phys), None)
        if entry.constant_name is not None:
            self._constants.pop(entry.constant_name, None)

    # ------------------------------------------------------------------
    # iteration / checkpoint support
    # ------------------------------------------------------------------
    def entries(self, kind: Optional[str] = None) -> Iterator[VidEntry]:
        """Entries in creation order (replay depends on this order).

        ``_entries`` is kept in creation order by construction — attach
        appends, remove pops, and ``__setstate__`` re-sorts once — so no
        per-call sort is needed.
        """
        for entry in list(self._entries.values()):
            if kind is None or entry.kind == kind:
                yield entry

    def __len__(self) -> int:
        return len(self._entries)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_reverse"] = {}  # physical ids die with the lower half
        state["_seq"] = None
        state["_seq_value"] = max(
            (e.creation_seq for e in self._entries.values()), default=0
        )
        state["clock"] = None
        # The fast lane never survives pickling: a restored table faces a
        # brand-new lower half with all-new physical ids.
        state.pop("_fast", None)
        state.pop("_physcache", None)
        # Volatile instrumentation never enters the image: poll-loop
        # iteration counts are wall-clock-scheduling-dependent, and any
        # such byte in the payload would make format-5 chunk digests —
        # and hence checkpoint durations — nondeterministic.
        state["lookup_count"] = 0
        state["cache_hits"] = 0
        state["cache_epoch"] = 0
        return state

    def __setstate__(self, state):
        seq_value = state.pop("_seq_value", 0)
        self.__dict__.update(state)
        self._seq = itertools.count(seq_value + 1)
        self._init_fast_lane()
        # The one place insertion order can disagree with creation order:
        # images written by older code.  Sort once, here, not per entries().
        self._entries = dict(sorted(
            self._entries.items(), key=lambda kv: kv[1].creation_seq
        ))

    def rebuild_reverse(self) -> None:
        """Recompute the reverse map after replay rebinds physical ids;
        also the restart-replay cache fence."""
        self.invalidate_cache()
        self._reverse = {
            (e.kind, e.phys): e.vid
            for e in self._entries.values()
            if e.phys is not None
        }


# ----------------------------------------------------------------------
# elastic restart: world-size remap (PROTOCOLS.md §12, step 2)
# ----------------------------------------------------------------------
def remap_world(
    table: VirtualIdTable,
    *,
    old_nranks: int,
    new_nranks: int,
    old_rank: int,
    new_rank: int,
    rank_map: Dict[int, int],
    merge_tables=(),
) -> None:
    """Rewrite ``table`` (checkpointed at ``old_rank`` of an
    ``old_nranks``-world) for ``new_rank`` of a ``new_nranks``-world.

    Virtual ids are KEPT — the repartitioned application state still
    holds its old handles, and datatype/op vids are identical across
    ranks by collective creation order, so only the *records* behind the
    ids change.  Only two communicator memberships are remappable: the
    full world (→ the new full world) and this rank's self communicator
    (→ the new rank's self).  Anything else — sub-communicators,
    cartesian topologies, pending or persistent requests — pins the old
    world size and raises :class:`ElasticRestartError`.

    Drain ledgers (``sent_to``/``received_from``) name world ranks.  The
    seed ``table``'s ledgers are always discarded; ``new_rank``'s
    ledgers are rebuilt as the sum, rewritten through ``rank_map`` (old
    rank → its unique inheritor), of the ledgers of ``merge_tables`` —
    the *original, unmodified* tables of exactly the old ranks whose
    identity folds into ``new_rank`` (``plan.merged_into(new_rank)``;
    empty for a grow clone, which inherits no old identity).  Matching
    is by vid: full-world comm vids are constant-name-hashed, hence
    identical across ranks.  The seed table may itself appear in
    ``merge_tables`` — pass a deep copy as ``table`` so the original
    stays pristine for folding.  Self-comm ledgers are dropped on both
    sides (self traffic is rank-internal and balanced), so pairwise
    ``sent_to == received_from`` — the quiesced-checkpoint invariant —
    is preserved globally.
    """
    old_world = tuple(range(old_nranks))
    new_world = tuple(range(new_nranks))

    def remap_membership(ranks: Tuple[int, ...], what: str) -> Tuple[int, ...]:
        if ranks == old_world:
            return new_world
        if ranks == (old_rank,):
            return (new_rank,)
        raise ElasticRestartError(
            f"rank {old_rank}: {what} with membership {ranks} pins the "
            f"old world size ({old_nranks} ranks); elastic restore can "
            f"only remap MPI_COMM_WORLD-sized and self memberships"
        )

    def remap_ledger(ledger: Dict[int, int]) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for old_peer, n in ledger.items():
            peer = rank_map[old_peer]
            out[peer] = out.get(peer, 0) + n
        return out

    def fold_ledgers(rec: CommRecord, vid: int) -> None:
        for other in merge_tables:
            entry = other._entries.get(vid)
            if entry is None or not isinstance(entry.record, CommRecord):
                continue
            if len(entry.record.world_ranks) == 1:
                continue  # merged rank's self comm: dropped entirely
            for peer, n in remap_ledger(entry.record.sent_to).items():
                rec.sent_to[peer] = rec.sent_to.get(peer, 0) + n
            for peer, n in remap_ledger(entry.record.received_from).items():
                rec.received_from[peer] = rec.received_from.get(peer, 0) + n

    for entry in list(table.entries()):
        rec = entry.record
        if isinstance(rec, CommRecord):
            if rec.cart is not None:
                raise ElasticRestartError(
                    f"rank {old_rank}: communicator {rec.name or entry.vid:#x}"
                    f" carries a cartesian topology embedding the "
                    f"{old_nranks}-rank process grid; elastic restore "
                    f"cannot remap it"
                )
            rec.world_ranks = remap_membership(
                rec.world_ranks, f"communicator {rec.name or hex(entry.vid)}"
            )
            if rec.ggid is not None:
                rec.ggid = ggid_of(rec.world_ranks)
            rec.sent_to = {}
            rec.received_from = {}
            fold_ledgers(rec, entry.vid)
        elif isinstance(rec, GroupRecord):
            rec.world_ranks = remap_membership(
                rec.world_ranks, f"group {hex(entry.vid)}"
            )
        elif isinstance(rec, RequestRecord):
            if rec.persistent or not rec.completed:
                raise ElasticRestartError(
                    f"rank {old_rank}: "
                    f"{'persistent' if rec.persistent else 'pending'} "
                    f"request {entry.vid:#x} has endpoints in the old "
                    f"world; elastic restore requires a quiesced "
                    f"checkpoint with no outstanding requests"
                )

    incs: Dict[Tuple[int, ...], int] = {}
    for key, n in table.membership_incarnations.items():
        if key == old_world:
            new_key = new_world
        elif key == (old_rank,):
            new_key = (new_rank,)
        else:
            continue  # freed sub-communicator history: irrelevant now
        incs[new_key] = max(incs.get(new_key, 0), n)
    table.membership_incarnations = incs
    table._ggid_cache = {}
    table.invalidate_cache()
