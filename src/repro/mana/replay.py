"""Restart-time reconstruction of MPI objects (paper §4.2 and §5).

After a new lower half initializes, every virtual-id entry must be
rebound to a *semantically equivalent* physical object, created through
**standard MPI calls only** — MANA cannot reach into any implementation's
internals.  The calls used here are exactly the paper's §5 subset plus
the object constructors being replayed:

* constants: re-resolved by name (``lib.constant``) — this is where the
  §4.3 constants-as-functions machinery pays off: the new lower half may
  return completely different values (Open MPI pointers, lazy ExaMPI
  pointers) and nothing upstream notices.  Only the names this rank
  bound are asked for, so a lazy ExaMPI lower half creates no constant
  the application never touched;
* groups: ``MPI_Comm_group`` (of world) + ``MPI_Group_incl``;
* communicators: one ``MPI_Comm_split`` of MPI_COMM_WORLD per *global*
  communicator, in an order all ranks agree on — the (ggid, dup_seq)
  keys are exchanged with MANA's own Send/Recv/Iprobe traffic and
  sorted, which is why the ggid exists (§4.2);
* datatypes: rebuilt from the descriptor tree that was decoded at commit
  time with ``MPI_Type_get_envelope``/``MPI_Type_get_contents``; a named
  leaf is recognised by the caller's lookup (MANA's: the constant the
  rank bound to that handle), never by asking the library for every
  predefined name;
* ops: ``MPI_Op_create`` with the registered user function (predefined
  ops are constants);
* pending receives: re-posted with ``MPI_Irecv``.
"""

from __future__ import annotations

import pickle
from types import MappingProxyType
from typing import Callable, Dict, List

import numpy as np

from repro.mana.records import (
    CommRecord,
    DatatypeRecord,
    GroupRecord,
    OpRecord,
    RequestRecord,
)
from repro.mpi import constants as C
from repro.mpi import datatypes as dt
from repro.mpi.api import BaseMpiLib, HandleKind
from repro.util.errors import RestartError
from repro.util.registry import USER_OPS

# Tag space reserved for MANA-internal restart traffic.
_REPLAY_TAG = C.ROOT_TAG_BASE + 0x52


# ----------------------------------------------------------------------
# datatype decode / rebuild
# ----------------------------------------------------------------------

def decode_datatype(
    lib: BaseMpiLib, phys: int, named: Callable[[int], dt.TypeDescriptor]
) -> dt.TypeDescriptor:
    """Decode a lower-half datatype into an implementation-neutral tree
    using only get_envelope/get_contents (paper §5 category 2).

    A named handle (the tree's leaves) is handed to ``named``, which
    returns its descriptor.  MANA's lookup maps the handle to the
    constant this rank bound to it (``ManaRank._named_datatype``):
    asking the library for every predefined name instead would create,
    on ExaMPI, each lazy constant the application never touched, and
    would name an aliased handle by whichever alias came first.
    """
    env = lib.type_get_envelope(phys)
    if env.combiner == C.COMBINER_NAMED:
        return named(phys)
    integers, addresses, inner = lib.type_get_contents(phys)
    bases = []
    for inner_phys in inner:
        base = decode_datatype(lib, inner_phys, named)
        bases.append(base)
        # get_contents hands back fresh handles for derived inner types;
        # the caller must free them (the standard's contract).
        if not base.is_named():
            lib.type_free(inner_phys)
    return dt.descriptor_from_contents(env.combiner, integers, addresses, bases)


#: combiner -> the standard constructor that rebuilds it from its
#: contents (integers, addresses, child handles).
_CONSTRUCTORS = MappingProxyType({
    C.COMBINER_CONTIGUOUS: lambda lib, ints, addrs, types:
        lib.type_contiguous(ints[0], types[0]),
    C.COMBINER_VECTOR: lambda lib, ints, addrs, types:
        lib.type_vector(*ints, types[0]),
    C.COMBINER_INDEXED: lambda lib, ints, addrs, types: lib.type_indexed(
        list(ints[1:1 + ints[0]]), list(ints[1 + ints[0]:]), types[0]),
    C.COMBINER_STRUCT: lambda lib, ints, addrs, types:
        lib.type_create_struct(list(ints[1:]), list(addrs), types),
})


def create_datatype(lib: BaseMpiLib, desc: dt.TypeDescriptor) -> int:
    """Rebuild a descriptor tree in the lower half via standard calls.

    Returns an *uncommitted* handle (commit is the caller's decision).
    Each derived child is built first and freed once the constructor has
    returned.
    """
    if desc.is_named():
        return lib.constant(desc.name)
    constructor = _CONSTRUCTORS.get(desc.envelope().combiner)
    if constructor is None:
        raise RestartError(f"cannot rebuild datatype {desc!r}")
    contents = desc.contents()
    children = [create_datatype(lib, b) for b in contents.datatypes]
    out = constructor(lib, contents.integers, contents.addresses, children)
    for h, b in zip(children, contents.datatypes):
        if not b.is_named():
            lib.type_free(h)
    return out


# ----------------------------------------------------------------------
# MANA-internal allgather over Send/Recv/Iprobe (§5 category 3)
# ----------------------------------------------------------------------

def allgather_blob(lib: BaseMpiLib, obj) -> List:
    """Gather one picklable object from every rank, returned world-rank
    ordered.  Star topology through rank 0 using only Send/Recv/Probe —
    the small communication subset §5 grants MANA."""
    world = lib.constant("MPI_COMM_WORLD")
    byte_t = lib.constant("MPI_BYTE")
    me = lib.world_rank
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if lib.nranks == 1:
        return [obj]
    if me != 0:
        buf = np.frombuffer(blob, dtype=np.uint8).copy()
        lib.send(buf, buf.size, byte_t, 0, _REPLAY_TAG, world)
        st = lib.probe(C.ANY_SOURCE, _REPLAY_TAG + 1, world)
        rbuf = np.empty(st.count_bytes, dtype=np.uint8)
        lib.recv(rbuf, st.count_bytes, byte_t, 0, _REPLAY_TAG + 1, world)
        return pickle.loads(rbuf.tobytes())
    gathered: List = [None] * lib.nranks
    gathered[0] = obj
    # Rank order, not arrival order: each probe + recv merges the
    # sender's virtual time into rank 0's clock and then charges two
    # library calls, so the order of the merges shows in the clock —
    # in arrival order it followed wall-clock timing.
    for src in range(1, lib.nranks):
        st = lib.probe(src, _REPLAY_TAG, world)
        rbuf = np.empty(st.count_bytes, dtype=np.uint8)
        lib.recv(rbuf, st.count_bytes, byte_t, src, _REPLAY_TAG, world)
        gathered[src] = pickle.loads(rbuf.tobytes())
    out = pickle.dumps(gathered, protocol=pickle.HIGHEST_PROTOCOL)
    obuf = np.frombuffer(out, dtype=np.uint8).copy()
    for dst in range(1, lib.nranks):
        lib.send(obuf, obuf.size, byte_t, dst, _REPLAY_TAG + 1, world)
    return gathered


# ----------------------------------------------------------------------
# full replay
# ----------------------------------------------------------------------

def replay_all(mana) -> Dict[str, int]:
    """Rebind every virtual id against ``mana.lower`` (a fresh library).

    Every rank of the job must call this in lockstep (communicator
    reconstruction is collective).  Returns per-kind rebind counts.
    """
    lib = mana.lower
    vids = mana.vids
    counts = {k: 0 for k in HandleKind.ALL}

    # Phase 0: constants (includes MPI_COMM_WORLD/SELF, predefined
    # datatypes and ops the app has touched).
    for entry in vids.entries():
        if entry.constant_name is not None:
            vids.set_phys(vids.embed(entry.vid), lib.constant(entry.constant_name))
            counts[entry.kind] += 1

    world_phys = lib.constant("MPI_COMM_WORLD")

    # Phase 1: groups (local reconstruction).
    world_group = lib.comm_group(world_phys)
    for entry in vids.entries(HandleKind.GROUP):
        if entry.constant_name is not None:
            continue
        rec = entry.record
        if not isinstance(rec, GroupRecord):
            raise RestartError(f"group vid {entry.vid:#x} has no GroupRecord")
        vids.set_phys(
            vids.embed(entry.vid),
            lib.group_incl(world_group, list(rec.world_ranks)),
        )
        counts[HandleKind.GROUP] += 1

    # Phase 2: communicators (collective; globally agreed order).
    my_keys = []
    for entry in vids.entries(HandleKind.COMM):
        if entry.constant_name is not None:
            continue
        rec = entry.record
        if not isinstance(rec, CommRecord):
            raise RestartError(f"comm vid {entry.vid:#x} has no CommRecord")
        my_keys.append(rec.key())
    all_keys = allgather_blob(lib, my_keys)
    global_keys = sorted({k for keys in all_keys for k in keys})
    by_key = {}
    for entry in vids.entries(HandleKind.COMM):
        if entry.constant_name is None:
            by_key[entry.record.key()] = entry
    for key in global_keys:
        entry = by_key.get(key)
        if entry is None:
            color = C.UNDEFINED
            split_key = 0
        else:
            color = 1
            split_key = entry.record.world_ranks.index(lib.world_rank)
        new_phys = lib.comm_split(world_phys, color, split_key)
        if entry is not None:
            vids.set_phys(vids.embed(entry.vid), new_phys)
            counts[HandleKind.COMM] += 1

    # Phase 3: datatypes (local).
    for entry in vids.entries(HandleKind.DATATYPE):
        if entry.constant_name is not None:
            continue
        rec = entry.record
        if not isinstance(rec, DatatypeRecord) or rec.descriptor is None:
            raise RestartError(
                f"datatype vid {entry.vid:#x} was never decoded; cannot "
                f"reconstruct"
            )
        phys = create_datatype(lib, rec.descriptor)
        if rec.committed:
            lib.type_commit(phys)
        vids.set_phys(vids.embed(entry.vid), phys)
        counts[HandleKind.DATATYPE] += 1

    # Phase 4: reduction ops (local).
    for entry in vids.entries(HandleKind.OP):
        if entry.constant_name is not None:
            continue
        rec = entry.record
        if not isinstance(rec, OpRecord):
            raise RestartError(f"op vid {entry.vid:#x} has no OpRecord")
        fn = USER_OPS.lookup(rec.registry_name)
        phys = lib.op_create(fn, rec.commute)
        vids.set_phys(vids.embed(entry.vid), phys)
        counts[HandleKind.OP] += 1

    # Phase 5: requests.  Persistent requests are re-created with
    # *_init (and re-started if a cycle was outstanding); ordinary
    # pending receives are re-posted with Irecv.  None of them can match
    # a message in the drain buffer (PROTOCOLS.md §4), so none is served
    # from it here.
    for entry in vids.entries(HandleKind.REQUEST):
        rec = entry.record
        if not isinstance(rec, RequestRecord):
            continue
        if not rec.persistent and (rec.completed or rec.kind != "recv"):
            continue
        comm_entry = vids.lookup(vids.embed(rec.comm_vid), HandleKind.COMM)
        dt_entry = vids.lookup(
            vids.embed(rec.datatype_vid), HandleKind.DATATYPE
        )
        if not rec.persistent:
            post = lib.irecv
        elif rec.kind == "send":
            post = lib.send_init
        else:
            post = lib.recv_init
        phys = post(
            rec.buf, rec.count, dt_entry.phys, rec.peer, rec.tag,
            comm_entry.phys,
        )
        vids.set_phys(vids.embed(entry.vid), phys)
        if rec.active and not rec.completed and rec.kind == "recv":
            lib.start(phys)  # a persistent receive's outstanding cycle
        counts[HandleKind.REQUEST] += 1

    vids.rebuild_reverse()
    return counts
