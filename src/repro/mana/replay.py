"""Restart-time reconstruction of MPI objects (paper §4.2 and §5).

After a new lower half initializes, every virtual-id entry must be
rebound to a *semantically equivalent* physical object, created through
**standard MPI calls only** — MANA cannot reach into any implementation's
internals.  The calls used here are exactly the paper's §5 subset plus
the object constructors being replayed:

* constants: re-resolved by name (``lib.constant``) — this is where the
  §4.3 constants-as-functions machinery pays off: the new lower half may
  return completely different values (Open MPI pointers, lazy ExaMPI
  pointers) and nothing upstream notices;
* groups: ``MPI_Comm_group`` (of world) + ``MPI_Group_incl``;
* communicators: one ``MPI_Comm_split`` of MPI_COMM_WORLD per *global*
  communicator, in an order all ranks agree on — the (ggid, dup_seq)
  keys are exchanged with MANA's own Send/Recv/Iprobe traffic and
  sorted, which is why the ggid exists (§4.2);
* datatypes: rebuilt from the descriptor tree that was decoded at commit
  time with ``MPI_Type_get_envelope``/``MPI_Type_get_contents``;
* ops: ``MPI_Op_create`` with the registered user function (or the
  predefined constant);
* pending receives: re-posted with ``MPI_Irecv``.
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mana.records import (
    CommRecord,
    ConstantRecord,
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

def decode_datatype(lib: BaseMpiLib, phys: int) -> dt.TypeDescriptor:
    """Decode a lower-half datatype into an implementation-neutral tree
    using only get_envelope/get_contents (paper §5 category 2).

    Named types are recognized by comparing the handle against the
    implementation's predefined constants — the only portable way, and
    robust to ExaMPI's aliasing (the first matching name wins, and
    aliases share both handle and layout).
    """
    env = lib.type_get_envelope(phys)
    if env.combiner == C.COMBINER_NAMED:
        for name in C.PREDEFINED_DATATYPES:
            try:
                if lib.constant(name) == phys:
                    return dt.NamedType(name, C.PREDEFINED_DATATYPES[name])
            except Exception:
                continue
        raise RestartError(
            f"named datatype {phys:#x} matches no predefined constant"
        )
    integers, addresses, inner = lib.type_get_contents(phys)
    bases = []
    for inner_phys in inner:
        base = decode_datatype(lib, inner_phys)
        bases.append(base)
        # get_contents hands back fresh handles for derived inner types;
        # the caller must free them (the standard's contract).
        if not base.is_named():
            lib.type_free(inner_phys)
    return dt.descriptor_from_contents(env.combiner, integers, addresses, bases)


def create_datatype(lib: BaseMpiLib, desc: dt.TypeDescriptor) -> int:
    """Rebuild a descriptor tree in the lower half via standard calls.

    Returns an *uncommitted* handle (commit is the caller's decision).
    Intermediate child handles are freed.
    """
    if isinstance(desc, dt.NamedType):
        return lib.constant(desc.name)

    def build(child: dt.TypeDescriptor) -> Tuple[int, bool]:
        h = create_datatype(lib, child)
        return h, not child.is_named()

    if isinstance(desc, dt.ContiguousType):
        base, tmp = build(desc.base)
        out = lib.type_contiguous(desc.count, base)
        if tmp:
            lib.type_free(base)
        return out
    if isinstance(desc, dt.VectorType):
        base, tmp = build(desc.base)
        out = lib.type_vector(desc.count, desc.blocklength, desc.stride, base)
        if tmp:
            lib.type_free(base)
        return out
    if isinstance(desc, dt.IndexedType):
        base, tmp = build(desc.base)
        out = lib.type_indexed(
            list(desc.blocklengths), list(desc.displacements), base
        )
        if tmp:
            lib.type_free(base)
        return out
    if isinstance(desc, dt.StructType):
        handles, tmps = [], []
        for b in desc.bases:
            h, tmp = build(b)
            handles.append(h)
            tmps.append(tmp)
        out = lib.type_create_struct(
            list(desc.blocklengths), list(desc.byte_displacements), handles
        )
        for h, tmp in zip(handles, tmps):
            if tmp:
                lib.type_free(h)
        return out
    raise RestartError(f"cannot rebuild datatype {desc!r}")


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
        if entry.constant_name is None and isinstance(entry.record, CommRecord):
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
        if rec.predefined_name is not None:
            phys = lib.constant(rec.predefined_name)
        else:
            fn = USER_OPS.lookup(rec.registry_name)
            phys = lib.op_create(fn, rec.commute)
        vids.set_phys(vids.embed(entry.vid), phys)
        counts[HandleKind.OP] += 1

    # Phase 5: requests.  Persistent requests are re-created with
    # *_init (and re-started if a cycle was outstanding); ordinary
    # pending receives are re-posted with Irecv.
    for entry in vids.entries(HandleKind.REQUEST):
        rec = entry.record
        if not isinstance(rec, RequestRecord):
            continue
        if rec.persistent:
            comm_entry = vids.lookup(vids.embed(rec.comm_vid), HandleKind.COMM)
            dt_entry = vids.lookup(
                vids.embed(rec.datatype_vid), HandleKind.DATATYPE
            )
            init = lib.send_init if rec.kind == "send" else lib.recv_init
            phys = init(
                rec.buf, rec.count, dt_entry.phys, rec.peer, rec.tag,
                comm_entry.phys,
            )
            vids.set_phys(vids.embed(entry.vid), phys)
            if rec.active and not rec.completed and rec.kind == "recv":
                src_world = (
                    C.ANY_SOURCE
                    if rec.peer == C.ANY_SOURCE
                    else comm_entry.record.world_ranks[rec.peer]
                )
                drained = mana.drain_buffer.match(
                    comm_entry.vid, src_world, rec.tag
                )
                if drained is not None:
                    desc = mana.descriptor_of(dt_entry)
                    desc.unpack(drained.payload, rec.buf, rec.count)
                    rec.completed = True
                    from repro.mpi.objects import Status

                    rec.status = Status(
                        source=drained.src_comm_rank,
                        tag=drained.tag,
                        count_bytes=drained.nbytes,
                    )
                else:
                    lib.start(phys)
            counts[HandleKind.REQUEST] += 1
            continue
        if rec.completed:
            continue
        if rec.kind != "recv":
            continue
        comm_entry = vids.lookup(vids.embed(rec.comm_vid), HandleKind.COMM)
        dt_entry = vids.lookup(vids.embed(rec.datatype_vid), HandleKind.DATATYPE)
        # The drain buffer wins over a fresh post: a message drained at
        # checkpoint time may be the one this request was waiting for.
        src_world = (
            C.ANY_SOURCE
            if rec.peer == C.ANY_SOURCE
            else comm_entry.record.world_ranks[rec.peer]
        )
        drained = mana.drain_buffer.match(
            comm_entry.vid, src_world, rec.tag
        )
        if drained is not None:
            desc = mana.descriptor_of(dt_entry)
            desc.unpack(drained.payload, rec.buf, rec.count)
            rec.completed = True
            from repro.mpi.objects import Status

            rec.status = Status(
                source=drained.src_comm_rank,
                tag=drained.tag,
                count_bytes=drained.nbytes,
            )
            vids.set_phys(vids.embed(entry.vid), None)
        else:
            vids.set_phys(
                vids.embed(entry.vid),
                lib.irecv(
                    rec.buf, rec.count, dt_entry.phys, rec.peer, rec.tag,
                    comm_entry.phys,
                ),
            )
        counts[HandleKind.REQUEST] += 1

    vids.rebuild_reverse()
    return counts
