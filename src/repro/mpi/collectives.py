"""Collective algorithms implemented over the point-to-point fabric.

Every collective runs in the communicator's *collective context*
(``context_id + 1``), tagged with the communicator's collective sequence
number, so user point-to-point traffic on the same communicator can never
match collective traffic — the same separation real implementations get
from their hidden collective context id.

Algorithms: binomial trees for bcast, dissemination for barrier, pairwise
exchange for alltoall, linear for the rooted collectives.  With <= 64
ranks, algorithmic sophistication is not what the paper's figures measure
(overhead comes from per-call costs), so the simple, deterministic
versions are preferred.

A key invariant for MANA: when every rank has *returned* from a
collective, no message of that collective is still in flight (each
message is consumed before its receiver can return).  MANA's quiesce
therefore only has to drain user point-to-point traffic.
"""

from __future__ import annotations

import pickle
from typing import List, Sequence

import numpy as np

from repro.mpi import constants as C
from repro.mpi.datatypes import NamedType, ContiguousType, TypeDescriptor, _as_bytes
from repro.mpi.objects import CommObject, DatatypeObject, OpObject
from repro.util.errors import MpiError


def _coll_ctx(comm: CommObject) -> int:
    # Context ids are allocated even; odd ids are the collective contexts.
    return comm.context_id + 1


def _send_raw(lib, comm: CommObject, dst: int, tag: int, payload: bytes) -> None:
    lib.fabric.post_send(
        src=lib.world_rank,
        dst=comm.world_rank_of(dst),
        tag=tag,
        context_id=_coll_ctx(comm),
        payload=payload,
        send_time=lib.clock.now,
    )


def _recv_raw(lib, comm: CommObject, src: int, tag: int) -> bytes:
    msg = lib.fabric.wait_match(
        lib.world_rank,
        comm.world_rank_of(src),
        tag,
        _coll_ctx(comm),
        deadline=lib._deadline(),
    )
    lib.clock.merge(msg.arrive_time)
    return msg.payload


def _next_tag(lib, comm: CommObject) -> int:
    comm.coll_seq += 1
    return comm.coll_seq & 0x7FFFFFFF


# ----------------------------------------------------------------------
# synchronization
# ----------------------------------------------------------------------

def barrier(lib, comm: CommObject) -> None:
    """Dissemination barrier: ceil(log2 p) rounds."""
    tag = _next_tag(lib, comm)
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    k = 0
    while (1 << k) < size:
        dst = (rank + (1 << k)) % size
        src = (rank - (1 << k)) % size
        _send_raw(lib, comm, dst, tag + (k << 16), b"")
        _recv_raw(lib, comm, src, tag + (k << 16))
        k += 1


# ----------------------------------------------------------------------
# data movement
# ----------------------------------------------------------------------

def bcast(
    lib, comm: CommObject, buf: np.ndarray, count: int,
    datatype: DatatypeObject, root: int,
) -> None:
    """Binomial-tree broadcast rooted at ``root``."""
    datatype.check_committed()
    tag = _next_tag(lib, comm)
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    rel = (rank - root) % size
    desc = datatype.descriptor

    # Receive from parent (unless root).
    if rel != 0:
        parent_rel = rel & (rel - 1)  # clear lowest set bit
        parent = (parent_rel + root) % size
        payload = _recv_raw(lib, comm, parent, tag)
        desc.unpack(payload, buf, count)
    payload = desc.pack(buf, count)
    # Send to children: rel + 2^k for each k above rel's lowest set bit.
    mask = 1
    while mask < size:
        if rel & (mask - 1) == 0 and rel + mask < size and not rel & mask:
            child = (rel + mask + root) % size
            _send_raw(lib, comm, child, tag, payload)
        mask <<= 1


def gather(
    lib, comm: CommObject, sendbuf, sendcount: int, sendtype: DatatypeObject,
    recvbuf, recvcount: int, recvtype: DatatypeObject, root: int,
) -> None:
    sendtype.check_committed()
    tag = _next_tag(lib, comm)
    if comm.rank != root:
        _send_raw(lib, comm, root, tag, sendtype.descriptor.pack(sendbuf, sendcount))
        return
    recvtype.check_committed()
    raw = _as_bytes(recvbuf)
    slot = recvcount * recvtype.descriptor.extent()
    for i in range(comm.size):
        if i == root:
            payload = sendtype.descriptor.pack(sendbuf, sendcount)
        else:
            payload = _recv_raw(lib, comm, i, tag)
        view = raw[i * slot : (i + 1) * slot]
        recvtype.descriptor.unpack(payload, view, recvcount)


def gatherv(
    lib, comm: CommObject, sendbuf, sendcount: int, sendtype: DatatypeObject,
    recvbuf, recvcounts: Sequence[int], displs: Sequence[int],
    recvtype: DatatypeObject, root: int,
) -> None:
    sendtype.check_committed()
    tag = _next_tag(lib, comm)
    if comm.rank != root:
        _send_raw(lib, comm, root, tag, sendtype.descriptor.pack(sendbuf, sendcount))
        return
    recvtype.check_committed()
    raw = _as_bytes(recvbuf)
    ext = recvtype.descriptor.extent()
    for i in range(comm.size):
        if i == root:
            payload = sendtype.descriptor.pack(sendbuf, sendcount)
        else:
            payload = _recv_raw(lib, comm, i, tag)
        off = displs[i] * ext
        view = raw[off : off + recvcounts[i] * ext]
        recvtype.descriptor.unpack(payload, view, recvcounts[i])


def scatter(
    lib, comm: CommObject, sendbuf, sendcount: int, sendtype: DatatypeObject,
    recvbuf, recvcount: int, recvtype: DatatypeObject, root: int,
) -> None:
    recvtype.check_committed()
    tag = _next_tag(lib, comm)
    if comm.rank == root:
        sendtype.check_committed()
        raw = _as_bytes(sendbuf)
        slot = sendcount * sendtype.descriptor.extent()
        for i in range(comm.size):
            view = raw[i * slot : (i + 1) * slot]
            payload = sendtype.descriptor.pack(view, sendcount)
            if i == root:
                recvtype.descriptor.unpack(payload, recvbuf, recvcount)
            else:
                _send_raw(lib, comm, i, tag, payload)
    else:
        payload = _recv_raw(lib, comm, root, tag)
        recvtype.descriptor.unpack(payload, recvbuf, recvcount)


def scatterv(
    lib, comm: CommObject, sendbuf, sendcounts: Sequence[int],
    displs: Sequence[int], sendtype: DatatypeObject,
    recvbuf, recvcount: int, recvtype: DatatypeObject, root: int,
) -> None:
    recvtype.check_committed()
    tag = _next_tag(lib, comm)
    if comm.rank == root:
        sendtype.check_committed()
        raw = _as_bytes(sendbuf)
        ext = sendtype.descriptor.extent()
        for i in range(comm.size):
            off = displs[i] * ext
            view = raw[off : off + sendcounts[i] * ext]
            payload = sendtype.descriptor.pack(view, sendcounts[i])
            if i == root:
                recvtype.descriptor.unpack(payload, recvbuf, recvcount)
            else:
                _send_raw(lib, comm, i, tag, payload)
    else:
        payload = _recv_raw(lib, comm, root, tag)
        recvtype.descriptor.unpack(payload, recvbuf, recvcount)


def allgather(
    lib, comm: CommObject, sendbuf, sendcount: int, sendtype: DatatypeObject,
    recvbuf, recvcount: int, recvtype: DatatypeObject,
) -> None:
    gather(lib, comm, sendbuf, sendcount, sendtype,
           recvbuf, recvcount, recvtype, 0)
    # A contiguous run of size*recvcount elements broadcast from root 0.
    full = ContiguousType(recvcount, recvtype.descriptor)
    fulltype = DatatypeObject(full, committed=True)
    bcast(lib, comm, recvbuf, comm.size, fulltype, 0)


def allgatherv(
    lib, comm: CommObject, sendbuf, sendcount: int, sendtype: DatatypeObject,
    recvbuf, recvcounts: Sequence[int], displs: Sequence[int],
    recvtype: DatatypeObject,
) -> None:
    gatherv(lib, comm, sendbuf, sendcount, sendtype,
            recvbuf, recvcounts, displs, recvtype, 0)
    # Broadcast the filled region; displacements may leave holes, so
    # broadcast the full span of the receive buffer as raw bytes.
    raw = _as_bytes(recvbuf)
    bytetype = DatatypeObject(NamedType("MPI_BYTE", "u1"), committed=True)
    bcast(lib, comm, raw, raw.size, bytetype, 0)


def alltoall(
    lib, comm: CommObject, sendbuf, sendcount: int, sendtype: DatatypeObject,
    recvbuf, recvcount: int, recvtype: DatatypeObject,
) -> None:
    """Pairwise-exchange alltoall: p-1 rounds of sendrecv."""
    sendtype.check_committed()
    recvtype.check_committed()
    tag = _next_tag(lib, comm)
    size, rank = comm.size, comm.rank
    sraw = _as_bytes(sendbuf)
    rraw = _as_bytes(recvbuf)
    sslot = sendcount * sendtype.descriptor.extent()
    rslot = recvcount * recvtype.descriptor.extent()

    def send_to(i: int) -> None:
        view = sraw[i * sslot : (i + 1) * sslot]
        _send_raw(lib, comm, i, tag, sendtype.descriptor.pack(view, sendcount))

    def recv_from(i: int) -> None:
        payload = _recv_raw(lib, comm, i, tag)
        view = rraw[i * rslot : (i + 1) * rslot]
        recvtype.descriptor.unpack(payload, view, recvcount)

    # Self copy first.
    self_payload = sendtype.descriptor.pack(
        sraw[rank * sslot : (rank + 1) * sslot], sendcount
    )
    recvtype.descriptor.unpack(
        self_payload, rraw[rank * rslot : (rank + 1) * rslot], recvcount
    )
    for shift in range(1, size):
        dst = (rank + shift) % size
        src = (rank - shift) % size
        send_to(dst)
        recv_from(src)


def alltoallv(
    lib, comm: CommObject, sendbuf, sendcounts: Sequence[int],
    sdispls: Sequence[int], sendtype: DatatypeObject,
    recvbuf, recvcounts: Sequence[int], rdispls: Sequence[int],
    recvtype: DatatypeObject,
) -> None:
    sendtype.check_committed()
    recvtype.check_committed()
    tag = _next_tag(lib, comm)
    size, rank = comm.size, comm.rank
    sraw = _as_bytes(sendbuf)
    rraw = _as_bytes(recvbuf)
    sext = sendtype.descriptor.extent()
    rext = recvtype.descriptor.extent()

    def pack_for(i: int) -> bytes:
        off = sdispls[i] * sext
        view = sraw[off : off + sendcounts[i] * sext]
        return sendtype.descriptor.pack(view, sendcounts[i])

    def unpack_from(i: int, payload: bytes) -> None:
        off = rdispls[i] * rext
        view = rraw[off : off + recvcounts[i] * rext]
        recvtype.descriptor.unpack(payload, view, recvcounts[i])

    unpack_from(rank, pack_for(rank))
    for shift in range(1, size):
        dst = (rank + shift) % size
        src = (rank - shift) % size
        _send_raw(lib, comm, dst, tag, pack_for(dst))
        unpack_from(src, _recv_raw(lib, comm, src, tag))


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------

def _reduction_dtype(desc: TypeDescriptor) -> np.dtype:
    """The numpy element dtype a reduction operates on.

    Reductions are supported on named types and contiguous-of-named —
    the cases real applications use (the standard permits more, but a
    user op on an arbitrary derived type is vanishingly rare).
    """
    if isinstance(desc, NamedType):
        return desc.np_dtype
    if isinstance(desc, ContiguousType) and isinstance(desc.base, NamedType):
        return desc.base.np_dtype
    raise MpiError(
        f"reduction on unsupported datatype {desc!r}", "MPI_ERR_TYPE"
    )


def _combine(
    op: OpObject, contributions: List[bytes], np_dtype: np.dtype
) -> np.ndarray:
    """Apply ``op`` over per-rank contributions in rank order.

    MPI requires reductions to be evaluated as
    ``a_0 op a_1 op ... op a_{n-1}`` (left-associative) for
    non-commutative ops; the user-function contract is
    ``fn(invec, inoutvec) -> inoutvec = invec op inoutvec``, so we fold
    from the highest rank down.
    """
    op.check_live()
    acc = np.frombuffer(contributions[-1], dtype=np_dtype).copy()
    for payload in reversed(contributions[:-1]):
        invec = np.frombuffer(payload, dtype=np_dtype)
        op.fn(invec, acc)
    return acc


def reduce(
    lib, comm: CommObject, sendbuf, recvbuf, count: int,
    datatype: DatatypeObject, op: OpObject, root: int,
) -> None:
    datatype.check_committed()
    tag = _next_tag(lib, comm)
    np_dtype = _reduction_dtype(datatype.descriptor)
    my_payload = datatype.descriptor.pack(sendbuf, count)
    if comm.rank != root:
        _send_raw(lib, comm, root, tag, my_payload)
        return
    contributions: List[bytes] = []
    for i in range(comm.size):
        if i == root:
            contributions.append(my_payload)
        else:
            contributions.append(_recv_raw(lib, comm, i, tag))
    acc = _combine(op, contributions, np_dtype)
    datatype.descriptor.unpack(acc.tobytes(), recvbuf, count)


def allreduce(
    lib, comm: CommObject, sendbuf, recvbuf, count: int,
    datatype: DatatypeObject, op: OpObject,
) -> None:
    reduce(lib, comm, sendbuf, recvbuf, count, datatype, op, 0)
    bcast(lib, comm, recvbuf, count, datatype, 0)


def scan(
    lib, comm: CommObject, sendbuf, recvbuf, count: int,
    datatype: DatatypeObject, op: OpObject, inclusive: bool = True,
) -> None:
    """MPI_Scan / MPI_Exscan: prefix reduction in rank order.

    Linear chain: rank i receives the prefix of ranks [0, i), combines,
    and forwards.  For the exclusive scan, rank 0's receive buffer is
    left untouched (its value is undefined per the standard).
    """
    datatype.check_committed()
    op.check_live()
    tag = _next_tag(lib, comm)
    np_dtype = _reduction_dtype(datatype.descriptor)
    rank, size = comm.rank, comm.size
    mine = np.frombuffer(
        datatype.descriptor.pack(sendbuf, count), dtype=np_dtype
    ).copy()
    prefix = None
    if rank > 0:
        payload = _recv_raw(lib, comm, rank - 1, tag)
        prefix = np.frombuffer(payload, dtype=np_dtype).copy()
    # Inclusive value for this rank: prefix op mine (left operand = the
    # lower ranks, per fn(invec, inoutvec) -> inoutvec = invec op inoutvec).
    inclusive_val = mine.copy()
    if prefix is not None:
        op.fn(prefix, inclusive_val)
    if rank + 1 < size:
        _send_raw(lib, comm, rank + 1, tag, inclusive_val.tobytes())
    if inclusive:
        datatype.descriptor.unpack(inclusive_val.tobytes(), recvbuf, count)
    elif prefix is not None:
        datatype.descriptor.unpack(prefix.tobytes(), recvbuf, count)


def exscan(lib, comm: CommObject, sendbuf, recvbuf, count: int,
           datatype: DatatypeObject, op: OpObject) -> None:
    scan(lib, comm, sendbuf, recvbuf, count, datatype, op, inclusive=False)


def reduce_scatter_block(
    lib, comm: CommObject, sendbuf, recvbuf, recvcount: int,
    datatype: DatatypeObject, op: OpObject,
) -> None:
    """MPI_Reduce_scatter_block: elementwise reduce of size*recvcount
    elements, block i of the result delivered to rank i."""
    datatype.check_committed()
    size, rank = comm.size, comm.rank
    total = size * recvcount
    np_dtype = _reduction_dtype(datatype.descriptor)
    tmp = np.zeros(total, dtype=np_dtype)
    reduce(lib, comm, sendbuf, tmp, total, datatype, op, 0)
    scatter(
        lib, comm, tmp, recvcount, datatype, recvbuf, recvcount, datatype, 0
    )


# ----------------------------------------------------------------------
# object allgather (library-internal, used by comm_split)
# ----------------------------------------------------------------------

def allgather_obj(lib, comm: CommObject, obj) -> List:
    """Allgather arbitrary picklable objects; returns list indexed by
    communicator rank.  Used by comm_split to exchange (color, key)."""
    tag = _next_tag(lib, comm)
    size, rank = comm.size, comm.rank
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if size == 1:
        return [obj]
    results: List = [None] * size
    results[rank] = obj
    if rank != 0:
        _send_raw(lib, comm, 0, tag, payload)
        blob = _recv_raw(lib, comm, 0, tag)
        return pickle.loads(blob)
    for i in range(1, size):
        msg = lib.fabric.wait_match(
            lib.world_rank,
            comm.world_rank_of(i),
            tag,
            _coll_ctx(comm),
            deadline=lib._deadline(),
        )
        lib.clock.merge(msg.arrive_time)
        results[i] = pickle.loads(msg.payload)
    blob = pickle.dumps(results, protocol=pickle.HIGHEST_PROTOCOL)
    for i in range(1, size):
        _send_raw(lib, comm, i, tag, blob)
    return results
