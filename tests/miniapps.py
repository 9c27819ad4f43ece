"""Small applications used by the integration tests."""

from __future__ import annotations

import numpy as np

from repro.runtime import MpiApplication
from repro.util.errors import MpiError
from repro.util.registry import user_op


@user_op("mini-weighted-sum")
def weighted_sum(invec, inoutvec):
    inoutvec += 2.0 * invec  # deliberately not plain SUM


class RingApp(MpiApplication):
    """Send/recv ring + allreduce per iteration; uses a sub-communicator,
    a committed vector type, and a user op — one of everything MANA must
    virtualize."""

    name = "ring"

    def __init__(self, niters: int = 40, compute: float = 0.001):
        self.niters = niters
        self.compute = compute
        self.acc = np.zeros(1)
        self.trace = []

    def setup(self, ctx):
        MPI = ctx.MPI
        self.sub = MPI.comm_split(MPI.COMM_WORLD, ctx.rank % 2, ctx.rank)
        self.vt = MPI.type_vector(2, 1, 2, MPI.DOUBLE)
        MPI.type_commit(self.vt)
        self.wsum = MPI.op_create(weighted_sum, True)

    def run(self, ctx):
        MPI = ctx.MPI
        w = MPI.COMM_WORLD
        size, rank = ctx.nranks, ctx.rank
        for it in ctx.loop("main", self.niters):
            ctx.compute(self.compute)
            sb = np.array([float(rank + it)])
            MPI.send(sb, 1, MPI.DOUBLE, (rank + 1) % size, 5, w)
            rb = np.zeros(1)
            MPI.recv(rb, 1, MPI.DOUBLE, (rank - 1) % size, 5, w)
            out = np.zeros(1)
            MPI.allreduce(rb, out, 1, MPI.DOUBLE, MPI.SUM, w)
            self.acc[0] += out[0]
            sout = np.zeros(1)
            MPI.allreduce(sb, sout, 1, MPI.DOUBLE, self.wsum, self.sub)
            self.acc[0] += sout[0]
            if it % 4 == 0:
                # exercise the committed derived type
                src = np.arange(4, dtype=np.float64) + it
                dst = np.zeros(4)
                MPI.sendrecv(src, 1, self.vt, (rank + 1) % size, 6,
                             dst, 1, self.vt, (rank - 1) % size, 6, w)
                self.acc[0] += dst[2]
            self.trace.append(float(self.acc[0]))


class SkewedSendersApp(MpiApplication):
    """Rank 0 sends eagerly and runs ahead; receivers lag — guarantees
    user messages are in flight whenever a checkpoint fires."""

    name = "skewed"

    def __init__(self, niters: int = 30, burst: int = 3):
        self.niters = niters
        self.burst = burst
        self.received = []

    def run(self, ctx):
        MPI = ctx.MPI
        w = MPI.COMM_WORLD
        for it in ctx.loop("main", self.niters):
            if ctx.rank == 0:
                for b in range(self.burst):
                    for dst in range(1, ctx.nranks):
                        MPI.send(
                            np.array([it * 100.0 + b]), 1, MPI.DOUBLE,
                            dst, 20, w,
                        )
            else:
                # Lag: consume only one message per iteration; the rest
                # pile up in the network.
                ctx.compute(0.001)
                if it >= 1:
                    buf = np.zeros(1)
                    MPI.recv(buf, 1, MPI.DOUBLE, 0, 20, w)
                    self.received.append(float(buf[0]))
        # drain the backlog at the end
        if ctx.rank != 0:
            remaining = self.niters * self.burst - len(self.received)
            for _ in range(remaining):
                buf = np.zeros(1)
                MPI.recv(buf, 1, MPI.DOUBLE, 0, 20, w)
                self.received.append(float(buf[0]))

    def validate(self, ctx):
        if self.received and self.received != sorted(self.received):
            return "message order violated (non-overtaking broken)"
        return None


class PendingIrecvApp(MpiApplication):
    """Posts receives for messages that are sent much later: pending
    nonblocking requests must survive checkpoint/restart."""

    name = "pending-irecv"

    def __init__(self, niters: int = 24):
        self.niters = niters
        self.early = np.zeros(2)
        self.got_early = False

    def run(self, ctx):
        MPI = ctx.MPI
        w = MPI.COMM_WORLD
        peer = (ctx.rank + 1) % ctx.nranks
        prev = (ctx.rank - 1) % ctx.nranks
        req = MPI.irecv(self.early, 2, MPI.DOUBLE, prev, 77, w)
        for it in ctx.loop("main", self.niters):
            ctx.compute(0.001)
            MPI.barrier(w)
            if it == self.niters - 3:
                # only now does the matching send happen
                MPI.send(np.array([1.5, 2.5]), 2, MPI.DOUBLE, peer, 77, w)
        st = MPI.wait(req)
        self.got_early = bool(st.count_bytes == 16)

    def validate(self, ctx):
        if not self.got_early:
            return "pending irecv never completed"
        if self.early.tolist() != [1.5, 2.5]:
            return f"pending irecv corrupted: {self.early}"
        return None


class CommChurnApp(MpiApplication):
    """Creates and frees communicators every iteration (§9's motivating
    pattern for the lazy ggid policy)."""

    name = "churn"

    def __init__(self, niters: int = 20):
        self.niters = niters
        self.sum_of_sizes = 0

    def run(self, ctx):
        MPI = ctx.MPI
        for it in ctx.loop("main", self.niters):
            sub = MPI.comm_split(MPI.COMM_WORLD, it % 2 == ctx.rank % 2, ctx.rank)
            self.sum_of_sizes += MPI.comm_size(sub)
            MPI.barrier(sub)
            MPI.comm_free(sub)


class PointToPointApp(MpiApplication):
    """Two ranks calling every hand-written point-to-point wrapper."""

    name = "p2p-golden"

    def __init__(self):
        self.seen = []

    def run(self, ctx):
        MPI = ctx.MPI
        w, D = MPI.COMM_WORLD, MPI.DOUBLE
        r = ctx.rank
        peer, null = 1 - r, MPI.PROC_NULL
        x = np.array([10.0 * r + 1])
        y = np.zeros(1)
        seen = self.seen

        def got(st):
            seen.append([st.source, st.tag, st.count_bytes, float(y[0])])

        # PROC_NULL: every call completes at once, moving nothing.
        MPI.send(x, 1, D, null, 0, w)
        got(MPI.recv(y, 1, D, null, 0, w))
        got(MPI.wait(MPI.irecv(y, 1, D, null, 0, w)))
        seen.append(MPI.test(MPI.isend(x, 1, D, null, 0, w))[0])
        got(MPI.sendrecv(x, 1, D, null, 0, y, 1, D, null, 0, w))
        for init in (MPI.send_init, MPI.recv_init):
            p = init(x, 1, D, null, 0, w)
            MPI.start(p)
            got(MPI.wait(p))
            MPI.request_free(p)

        # Blocking exchange, then probes.
        if r == 0:
            MPI.send(x, 1, D, peer, 1, w)
            got(MPI.recv(y, 1, D, peer, 2, w))
        else:
            got(MPI.recv(y, 1, D, peer, 1, w))
            MPI.send(x, 1, D, peer, 2, w)
        got(MPI.sendrecv(x, 1, D, peer, 3, y, 1, D, peer, 3, w))
        MPI.send(x, 1, D, peer, 4, w)
        got(MPI.probe(peer, 4, w))
        seen.append(MPI.iprobe(peer, 4, w)[0])
        seen.append(MPI.iprobe(peer, 5, w)[0])
        got(MPI.recv(y, 1, D, peer, 4, w))

        # Nonblocking completions, each outcome fixed by a barrier.
        q = MPI.irecv(y, 1, D, peer, 5, w)
        seen.append(MPI.test(q)[0])
        reqs = [MPI.irecv(y, 1, D, peer, 6, w), MPI.irecv(y, 1, D, peer, 7, w)]
        seen.append(MPI.testall(reqs)[0])
        seen.append(MPI.testany(reqs)[:2])
        MPI.barrier(w)
        s = MPI.isend(x, 1, D, peer, 5, w)
        MPI.send(x, 1, D, peer, 6, w)
        MPI.send(x, 1, D, peer, 7, w)
        MPI.barrier(w)
        flag, st = MPI.test(q)
        seen.append(flag)
        got(st)
        seen.append(MPI.test(s)[0])
        flag, i, st = MPI.testany(reqs)
        seen.append([flag, i])
        got(st)
        flag, sts = MPI.testall(reqs[1:])
        seen.append(flag)
        for st in sts:
            got(st)

        # Blocking completions over lists.
        reqs = [MPI.irecv(y, 1, D, peer, 8, w), MPI.irecv(y, 1, D, peer, 9, w)]
        MPI.send(x, 1, D, peer, 9, w)
        i, st = MPI.waitany(reqs)
        seen.append(i)
        got(st)
        MPI.barrier(w)
        MPI.send(x, 1, D, peer, 8, w)
        for st in MPI.waitall([reqs[0], MPI.isend(x, 1, D, peer, 10, w)]):
            got(st)
        got(MPI.recv(y, 1, D, peer, 10, w))

        # Persistent requests: startall/waitall cycles, start/wait, free.
        pr = MPI.recv_init(y, 1, D, peer, 11, w)
        ps = MPI.send_init(x, 1, D, peer, 11, w)
        for _ in range(2):
            MPI.startall([pr, ps])
            for st in MPI.waitall([pr, ps]):
                got(st)
        MPI.start(pr)
        MPI.start(ps)
        got(MPI.wait(ps))
        got(MPI.wait(pr))
        seen.append(MPI.test(pr)[0])
        MPI.request_free(pr)
        MPI.request_free(ps)

        # Across a LOOP round: tag 12 is in flight, tag 13's irecv is
        # pending, tag 14's irecv has its message in flight.
        late = MPI.irecv(y, 1, D, peer, 13, w)
        early = MPI.irecv(np.zeros(1), 1, D, peer, 14, w)
        MPI.send(x, 1, D, peer, 12, w)
        MPI.send(x, 1, D, peer, 14, w)
        for _ in ctx.loop("main", 12):
            MPI.barrier(w)
        got(MPI.probe(peer, 12, w))
        seen.append(MPI.iprobe(peer, 12, w)[0])
        got(MPI.recv(y, 1, D, peer, 12, w))
        MPI.send(x, 1, D, peer, 13, w)
        got(MPI.wait(late))
        got(MPI.wait(early))


class EntryPointsApp(MpiApplication):
    """Three ranks calling the MPI entry points that no other test
    reaches; ``seen`` holds every value they return, so a native run and
    a MANA run can be compared value by value.  A refused call records
    its exception class and MPI error class (ExaMPI lacks ``type_dup``
    and ``cart_create``; a freed keyval is an error everywhere)."""

    name = "entry-points"

    def __init__(self):
        self.seen = []

    def run(self, ctx):
        MPI = ctx.MPI
        w, D = MPI.COMM_WORLD, MPI.DOUBLE
        r, n = ctx.rank, ctx.nranks
        seen = self.seen

        def refused(call, *args):
            try:
                return call(*args)
            except MpiError as exc:
                seen.append([type(exc).__name__, exc.error_class])
                return None

        t0 = MPI.wtime()
        seen.append([MPI.initialized(), MPI.finalized(),
                     MPI.get_processor_name()])
        rev = MPI.comm_split(w, 0, n - r)
        seen.append([MPI.comm_rank(w), MPI.comm_rank(rev)])
        cart = refused(MPI.cart_create, w, [n], [True])
        if cart is not None:
            seen.append([MPI.cart_rank(cart, [c]) for c in range(-1, n + 1)])

        # get_count for a named and a vector type.
        vec = MPI.type_vector(2, 1, 2, D)
        MPI.type_commit(vec)
        y = np.zeros(4)
        st = MPI.sendrecv(np.arange(4.0) + 10 * r, 4, D, (r + 1) % n, 1,
                          y, 4, D, (r - 1) % n, 1, w)
        seen.append([MPI.get_count(st, D), MPI.get_count(st, vec),
                     y.tolist()])

        # A send/recv through a duplicated type.
        dup = refused(MPI.type_dup, vec)
        if dup is not None:
            y = np.zeros(4)
            st = MPI.sendrecv(np.arange(4.0) + 10 * r, 1, dup, (r + 1) % n, 2,
                              y, 1, dup, (r - 1) % n, 2, w)
            seen.append([st.source, st.tag, st.count_bytes, y.tolist()])

        # Contents of a vector, and of a struct holding a derived type.
        ints, addrs, inner = MPI.type_get_contents(vec)
        seen.append([list(ints), list(addrs), [h == D for h in inner]])
        struct = MPI.type_create_struct([1, 1], [0, 8], [D, vec])
        ints, addrs, inner = MPI.type_get_contents(struct)
        env = MPI.type_get_envelope(inner[1])
        seen.append([list(ints), list(addrs), [h == D for h in inner],
                     MPI.type_size(inner[1]), env.combiner,
                     env.num_integers, env.num_datatypes])

        # Attributes: set, delete, get, free the keyval, set again.
        kv = MPI.comm_create_keyval()
        MPI.comm_set_attr(w, kv, f"rank-{r}")
        MPI.comm_delete_attr(w, kv)
        seen.append(list(MPI.comm_get_attr(w, kv)))
        MPI.comm_free_keyval(kv)
        refused(MPI.comm_set_attr, w, kv, "freed")

        # MINLOC over (value, index) pairs; ranks 1 and 2 tie.
        pair = np.zeros(1, dtype=[("value", "f8"), ("index", "i4")])
        pair["value"] = 3.0 if r == 0 else 1.0
        pair["index"] = r
        out = np.zeros_like(pair)
        MPI.allreduce(pair, out, 1, MPI.DOUBLE_INT, MPI.MINLOC, w)
        seen.append([float(out["value"][0]), int(out["index"][0])])
        seen.append(MPI.wtime() >= t0)


class DrainedRestartApp(MpiApplication):
    """Rank 1 sends two messages before the loop; rank 0 receives them
    after it, one with ``irecv`` + ``test`` and one with a persistent
    ``recv_init`` + ``start`` + ``test``.  A LOOP checkpoint inside the
    loop drains both messages; after a cold restart they are served from
    MANA's drain buffer.  ``early`` creates rank 0's two requests before
    the loop instead (the irecv is then completed by the drain itself)."""

    name = "drained-restart"

    def __init__(self, early: bool = False):
        self.early = early
        self.first = np.zeros(1)
        self.second = np.zeros(1)
        self.seen = []

    def setup(self, ctx):
        MPI = ctx.MPI
        w, D = MPI.COMM_WORLD, MPI.DOUBLE
        if ctx.rank == 1:
            MPI.send(np.array([1.5]), 1, D, 0, 1, w)
            MPI.send(np.array([2.5]), 1, D, 0, 2, w)
        elif self.early:
            self._post(MPI)

    def _post(self, MPI):
        w, D = MPI.COMM_WORLD, MPI.DOUBLE
        self.req = MPI.irecv(self.first, 1, D, 1, 1, w)
        self.preq = MPI.recv_init(self.second, 1, D, 1, 2, w)

    def run(self, ctx):
        MPI = ctx.MPI
        for _ in ctx.loop("main", 12):
            MPI.barrier(MPI.COMM_WORLD)
        if ctx.rank != 0:
            return
        if not self.early:
            self._post(MPI)
        MPI.start(self.preq)
        for req in (self.req, self.preq):
            flag, st = MPI.test(req)
            self.seen.append([flag, st.source, st.tag, st.count_bytes])
        MPI.request_free(self.preq)
        self.seen.append([float(self.first[0]), float(self.second[0])])
