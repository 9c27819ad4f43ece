"""Model-based property tests: the fabric and the virtual-id table are
driven with random operation sequences and compared against simple
reference models (hypothesis stateful-style, expressed as rule lists so
shrinking stays fast)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.network import ANY_SOURCE, ANY_TAG, Fabric
from repro.mana.legacy import LegacyVirtualIdMaps
from repro.mana.records import ConstantRecord, GroupRecord
from repro.mana.virtid import VirtualIdTable
from repro.mpi.api import HandleKind
from repro.simtime.cost import CostModel
from repro.util.errors import InvalidHandleError


# ----------------------------------------------------------------------
# fabric vs reference model
# ----------------------------------------------------------------------

class FabricModel:
    """Reference semantics: per-destination ordered list; match = oldest
    message agreeing on (ctx, src?, tag?)."""

    def __init__(self, nranks):
        self.queues = {r: [] for r in range(nranks)}
        self.seq = 0

    def post(self, src, dst, tag, ctx, payload):
        self.queues[dst].append((self.seq, src, tag, ctx, payload))
        self.seq += 1

    def match(self, dst, src, tag, ctx):
        for i, (s, msrc, mtag, mctx, payload) in enumerate(self.queues[dst]):
            if mctx != ctx:
                continue
            if src != ANY_SOURCE and msrc != src:
                continue
            if tag != ANY_TAG and mtag != tag:
                continue
            return self.queues[dst].pop(i)[4]
        return None


op_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("post"),
            st.integers(0, 2),        # src
            st.integers(0, 2),        # dst
            st.integers(0, 3),        # tag
            st.integers(0, 1),        # ctx
        ),
        st.tuples(
            st.just("match"),
            st.integers(0, 2),        # dst
            st.sampled_from([0, 1, 2, ANY_SOURCE]),
            st.sampled_from([0, 1, 2, 3, ANY_TAG]),
            st.integers(0, 1),
        ),
    ),
    max_size=60,
)


@given(op_strategy)
@settings(max_examples=120, deadline=None)
def test_property_fabric_matches_reference_model(ops):
    fab = Fabric(3, CostModel.discovery())
    model = FabricModel(3)
    counter = 0
    for op in ops:
        if op[0] == "post":
            _, src, dst, tag, ctx = op
            payload = bytes([counter % 256, counter // 256 % 256])
            counter += 1
            fab.post_send(src, dst, tag, ctx, payload, 0.0)
            model.post(src, dst, tag, ctx, payload)
        else:
            _, dst, src, tag, ctx = op
            got = fab.try_match(dst, src, tag, ctx)
            want = model.match(dst, src, tag, ctx)
            if want is None:
                assert got is None
            else:
                assert got is not None and got.payload == want
    # final drain must agree completely
    for dst in range(3):
        assert fab.in_flight(dst) == len(model.queues[dst])


# ----------------------------------------------------------------------
# virtual-id designs vs reference model (and vs each other)
# ----------------------------------------------------------------------

vid_ops = st.lists(
    st.one_of(
        st.tuples(st.just("attach"),
                  st.sampled_from([HandleKind.GROUP, HandleKind.DATATYPE,
                                   HandleKind.OP, HandleKind.REQUEST])),
        st.tuples(st.just("remove"), st.integers(0, 30)),
        st.tuples(st.just("rebind"), st.integers(0, 30)),
        st.tuples(st.just("lookup"), st.integers(0, 30)),
    ),
    max_size=80,
)


@given(vid_ops)
@settings(max_examples=100, deadline=None)
@pytest.mark.parametrize("design", ["new", "legacy"])
def test_property_vid_table_reference_model(design, ops):
    table = VirtualIdTable(32) if design == "new" else LegacyVirtualIdMaps(32)
    model = {}          # vhandle -> (kind, phys)
    handles = []        # attach order
    next_phys = 100
    for op in ops:
        if op[0] == "attach":
            kind = op[1]
            rec = (GroupRecord((len(handles),))
                   if kind == HandleKind.GROUP
                   else ConstantRecord("MPI_INT"))
            vh = table.attach(kind, rec, next_phys)
            assert vh not in model  # uniqueness
            model[vh] = (kind, next_phys)
            handles.append(vh)
            next_phys += 1
        elif op[0] == "remove" and handles:
            vh = handles[op[1] % len(handles)]
            if vh in model:
                table.remove(vh)
                del model[vh]
            else:
                with pytest.raises(InvalidHandleError):
                    table.remove(vh)
        elif op[0] == "rebind" and handles:
            vh = handles[op[1] % len(handles)]
            if vh in model:
                kind, _ = model[vh]
                table.set_phys(vh, next_phys)
                model[vh] = (kind, next_phys)
                next_phys += 1
        elif op[0] == "lookup" and handles:
            vh = handles[op[1] % len(handles)]
            if vh in model:
                kind, phys = model[vh]
                e = table.lookup(vh, kind)
                assert e.phys == phys
                assert table.vid_of_phys(kind, phys) == vh
            else:
                with pytest.raises(InvalidHandleError):
                    table.lookup(vh)
    assert len(table) == len(model)


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_property_incarnations_monotonic(memberships):
    """The dup_seq incarnation counter never repeats for one membership —
    the invariant behind trivial-barrier key uniqueness."""
    table = VirtualIdTable(32)
    ranks = {"a": (0, 1), "b": (0, 2), "c": (1, 2)}
    seen = set()
    for m in memberships:
        world = ranks[m]
        n = table.membership_incarnations.get(world, 0)
        table.membership_incarnations[world] = n + 1
        key = (world, n)
        assert key not in seen
        seen.add(key)


# ----------------------------------------------------------------------
# MPICH-family two-level handle space vs a plain dict
# ----------------------------------------------------------------------

# sha256 over the handles handed out by _drive_handle_space(epoch), as
# recorded at the commit before pages became growable: allocation order,
# the epoch-salted start page, LIFO free-list reuse and the roll-over
# after slot 65,535 must never change (physical ids end up in images).
HANDLE_SEQUENCE_SHA256 = {
    0: "4cd831f34fc451cd2cfc38705e465521167606fb90de7a0a58b028b3a0afab39",
    3: "7e325d8bcd2d668ec29d70f1060e905282a986a721520070c80410d874312ac2",
}


def _drive_handle_space(epoch, seed=20230914):
    """Random insert/remove/resolve per kind against a dict, with the
    REQUEST page filled past its last slot while the free list is in
    use.  Returns the digest of every handle handed out, in order."""
    import hashlib
    import random

    from repro.impls.mpich import PAGE_SLOTS, TwoLevelHandleSpace

    rng = random.Random(seed + epoch)
    space = TwoLevelHandleSpace(epoch=epoch)
    model = {k: {} for k in HandleKind.ALL}      # kind -> handle -> obj
    freed = {k: [] for k in HandleKind.ALL}
    digest = hashlib.sha256()
    serial = 0

    def insert(kind):
        nonlocal serial
        serial += 1
        h = space.insert(kind, serial)
        assert h not in model[kind]
        model[kind][h] = serial
        digest.update(h.to_bytes(4, "little"))

    def remove(kind):
        h = rng.choice(list(model[kind]))
        space.remove(kind, h)
        del model[kind][h]
        freed[kind].append(h)

    def check(kind):
        if model[kind]:
            h = rng.choice(list(model[kind]))
            assert space.resolve(kind, h) == model[kind][h]
        stale = [h for h in freed[kind][-8:] if h not in model[kind]]
        if stale:
            h = rng.choice(stale)
            with pytest.raises(InvalidHandleError):
                space.resolve(kind, h)
            with pytest.raises(InvalidHandleError):
                space.remove(kind, h)

    def churn(steps):
        for _ in range(steps):
            kind = rng.choice(HandleKind.ALL)
            roll = rng.random()
            if roll < 0.5 or not model[kind]:
                insert(kind)
            elif roll < 0.8:
                remove(kind)
            else:
                check(kind)

    churn(1500)
    # Fill the REQUEST page to roll-over, freeing and reusing on the way.
    kind = HandleKind.REQUEST
    for i in range(PAGE_SLOTS + 64):
        insert(kind)
        if i % 4096 == 4095:
            for _ in range(16):
                remove(kind)
            for _ in range(8):
                insert(kind)
            check(kind)
    churn(1500)
    for kind in HandleKind.ALL:
        for h, obj in model[kind].items():
            assert space.resolve(kind, h) == obj
    return digest.hexdigest()


@pytest.mark.parametrize("epoch", sorted(HANDLE_SEQUENCE_SHA256))
def test_two_level_handle_space_matches_dict_and_recorded_sequence(epoch):
    assert _drive_handle_space(epoch) == HANDLE_SEQUENCE_SHA256[epoch]
