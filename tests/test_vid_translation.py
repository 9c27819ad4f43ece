"""Virtual-id translation across every mutation the table goes through.

``VirtualIdTable`` has one translation path (``extract``, one
``_entries`` get, the kind check), so these tests drive what changes
the answer — rebinds, frees, recycled indices, a handle-width change,
pickling, lower-half swaps — and assert each translation reads the
entry as it is now.  The last class pins the table's pickled layout,
which is part of every MANA image's bytes.
"""

import pickle
from dataclasses import replace

import pytest

from repro import JobConfig, Launcher
from repro.apps.elastic import ElasticHaloApp
from repro.mana.records import CommRecord
from repro.mana.virtid import VirtualIdTable
from repro.mpi.api import HandleKind
from repro.util.errors import InvalidHandleError
from tests.miniapps import RingApp

NRANKS = 4


def _table(handle_bits=32):
    t = VirtualIdTable(handle_bits=handle_bits)
    vh = t.attach(HandleKind.REQUEST, object(), phys=111)
    return t, vh


class TestTranslation:
    def test_phys_translates(self):
        t, vh = _table()
        assert t.phys(vh, HandleKind.REQUEST) == 111
        assert t.phys(vh, HandleKind.REQUEST) == 111

    def test_lookup_returns_the_entry(self):
        t, vh = _table()
        e1 = t.lookup(vh)
        assert t.lookup(vh) is e1
        assert (e1.kind, e1.phys) == (HandleKind.REQUEST, 111)

    def test_kind_check(self):
        """A handle translates with no kind or its own kind, never as
        another kind."""
        t, vh = _table()
        assert t.phys(vh) == 111
        assert t.phys(vh, HandleKind.REQUEST) == 111
        with pytest.raises(InvalidHandleError, match="is a request"):
            t.phys(vh, HandleKind.COMM)
        with pytest.raises(InvalidHandleError, match="is a request"):
            t.lookup(vh, HandleKind.COMM)

    def test_64_bit_embedded_handles(self):
        t, vh = _table(handle_bits=64)
        assert vh >= (1 << 32)
        assert t.phys(vh, HandleKind.REQUEST) == 111
        # The bare 32-bit vid names the same entry.
        assert t.lookup(vh & 0xFFFFFFFF) is t.lookup(vh)


class TestRebinding:
    def test_set_phys_never_serves_stale(self):
        t, vh = _table()
        assert t.phys(vh) == 111
        t.set_phys(vh, 222)
        assert t.phys(vh) == 222
        t.set_phys(vh, None)
        with pytest.raises(InvalidHandleError, match="no physical binding"):
            t.phys(vh)

    def test_set_phys_rebinds_kinded_translation(self):
        t, vh = _table()
        assert t.phys(vh, HandleKind.REQUEST) == 111
        t.set_phys(vh, 333)
        assert t.phys(vh, HandleKind.REQUEST) == 333

    def test_removed_handle_is_unknown(self):
        t, vh = _table()
        t.phys(vh)
        t.remove(vh)
        with pytest.raises(InvalidHandleError, match="unknown virtual id"):
            t.phys(vh)
        with pytest.raises(InvalidHandleError, match="unknown virtual id"):
            t.lookup(vh)

    def test_free_recreate_churn(self):
        """comm_free / comm-create churn: a recycled index must never
        resurrect the old physical id."""
        t = VirtualIdTable(handle_bits=32)
        for round_ in range(50):
            rec = CommRecord(world_ranks=(0, 1), ggid=None, dup_seq=round_)
            vh = t.attach(HandleKind.COMM, rec, phys=10_000 + round_)
            assert t.phys(vh, HandleKind.COMM) == 10_000 + round_
            t.remove(vh)
            with pytest.raises(InvalidHandleError):
                t.phys(vh, HandleKind.COMM)

    def test_handle_bits_change_keeps_translating(self):
        """A lower-half swap may change the handle width; handles held
        under either width still translate."""
        t, vh = _table()
        t.handle_bits = 64
        assert t.phys(vh) == 111
        assert t.phys(t.embed(t.extract(vh))) == 111

    def test_rebuild_reverse_keeps_translating(self):
        t, vh = _table()
        t.rebuild_reverse()
        assert t.phys(vh) == 111
        assert t.vid_of_phys(HandleKind.REQUEST, 111) == vh

    def test_pickling_drops_phys(self):
        t, vh = _table()
        t2 = pickle.loads(pickle.dumps(t))
        assert t.phys(vh) == 111  # the live table keeps its binding
        with pytest.raises(InvalidHandleError, match="no physical binding"):
            t2.phys(vh)
        assert t2.vid_of_phys(HandleKind.REQUEST, 111) is None


class TestEntriesOrder:
    def test_insertion_order_is_creation_order(self):
        t = VirtualIdTable(handle_bits=32)
        vhs = [t.attach(HandleKind.REQUEST, object(), phys=i)
               for i in range(8)]
        t.remove(vhs[3])
        seqs = [e.creation_seq for e in t.entries()]
        assert seqs == sorted(seqs)

    def test_order_restored_after_pickle(self):
        t = VirtualIdTable(handle_bits=32)
        for i in range(8):
            t.attach(HandleKind.REQUEST, object(), phys=i)
        t2 = pickle.loads(pickle.dumps(t))
        seqs = [e.creation_seq for e in t2.entries()]
        assert seqs == sorted(seqs)


# ----------------------------------------------------------------------
# lower-half swaps
# ----------------------------------------------------------------------
def _assert_bound_in_current_lower_half(job):
    """Every live entry with a binding names an object of the rank's
    current lower half, and translating its handle (either width)
    returns that binding."""
    for mana in job.manas:
        vids, handles = mana.vids, mana.lower.handles
        assert vids.handle_bits == handles.handle_bits
        bound = [e for e in vids.entries() if e.phys is not None]
        assert bound
        for entry in bound:
            obj = handles.resolve(entry.kind, entry.phys)
            for vh in (entry.vid, vids.embed(entry.vid)):
                assert vids.phys(vh, entry.kind) == entry.phys
            if entry.kind == HandleKind.COMM:
                members = entry.record.world_ranks
                assert [obj.world_rank_of(i) for i in range(len(members))] \
                    == list(members)


def _preempted_ring(ckdir, impl):
    cfg = JobConfig(nranks=NRANKS, impl=impl, mana=True, ckpt_dir=ckdir)
    job = Launcher(cfg).launch(lambda r: RingApp(24))
    tk = job.checkpoint_at_iteration("main", 8, kind="loop", mode="exit")
    job.start()
    tk.wait(120)
    assert job.wait(120).status == "preempted"
    return cfg


class TestLowerHalfSwaps:
    def test_in_session_relaunch(self):
        cfg = JobConfig(nranks=NRANKS, impl="openmpi", mana=True)
        job = Launcher(cfg).launch(lambda r: RingApp(24))
        tk = job.checkpoint_at_iteration("main", 8, mode="relaunch")
        job.start()
        tk.wait(120)
        res = job.wait(120)
        assert res.status == "completed", res.first_error()
        assert all(m.epoch == 1 for m in job.manas)  # really relaunched
        _assert_bound_in_current_lower_half(job)

    @pytest.mark.parametrize("impl,restart_impl", [
        ("mpich", "mpich"),       # cold restart, same implementation
        ("mpich", "openmpi"),     # 32-bit handles -> 64-bit
        ("openmpi", "mpich"),     # 64-bit handles -> 32-bit
    ])
    def test_cold_restart(self, tmp_path, impl, restart_impl):
        ckdir = str(tmp_path / "ck")
        cfg = _preempted_ring(ckdir, impl)
        job = Launcher(cfg).restart(ckdir, impl_override=restart_impl)
        res = job.run(timeout=120)
        assert res.status == "completed", res.first_error()
        _assert_bound_in_current_lower_half(job)

    def test_elastic_restore(self, tmp_path):
        spec = replace(ElasticHaloApp.paper_config(), nranks=NRANKS,
                       blocks=8)
        cfg = JobConfig(nranks=NRANKS, mana=True, ckpt_dir=str(tmp_path),
                        loop_lag_window=2)
        job = Launcher(cfg).launch(lambda r: ElasticHaloApp(spec))
        job.checkpoint_at_iteration("main", 2, kind="loop")
        res = job.run(60.0)
        assert res.status == "completed", res.first_error()
        job = Launcher(cfg).elastic_restart(cfg.ckpt_dir, new_nranks=2)
        res = job.run(60.0)
        assert res.status == "completed", res.first_error()
        assert len(job.manas) == 2
        _assert_bound_in_current_lower_half(job)

    def test_32_to_64_restart_translates_old_handles(self, tmp_path):
        """Upper-half memory checkpointed under MPICH holds bare 32-bit
        handles; under Open MPI they still translate, to the new lower
        half's 64-bit physical ids."""
        ckdir = str(tmp_path / "ck")
        cfg = _preempted_ring(ckdir, "mpich")
        job = Launcher(cfg).restart(ckdir, impl_override="openmpi")
        res = job.run(timeout=120)
        assert res.status == "completed", res.first_error()
        for mana, app in zip(job.manas, res.apps()):
            assert app.sub < (1 << 32)  # held since before the restart
            assert mana.vids.phys(app.sub, HandleKind.COMM) == \
                mana.vids.lookup(mana.vids.embed(app.sub)).phys


# ----------------------------------------------------------------------
# the pickled layout (image bytes)
# ----------------------------------------------------------------------
IMAGE_KEYS = [
    "cache_hits", "cache_epoch", "_handle_bits", "ggid_policy", "clock",
    "_entries", "_reverse", "_constants", "_seq", "_next_index",
    "_ggid_cache", "membership_incarnations", "lookup_count",
    "live_keyvals", "next_keyval", "_seq_value",
]


def _pickled_state(table) -> dict:
    return table.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]


class TestPickledLayout:
    def test_fresh_table(self):
        t, _ = _table(handle_bits=64)
        state = _pickled_state(t)
        assert list(state) == IMAGE_KEYS
        assert [state[k] for k in ("cache_hits", "cache_epoch",
                                   "lookup_count")] == [0, 0, 0]
        assert state["_handle_bits"] == 64

    def test_unpickled_table(self):
        t, vh = _table(handle_bits=64)
        blob = pickle.dumps(t)
        t2 = pickle.loads(blob)
        assert list(_pickled_state(t2)) == IMAGE_KEYS
        assert t2.handle_bits == 64
        # A restored table checkpoints again to the same bytes.
        assert pickle.dumps(t2) == blob
