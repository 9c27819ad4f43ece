"""Crash-point injector and the syscall-level crash-injection sweep.

The ISSUE-8 acceptance bar lives here: the mutation batch must expose
at least 40 distinct named syscall boundaries across the save / drain /
gc / prune operation contexts, and killing the writer at **any** of
them must leave the store restorable (or fsck-repairable to restorable)
with zero leaked state.  The bounded subset runs in tier-1; the
exhaustive all-points sweep is ``slow``-marked (same code path as
``python -m repro smoke crash --points 0``).
"""

import pathlib
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.faults.crashpoints import CrashPointInjector
from repro.faults.crashsweep import (
    _image,
    enumerate_crash_points,
    run_sweep,
    select_subset,
)
from repro.mana import storeio
from repro.mana.checkpoint import CheckpointStore
from repro.mana.storeio import StoreIO
from repro.util.errors import InjectedCrash

#: The sweep's point names in first-seen order.  Re-record with
#: ``PYTHONPATH=src python -c "import tempfile; from
#: repro.faults.crashsweep import enumerate_crash_points as e;
#: d = tempfile.TemporaryDirectory(); print('\n'.join(e(d.name)))"
#: > tests/crash_points.txt``
_CRASH_POINTS = pathlib.Path(__file__).with_name("crash_points.txt")


# ----------------------------------------------------------------------
# injector unit behavior
# ----------------------------------------------------------------------
class TestCrashPointInjector:
    def test_record_mode_counts_without_crashing(self):
        inj = CrashPointInjector()
        inj.hit("save.image.rename.before")
        inj.hit("save.image.rename.before")
        inj.hit("gc.chunk.unlink.after")
        assert inj.points == [
            "save.image.rename.before", "gc.chunk.unlink.after",
        ]
        assert inj.counts["save.image.rename.before"] == 2

    def test_armed_injector_dies_at_its_point(self):
        inj = CrashPointInjector(arm_at="b")
        inj.hit("a")
        with pytest.raises(InjectedCrash):
            inj.hit("b")
        assert inj.dead

    def test_dead_injector_poisons_every_later_operation(self):
        """SIGKILL semantics: after the crash fires, *every* shimmed
        operation raises — ``finally`` blocks cannot tidy up."""
        inj = CrashPointInjector(arm_at="a")
        with pytest.raises(InjectedCrash):
            inj.hit("a")
        with pytest.raises(InjectedCrash):
            inj.hit("completely.different.point")
        inj.resurrect()
        inj.hit("completely.different.point")  # alive again

    def test_occurrence_selects_the_nth_hit(self):
        inj = CrashPointInjector(arm_at="a", occurrence=3)
        inj.hit("a")
        inj.hit("a")
        with pytest.raises(InjectedCrash):
            inj.hit("a")

    def test_shim_consults_installed_injector(self, tmp_path):
        inj = CrashPointInjector(arm_at="save.probe.write.before")
        storeio.set_injector(inj)
        try:
            with pytest.raises(InjectedCrash):
                storeio.write_file(str(tmp_path / "f"), b"x", site="probe")
        finally:
            storeio.set_injector(None)
        assert not (tmp_path / "f").exists()


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------
class TestEnumeration:
    def test_mutation_batch_exposes_the_required_surface(self, tmp_path):
        points = enumerate_crash_points(str(tmp_path))
        # Acceptance: >= 40 distinct named syscall boundaries...
        assert len(points) == len(set(points))
        assert len(points) >= 40
        # ...spanning all four operation contexts...
        contexts = {p.split(".")[0] for p in points}
        assert contexts == {"save", "drain", "gc", "prune"}
        # ...and every before point has its after twin.
        befores = {p[: -len(".before")] for p in points
                   if p.endswith(".before")}
        afters = {p[: -len(".after")] for p in points
                  if p.endswith(".after")}
        assert befores == afters

    def test_points_match_the_recorded_list(self, tmp_path):
        """Point names change only on purpose: after an intended change,
        re-record ``tests/crash_points.txt`` (see ``_CRASH_POINTS``)."""
        recorded = _CRASH_POINTS.read_text().split()
        assert enumerate_crash_points(str(tmp_path)) == recorded

    def test_enumeration_is_deterministic(self, tmp_path):
        a = enumerate_crash_points(str(tmp_path / "a"))
        b = enumerate_crash_points(str(tmp_path / "b"))
        assert a == b

    def test_subset_selection_is_deterministic_and_spread(self, tmp_path):
        points = enumerate_crash_points(str(tmp_path))
        sub = select_subset(points, 12)
        assert len(sub) == 12
        assert sub == select_subset(points, 12)
        assert sub[0] == points[0]
        # The spread reaches past the first context's points.
        assert len({p.split(".")[0] for p in sub}) >= 2
        assert select_subset(points, 10_000) == points


    def test_pooled_drain_names_its_chunk_points_drain(self, tmp_path):
        """Chunk runs fanned out to the save pool keep the saver's
        operation context: a drain's chunk publishes are ``drain.*``."""
        inj = CrashPointInjector()
        store = CheckpointStore(str(tmp_path), io=StoreIO(injector=inj))
        blob = random.Random(5).randbytes(1 << 20)
        pool = ThreadPoolExecutor(2, thread_name_prefix="t-drain-ctx")
        try:
            store.save(_image(0, 1), blob, pool=pool, pin=True,
                       context="drain")
        finally:
            pool.shutdown()
        chunk = [p for p in inj.points if ".chunk." in p]
        assert "drain.chunk.link.before" in chunk
        assert [p for p in chunk if not p.startswith("drain.")] == []


# ----------------------------------------------------------------------
# the sweep: restore-or-repair at every boundary
# ----------------------------------------------------------------------
class TestCrashSweep:
    def test_bounded_sweep_passes(self, tmp_path):
        summary = run_sweep(str(tmp_path), limit=12)
        assert summary["points_total"] >= 40
        assert summary["contexts"] == ["drain", "gc", "prune", "save"]
        assert summary["points_checked"] == 12
        assert summary["ok"], summary["failures"]
        # Every armed point actually crashed the mutation batch.
        assert all(r["crashed"] for r in summary["results"])

    def test_sweep_verdicts_are_deterministic(self, tmp_path):
        one = run_sweep(str(tmp_path / "one"), limit=6)
        two = run_sweep(str(tmp_path / "two"), limit=6)
        assert one["results"] == two["results"]

    @pytest.mark.slow
    def test_exhaustive_sweep_every_syscall_boundary(self, tmp_path):
        """All ~100 points; ``-m 'not slow'`` skips this in quick runs."""
        summary = run_sweep(str(tmp_path))
        assert summary["points_checked"] == summary["points_total"]
        assert summary["ok"], summary["failures"]
