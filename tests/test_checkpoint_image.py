"""Checkpoint image format, manifests, and failure modes."""

import os
import pickle

import numpy as np
import pytest

from repro.mana.checkpoint import FORMAT_VERSION, CheckpointImage, store_for
from repro.mana.drain import DrainBuffer
from repro.mana.virtid import VirtualIdTable
from repro.util.errors import CheckpointError, RestartError


def make_image(rank=0, app=None):
    return CheckpointImage(
        rank=rank,
        nranks=4,
        impl="mpich",
        kind="loop",
        generation=1,
        app=app if app is not None else {"x": np.arange(4.0)},
        loops={"main": 7},
        vid_table=VirtualIdTable(32),
        drain_buffer=DrainBuffer(),
        clock_state={"now": 1.5, "accounts": {}},
        rng_state=None,
        cs_count=123,
        epoch=0,
    )


class TestImageRoundtrip:
    def test_save_load(self, tmp_path):
        store = store_for(str(tmp_path))
        nbytes = store.save_v4(make_image())
        path = store.image_path(1, 0)
        assert nbytes > 0 and os.path.getsize(path) == nbytes
        img = store.load_image(path)
        assert img.rank == 0 and img.loops == {"main": 7}
        assert np.array_equal(img.app["x"], np.arange(4.0))
        assert img.cs_count == 123

    def test_shared_references_preserved(self, tmp_path):
        """A buffer referenced both from app state and a RequestRecord
        must come back as ONE object (single-pickle property)."""
        from repro.mana.records import RequestRecord

        buf = np.zeros(8)
        table = VirtualIdTable(32)
        from repro.mpi.api import HandleKind

        rec = RequestRecord(
            kind="recv", comm_vid=1, peer=0, tag=1, count=8,
            datatype_vid=2, buf=buf,
        )
        table.attach(HandleKind.REQUEST, rec, None)
        image = make_image(app={"mybuf": buf, "extra": 1})
        image.vid_table = table
        store = store_for(str(tmp_path))
        store.save_v4(image)
        img = store.load_image(store.image_path(1, 0))
        restored_rec = next(iter(img.vid_table.entries("request"))).record
        assert restored_rec.buf is img.app["mybuf"]

    def test_unpicklable_app_raises_checkpoint_error(self, tmp_path):
        bad = make_image(app={"fn": lambda: 1})
        with pytest.raises(CheckpointError, match="not serializable"):
            store_for(str(tmp_path)).save_v4(bad)

    def test_missing_image(self, tmp_path):
        with pytest.raises(RestartError, match="no checkpoint image"):
            store_for(str(tmp_path)).load_image(str(tmp_path / "nope.img"))

    def test_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "old.img")
        with open(path, "wb") as f:
            pickle.dump({"format_version": FORMAT_VERSION - 1}, f)
        with pytest.raises(RestartError, match="format"):
            store_for(str(tmp_path)).load_image(path)

    def test_no_tmp_file_left_behind(self, tmp_path):
        store = store_for(str(tmp_path))
        store.save_v4(make_image())
        assert os.listdir(store.generation_dir(1)) == ["rank_00000.img"]


class TestManifest:
    def test_write_read(self, tmp_path):
        store = store_for(str(tmp_path))
        store.write_manifest(
            3, nranks=8, impl="openmpi", kind="loop",
            cold_restartable=True, loop_target=12,
            extra={"vid_design": "new"},
        )
        doc = store.read_manifest(3)
        assert doc["nranks"] == 8 and doc["impl"] == "openmpi"
        assert doc["cold_restartable"] and doc["loop_target"] == 12
        assert doc["extra"]["vid_design"] == "new"

    def test_latest_generation_default(self, tmp_path):
        store = store_for(str(tmp_path))
        for g in (1, 2, 5):
            store.write_manifest(g, nranks=2, impl="mpich", kind="loop",
                                 cold_restartable=True, loop_target=0)
        assert store.read_manifest()["generation"] == 5
        assert store.generations() == [1, 2, 5]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(RestartError):
            store_for(str(tmp_path)).read_manifest()

    def test_paths_layout(self, tmp_path):
        store = store_for(str(tmp_path))
        assert store.generation_dir(7).endswith("ckpt_0007")
        assert store.image_path(7, 3).endswith(
            os.path.join("ckpt_0007", "rank_00003.img")
        )
        assert store.manifest_path(7).endswith(
            os.path.join("ckpt_0007", "manifest.json")
        )

    def test_non_checkpoint_dirs_ignored(self, tmp_path):
        base = str(tmp_path)
        os.makedirs(os.path.join(base, "ckpt_0002"))
        os.makedirs(os.path.join(base, "random_dir"))
        open(os.path.join(base, "ckpt_bogus"), "w").close()
        with pytest.warns(UserWarning) as caught:
            assert store_for(base).generations() == [2]
        warned = " ".join(str(w.message) for w in caught)
        assert "random_dir" in warned and "ckpt_bogus" in warned
