"""Every shipped example must run green (they are executable docs), and
leave nothing behind in the temp dir."""

import os
import runpy
import sys
import tempfile

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


@pytest.fixture
def run_example(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    def run(name):
        path = os.path.join(EXAMPLES, name)
        monkeypatch.setattr(sys, "argv", [path])
        runpy.run_path(path, run_name="__main__")
        assert os.listdir(tmp_path) == []

    return run


def test_quickstart(run_example):
    run_example("quickstart.py")


def test_preemptible_job(run_example):
    run_example("preemptible_job.py")


def test_choose_your_mpi(run_example):
    run_example("choose_your_mpi.py")


def test_cross_impl_restart(run_example):
    run_example("cross_impl_restart.py")


def test_interval_checkpointing(run_example):
    run_example("interval_checkpointing.py")


def test_vasp_style_workflow(run_example):
    run_example("vasp_style_workflow.py")
