"""Every shipped example must run green (they are executable docs)."""

import os
import runpy
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name):
    path = os.path.join(EXAMPLES, name)
    old_argv = sys.argv
    sys.argv = [path]
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart():
    run_example("quickstart.py")


def test_preemptible_job():
    run_example("preemptible_job.py")


def test_choose_your_mpi():
    run_example("choose_your_mpi.py")


def test_cross_impl_restart():
    run_example("cross_impl_restart.py")


def test_interval_checkpointing():
    run_example("interval_checkpointing.py")


def test_vasp_style_workflow():
    run_example("vasp_style_workflow.py")
