"""Harness-layer tests: case runner, cache, renderers."""

import pytest

from repro.harness.experiments import _case_label
from repro.harness.report import render_bar_figure, render_table
from repro.harness.runner import CaseCache, run_case, scaled_spec
from repro.util.errors import IncompatibleHandleError, ReproError


class TestRenderers:
    def test_table_alignment(self):
        text = render_table(
            "T", ("a", "long header"), [("x", 1), ("yy", 22)], note="n"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long header" in lines[2]
        assert lines[-1] == "n"
        # all data rows equal width
        widths = {len(l) for l in lines[2:6]}
        assert len(widths) <= 2  # header + rows share column layout

    def test_table_empty_rows(self):
        text = render_table("T", ("a",), [])
        assert "a" in text

    def test_bar_figure_normalization(self):
        text = render_bar_figure(
            "F", ["g"], ["base", "double"],
            {"g": {"base": 10.0, "double": 20.0}},
            normalize_to="base",
        )
        assert "(1.00x)" in text and "(2.00x)" in text

    def test_bar_figure_none_is_na(self):
        text = render_bar_figure(
            "F", ["g"], ["works", "broken"],
            {"g": {"works": 5.0, "broken": None}},
        )
        assert "n/a" in text


class TestScaledSpec:
    def test_blocks_scaled(self):
        full = scaled_spec("lammps", "discovery", 1.0, None)
        small = scaled_spec("lammps", "discovery", 0.1, None)
        assert small.blocks == max(4, round(full.blocks * 0.1))
        assert small.steps_per_block == full.steps_per_block  # K untouched

    def test_ranks_capped(self):
        spec = scaled_spec("lammps", "discovery", 1.0, 8)
        assert spec.nranks == 8

    def test_ranks_not_raised_by_cap(self):
        spec = scaled_spec("comd", "discovery", 1.0, 1000)
        assert spec.nranks == 27

    def test_minimum_blocks(self):
        spec = scaled_spec("comd", "discovery", 0.0001, 4)
        assert spec.blocks >= 4


class TestRunCase:
    def test_basic_case_result(self):
        r = run_case("lulesh", "mpich", False, scale=0.05, ranks_cap=4)
        assert r.status == "completed"
        assert r.runtime > 0
        assert r.total_cs == 0          # native
        assert _case_label(r.impl, r.mana, r.vid_design) == "native/mpich"

    def test_mana_case_counts_crossings(self):
        r = run_case("lulesh", "mpich", True, scale=0.05, ranks_cap=4)
        assert r.total_cs > 0
        assert _case_label(r.impl, r.mana, r.vid_design) == "mana+vid/mpich"
        legacy = run_case(
            "lulesh", "mpich", True, "legacy", scale=0.05, ranks_cap=4
        )
        assert _case_label(
            legacy.impl, legacy.mana, legacy.vid_design
        ) == "mana/mpich"

    def test_overhead_vs(self):
        nat = run_case("lulesh", "mpich", False, scale=0.05, ranks_cap=4)
        man = run_case("lulesh", "mpich", True, scale=0.05, ranks_cap=4)
        assert man.overhead_vs(nat) > 0

    def test_legacy_on_openmpi_raises_typed_error(self):
        with pytest.raises(IncompatibleHandleError):
            run_case("lulesh", "openmpi", True, "legacy",
                     scale=0.05, ranks_cap=4)

    def test_unknown_app(self):
        with pytest.raises(KeyError):
            run_case("nope", "mpich", False)


class TestCaseCache:
    def test_memoizes(self):
        cache = CaseCache()
        kw = dict(app_name="lulesh", impl="mpich", mana=False,
                  vid_design="new", platform="discovery", scale=0.05,
                  ranks_cap=4)
        a = cache.get(**kw)
        b = cache.get(**kw)
        assert a is b

    def test_distinct_keys(self):
        cache = CaseCache()
        kw = dict(app_name="lulesh", impl="mpich", vid_design="new",
                  platform="discovery", scale=0.05, ranks_cap=4)
        a = cache.get(mana=False, **kw)
        b = cache.get(mana=True, **kw)
        assert a is not b
