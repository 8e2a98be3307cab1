"""Satellite: scenario expansion and execution are fully deterministic.

Two layers of guarantee:

* *Expansion*: the same (family, count, seed, template) always yields
  the same spec list, spec for spec.
* *Execution*: running a family's scenarios with ``workers=4`` produces
  records byte-identical (``RunRecord.canonical_json``) to ``workers=1``
  — the engine's determinism contract extended over the whole zoo,
  including the new non-constant motion profiles.
"""

from __future__ import annotations

import pytest

from repro.engine import BatchRunner
from repro.scenarios import expand_family, family_names

ALL_FAMILIES = family_names()


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_expansion_twice_is_identical(name):
    first = expand_family(name, count=100, seed=7)
    second = expand_family(name, count=100, seed=7)
    assert [s.canonical_json() for s in first] == \
        [s.canonical_json() for s in second]


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_expansion_seed_sensitivity(name):
    a = [s.canonical_json() for s in expand_family(name, count=10, seed=0)]
    b = [s.canonical_json() for s in expand_family(name, count=10, seed=1)]
    assert a != b


def test_composed_expansion_twice_is_identical():
    expr = "fleet_mix*rain*night"
    a = expand_family(expr, count=50, seed=3)
    b = expand_family(expr, count=50, seed=3)
    assert [s.canonical_json() for s in a] == \
        [s.canonical_json() for s in b]


def test_workers_parallel_byte_identical_across_all_families():
    """workers=1 vs workers=4 over two scenarios of *every* family."""
    specs = [spec
             for name in ALL_FAMILIES
             for spec in expand_family(name, count=2, seed=11)]
    serial = BatchRunner(workers=1).run(specs).records
    parallel = BatchRunner(workers=4).run(specs).records
    assert len(serial) == len(specs)
    assert [r.canonical_json() for r in serial] == \
        [r.canonical_json() for r in parallel]


def test_rerun_byte_identical_for_composed_family():
    """A composed family re-run serially reproduces itself exactly."""
    specs = expand_family("variable_speed*fog", count=3, seed=2)
    once = BatchRunner().run(specs).records
    again = BatchRunner().run(specs).records
    assert [r.canonical_json() for r in once] == \
        [r.canonical_json() for r in again]
