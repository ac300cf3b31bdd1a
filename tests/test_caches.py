"""gcwaves holds no cache at module level; each grid owns what is derived
from it.

A module-level cache outlives every grid it serves and, left unbounded,
grows with every grid a long run visits.  Instead a periodic grid holds
its symbols, its carrier grid and carrier waves, and a strip holds the
oracle's work area and the solver pair of the latest period solved on
it.  Nothing either holds refers back to it, so all of it is freed with
the grid, without waiting for the garbage collector.  A cache is found
by its ``cache_clear`` or ``cache_info``, whatever its name.  The
benchmark starts every pass cold by calling ``cache_clear`` on each
module-level attribute of ``gcwaves.*`` whose name ends in ``_cache``,
so a plain function under such a name, for instance ``lru_cache``
imported by name, would make every pass fail.
"""

import functools
import gc
import importlib
import pkgutil
import weakref

import numpy as np

import gcwaves
from gcwaves import ProfilePair, StripGrid, dno
from gcwaves.fieldops import PeriodicGrid

from conftest import BENCH


def _modules():
    return [importlib.import_module(info.name)
            for info in pkgutil.iter_modules(gcwaves.__path__, "gcwaves.")]


def _caches():
    """Names of the module attributes, and of the attributes of classes
    defined in the package, that carry ``cache_clear`` or ``cache_info``."""
    found = []
    for module in _modules():
        for attr, value in vars(module).items():
            owned = [(attr, value)]
            if isinstance(value, type) and value.__module__ == module.__name__:
                owned += [(f"{attr}.{name}", item)
                          for name, item in vars(value).items()]
            found += [f"{module.__name__}.{name}" for name, item in owned
                      if hasattr(item, "cache_clear")
                      or hasattr(item, "cache_info")]
    return found


def test_no_module_holds_a_cache(monkeypatch):
    assert _caches() == []
    # the search sees a cache under any name, at module or class level
    monkeypatch.setattr(dno, "solutions", functools.lru_cache(maxsize=1)(id),
                        raising=False)
    monkeypatch.setattr(dno.StripGrid, "lookup", functools.cache(id),
                        raising=False)
    assert _caches() == ["gcwaves.dno.StripGrid.lookup",
                         "gcwaves.dno.solutions"]


def test_no_module_binds_lru_cache_by_name():
    for module in _modules():
        names = vars(module)
        assert "lru_cache" not in names, module.__name__
        assert not any(value is functools.lru_cache
                       for value in names.values()), module.__name__


def test_a_strip_frees_its_area_and_pair_with_itself():
    strip = StripGrid(nx=64, ny=32, depth_under=10.0)
    g = PeriodicGrid(n=64, period=20.0, k0_multiple=1)
    wave = np.cos(2 * np.pi * g.x / g.period)
    gc.disable()
    try:
        assert dno.eval_L_exact(ProfilePair(g, 0.05 * wave, -0.02 * wave),
                                BENCH, strip) > 0.0
        held = [weakref.ref(obj)
                for obj in (strip, strip.work, *strip.solvers(g.period))]
        del strip
        assert [ref() for ref in held] == [None] * 4
    finally:
        gc.enable()
