"""Module-level caches can be emptied and stay bounded.

The benchmark starts every pass cold by calling ``cache_clear`` on each
module-level attribute of ``gcwaves.*`` whose name ends in ``_cache``.
A plain function under such a name, for instance ``lru_cache`` imported
by name, would make every pass fail, and an unbounded cache would grow
with every grid a long run visits.  The oracle's solver pair is the one
such cache, and the work area its solves run in is held by the pair and
freed with it; what is derived from a periodic grid (its symbols, its
carrier grid and carrier waves) is held by the grid and freed with it.
"""

import functools
import importlib
import pkgutil

import gcwaves


def _modules():
    return [importlib.import_module(info.name)
            for info in pkgutil.iter_modules(gcwaves.__path__, "gcwaves.")]


def test_every_named_cache_can_be_emptied_and_is_bounded():
    caches = {}
    for module in _modules():
        for attr, value in vars(module).items():
            if attr.endswith("_cache"):
                caches[f"{module.__name__}.{attr}"] = value
    assert set(caches) == {"gcwaves.dno._solver_cache"}
    for name, value in caches.items():
        assert hasattr(value, "cache_clear"), name
        assert value.cache_info().maxsize is not None, name


def test_no_module_binds_lru_cache_by_name():
    for module in _modules():
        names = vars(module)
        assert "lru_cache" not in names, module.__name__
        assert not any(value is functools.lru_cache
                       for value in names.values()), module.__name__
