import importlib
import pkgutil

import pytest

import tau_forge


def _package_caches():
    """Every ``functools.cache`` bound at module level in the package: the
    spin-indexed builds (V_j, embeddings, T^(j), vertex components and their
    twisted-dual solves) and the presentations they are built over."""
    found = {}
    for info in pkgutil.iter_modules(tau_forge.__path__):
        module = importlib.import_module(f"tau_forge.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


# collected once, so a test that monkeypatches a cached function cannot hide
# the original from the clearing
PACKAGE_CACHES = _package_caches()


@pytest.fixture
def fresh_caches():
    """Empty every package cache before the test and again after it, so a
    build cached by an earlier test cannot hide a mutant and a build made
    under a mutant cannot leak into a later test."""
    for cached in PACKAGE_CACHES:
        cached.cache_clear()
    yield
    for cached in PACKAGE_CACHES:
        cached.cache_clear()
