"""Every test starts and ends with an empty memo of real-axis roots.

``eigsearch._lattice_roots`` keeps the x roots of past scans; a test that
monkeypatches the kernel under it must not read roots of the real kernel,
and must not leave roots of its patched one to the tests after it.
"""

import pytest

from schifferlab import eigsearch


@pytest.fixture(autouse=True)
def _empty_root_memo():
    eigsearch._lattice_roots.cache_clear()
    yield
    eigsearch._lattice_roots.cache_clear()
