"""Run a block of test code with numpy importable or hidden.

The simulator never imports numpy; :func:`repro.multicast_cc.population.
active_backend` only reports whether it could (``"numpy"``) or could not
(``"fallback"``), and benchmark records keep that probe.  The byte-identity
suites run each case under both settings, so a simulation path that starts
to need numpy — or to behave differently when it is loaded — fails its
``[...-fallback]`` case instead of only failing on a machine without numpy.
"""

import contextlib
import sys

import pytest

from repro.multicast_cc.population import active_backend

#: The two settings, named after what :func:`active_backend` reports in each.
BACKENDS = ("numpy", "fallback")

_ABSENT = object()


@contextlib.contextmanager
def numpy_visibility(backend: str):
    """Run the body with numpy loaded (``"numpy"``) or unimportable
    (``"fallback"``: ``import numpy`` raises ``ImportError``)."""
    if backend == "numpy":
        pytest.importorskip("numpy")
        assert active_backend() == "numpy"
        yield
        return
    if backend != "fallback":
        raise ValueError(f"unknown backend {backend!r}")
    saved = sys.modules.get("numpy", _ABSENT)
    sys.modules["numpy"] = None
    try:
        assert active_backend() == "fallback"
        yield
    finally:
        if saved is _ABSENT:
            del sys.modules["numpy"]
        else:
            sys.modules["numpy"] = saved
