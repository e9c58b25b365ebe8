"""Native event kernel: the simulator substrate compiled from C via cffi.

``kernel.c`` is the event loop and substrate, ``build.py`` compiles and
caches it, and ``driver.py`` (:class:`NativeRunState`) connects it to
the Python temporal prefetchers and substrate objects.
"""

from repro.sim.native.build import KernelUnavailable, kernel, load
from repro.sim.native.driver import NativeRunState

__all__ = ["KernelUnavailable", "NativeRunState", "kernel", "load"]
