"""The thread count of the loaded OpenBLAS, read and set through its C API.

The library is found among the shared objects mapped into this process
(`/proc/self/maps`); numpy loads it on import. With another BLAS, or none
found, both calls say so instead."""

import ctypes
import functools

import numpy  # noqa: F401  loads the BLAS before it is looked for

# (get, set) symbol pairs of the OpenBLAS builds numpy ships or links
_SYMBOLS = [(f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
            for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                                   ("openblas_", ""))]


@functools.cache
def _functions():
    """The loaded OpenBLAS's (get, set) thread-count functions, or None."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(dll, get_name, None), getattr(dll, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def threads():
    """Threads the loaded OpenBLAS runs a product on, or None if no
    OpenBLAS is loaded."""
    functions = _functions()
    return None if functions is None else int(functions[0]())


def set_threads(n):
    """Set the loaded OpenBLAS to `n` threads. Returns False if no OpenBLAS
    is loaded."""
    functions = _functions()
    if functions is None:
        return False
    functions[1](n)
    return True
