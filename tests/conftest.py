"""Shared pytest hooks.

Every run names the BLAS kernel and thread count, since the last bits of
the pinned reports follow the OpenBLAS kernel that numpy picks for the CPU:
in the header, or, under -q, which hides the header, at the end.
"""

import ctypes
import os
import pathlib


def _openblas_corename() -> str:
    """The OpenBLAS kernel of numpy's bundled library, or 'unknown'."""
    try:
        import numpy

        libs = pathlib.Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
        for path in sorted(libs.glob("*openblas*")):
            corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    except Exception:  # a header line must never fail the run
        pass
    return "unknown"


def _blas_line() -> str:
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"blas: OpenBLAS core {_openblas_corename()}, OPENBLAS_NUM_THREADS={threads}"


def pytest_report_header(config):
    return _blas_line()


def pytest_terminal_summary(terminalreporter):
    if terminalreporter.verbosity < 0:
        terminalreporter.write_line(_blas_line())
