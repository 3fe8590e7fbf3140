"""Process settings that make equal work take equal time on this sandbox.

Imported before numpy, by ``run.py`` and by every child it starts.
"""

from __future__ import annotations

import ctypes
import os


def steady_process() -> None:
    """Settings of the measuring process and its children that make equal
    work take equal time on this sandbox (README, steadiness).

    * One BLAS/OpenMP thread (before numpy loads): the box has two cores and
      one client, and a second spinning BLAS thread made identical
      extraction runs differ by a tenth.
    * glibc malloc serves large blocks from the heap and never trims it:
      left alone it maps and unmaps every large array, and page faults in
      this VM are slow and erratic enough to dominate the spread of every
      allocation-heavy op.
    """
    for pool in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(pool, "1")
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return  # not glibc: nothing to pin
    m_trim_threshold, m_mmap_threshold = -1, -3
    libc.mallopt(m_mmap_threshold, 1 << 30)
    libc.mallopt(m_trim_threshold, 1 << 30)
