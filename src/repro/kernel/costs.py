"""Calibrated kernel cost constants.

Single source of truth for every CPU-side latency in the traditional
and io_uring paths, in seconds (rates in bytes/second). Values are
rough medians from the literature the paper cites (Didona et al.
SYSTOR'22 on storage API overheads; Ren & Trivedi CHEOPS'23; the I/O
passthru FAST'24 paper) and are deliberately conservative — the
reproduction's claims are about *relative* effects. They are constants,
not settings: no experiment varies them.
"""

from __future__ import annotations

__all__ = [
    "SYSCALL_OVERHEAD", "COPY_BANDWIDTH", "PAGECACHE_PAGE_OP",
    "BIO_SUBMIT_COST", "URING_SQE_PREP", "URING_ENTER_COST",
    "SQPOLL_PICKUP", "CQE_REAP_COST", "copy_time",
]

US = 1e-6
GIB = 1024**3

#: user↔kernel mode switch + register save/restore per syscall
SYSCALL_OVERHEAD = 1.6 * US
#: copy_{from,to}_user bandwidth (write() data copy into the cache)
COPY_BANDWIDTH = 8.0 * GIB
#: CPU time to look up/insert one page in the page cache xarray
PAGECACHE_PAGE_OP = 0.15 * US
#: block-layer request setup (bio alloc, plug, queue insert)
BIO_SUBMIT_COST = 0.7 * US
#: io_uring SQE preparation + ring doorbell from user space
URING_SQE_PREP = 0.10 * US
#: io_uring_enter() syscall when not in SQPOLL mode
URING_ENTER_COST = 1.2 * US
#: SQPOLL kernel-thread pickup latency (poll granularity)
SQPOLL_PICKUP = 1.0 * US
#: CQE reap cost per completion
CQE_REAP_COST = 0.10 * US


def copy_time(nbytes: int) -> float:
    """Time to memcpy ``nbytes`` across the user/kernel boundary."""
    return nbytes / COPY_BANDWIDTH
