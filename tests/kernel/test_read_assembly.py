"""The page readers' result assembly against the copy-out loop it replaced.

A page-cache read (the join of ``PageCache.read_pages``) and
``ReadAheadBuffer.read`` build what they return with one ``b"".join``
over the pages (``join_pages``): whole pages go in as they are and a
partial first or last page as a ``memoryview`` slice. ``copy_out`` below is the assembly they had before — a
``bytearray`` filled by per-page slice assigns, then copied to
``bytes`` — kept as the reference. On any page contents and any
page-unaligned offset and length, both readers must return exactly
the bytes the reference assembles from the same pages, as ``bytes``
that alias no page.
"""

from hypothesis import given, settings, strategies as st

from repro.core import ReadAheadBuffer
from repro.kernel import CpuAccount
from repro.kernel.pagecache import join_pages

from tests.core.test_readahead_property import NPAGES, seeded_world
from tests.kernel.conftest import joined
from tests.kernel.test_pagecache_properties import FILE_BYTES, world


def copy_out(pages, offset: int, length: int, ps: int) -> bytes:
    """The old assembly: ``pages`` maps page index -> page bytes."""
    out = bytearray(length)
    pos = 0
    while pos < length:
        idx, in_page = divmod(offset + pos, ps)
        n = min(ps - in_page, length - pos)
        out[pos : pos + n] = pages[idx][in_page : in_page + n]
        pos += n
    return bytes(out)


@st.composite
def paged_read(draw):
    """Pages of one size as ``bytes`` or ``bytearray``, and a read of at
    least one byte anywhere inside them."""
    ps = draw(st.sampled_from([1, 7, 64]))
    n = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from([bytes, bytearray]))
    pages = [kind(draw(st.binary(min_size=ps, max_size=ps)))
             for _ in range(n)]
    offset = draw(st.integers(min_value=0, max_value=n * ps - 1))
    length = draw(st.integers(min_value=1, max_value=n * ps - offset))
    return ps, pages, offset, length


@given(paged_read())
@settings(max_examples=300, deadline=None)
def test_join_pages_matches_copy_out(case):
    ps, pages, offset, length = case
    first, last = offset // ps, (offset + length - 1) // ps
    before = [bytes(p) for p in pages]
    got = join_pages(pages[first:last + 1], offset - first * ps,
                     offset + length - last * ps)
    assert type(got) is bytes
    assert got == copy_out(dict(enumerate(pages)), offset, length, ps)
    assert [bytes(p) for p in pages] == before  # pages untouched
    for p in pages:
        if isinstance(p, bytearray):
            p[:] = bytes(len(p))  # the cache reuses its pages in place
    assert got == copy_out(dict(enumerate(before)), offset, length, ps)


@st.composite
def cache_reads(draw):
    """Writes over one file, then reads at unaligned offsets/lengths."""
    writes = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=FILE_BYTES - 1),
                  st.integers(min_value=1, max_value=9000),
                  st.integers(min_value=1, max_value=255)),
        min_size=1, max_size=6))
    reads = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=FILE_BYTES - 1),
                  st.integers(min_value=0, max_value=FILE_BYTES)),
        min_size=1, max_size=8))
    return writes, reads, draw(st.booleans())


@given(cache_reads())
@settings(max_examples=40, deadline=None)
def test_pagecache_read_matches_copy_out(case):
    writes, reads, cold = case
    env, dev, cache = world()
    acct = CpuAccount(env, "p")
    ps = cache.page_size

    def driver():
        for off, size, fill in writes:
            size = min(size, FILE_BYTES - off)
            yield from cache.write(1, off, bytes([fill]) * size, acct)
        if cold:  # every read faults its pages back in from the device
            yield from cache.fsync(1, acct)
            cache.drop_all_clean()
        for off, length in reads:
            length = min(length, FILE_BYTES - off)
            got = yield from joined(cache.read_pages(1, off, length, acct))
            pages = {idx: page for (fid, idx), page in cache._pages.items()
                     if fid == 1}
            assert type(got) is bytes
            assert got == copy_out(pages, off, length, ps)

    env.run(until=env.process(driver()))


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=NPAGES * 4096 - 1),
                          st.integers(min_value=0, max_value=NPAGES * 4096)),
                min_size=1, max_size=8),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_readahead_read_matches_copy_out(reads, window):
    env, dev, ring, payload = seeded_world()
    ra = ReadAheadBuffer(ring, base_lba=5, npages=NPAGES,
                         window_pages=window, batch_pages=2)
    acct = CpuAccount(env, "r")
    ps = dev.lba_size

    def driver():
        for off, length in reads:
            length = min(length, len(payload) - off)
            got = yield from ra.read(off, length, acct)
            # the pages the read spanned stay buffered after it returns
            assert type(got) is bytes
            assert got == copy_out(ra._pages, off, length, ps)
            assert got == payload[off:off + length]

    env.run(until=env.process(driver()))
