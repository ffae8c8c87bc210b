"""The NVMe device: command service loop over the FTL.

The device is both a **timing model** (per-page NAND costs, die/channel
contention, GC interference via the FTL) and a **data plane**: it
stores the actual bytes of every written LBA in a sparse page map, so
recovery code reads back exactly what persistence code wrote, byte for
byte, regardless of which kernel path carried the I/O.

FDP vs conventional is a construction-time choice:

* ``fdp=False`` — every write lands in stream 0 whatever its PID, the
  single-stream FTL mixes lifetimes, and GC copies produce WAF > 1.
* ``fdp=True`` — PIDs map 1:1 to FTL streams (up to ``num_pids``,
  8 in the paper's device), giving RU-granular lifetime separation.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Generator

from repro.flash import FlashGeometry, FlashTranslationLayer, FtlConfig, NandTiming
from repro.nvme.commands import DeallocateCmd, NvmeCommand, ReadCmd, WriteCmd
from repro.nvme.pagemap import PageMap
from repro.sim import Environment

__all__ = ["NvmeDevice", "DeviceStats"]

_ZERO_PAGE_CACHE: dict[int, bytes] = {}


def _zero_page(size: int) -> bytes:
    page = _ZERO_PAGE_CACHE.get(size)
    if page is None:
        page = bytes(size)
        _ZERO_PAGE_CACHE[size] = page
    return page


@dataclass
class DeviceStats:
    """Host-visible I/O accounting."""

    read_cmds: int = 0
    write_cmds: int = 0
    deallocate_cmds: int = 0
    pages_read: int = 0
    pages_written: int = 0


class NvmeDevice:
    """One namespace of an (optionally FDP) NVMe SSD."""

    def __init__(
        self,
        env: Environment,
        geometry: FlashGeometry | None = None,
        timing: NandTiming | None = None,
        ftl_config: FtlConfig | None = None,
        fdp: bool = False,
        num_pids: int = 8,
        obs=None,
    ):
        self.env = env
        self.geometry = geometry or FlashGeometry()
        self.fdp = fdp
        self.num_pids = num_pids
        self.ftl = FlashTranslationLayer(
            env, self.geometry, timing, ftl_config, obs=obs
        )
        if fdp:
            for pid in range(num_pids):
                self.ftl.register_stream(pid)
        else:
            self.ftl.register_stream(0)
        #: lba -> stored page; released with the system handle that
        #: built this device (see :mod:`repro.nvme.pagemap`)
        self._data: PageMap = PageMap()
        self.stats = DeviceStats()

    # ------------------------------------------------------------------ capacity
    @property
    def num_lbas(self) -> int:
        """Logical capacity in LBAs (= FTL logical pages)."""
        return self.ftl.num_lpns

    @property
    def lba_size(self) -> int:
        return self.geometry.page_size

    @property
    def capacity_bytes(self) -> int:
        return self.num_lbas * self.lba_size

    @property
    def waf(self) -> float:
        return self.ftl.lifetime.waf()

    def _check_extent(self, lba: int, nlb: int) -> None:
        self._data.check()
        if lba < 0 or lba + nlb > self.num_lbas:
            raise ValueError(
                f"extent [{lba}, {lba + nlb}) outside namespace of {self.num_lbas} LBAs"
            )

    def _stream_for_pid(self, pid: int) -> int:
        if not self.fdp:
            return 0
        if pid >= self.num_pids:
            # NVMe behaviour: out-of-range placement handles fall back
            # to default placement (stream 0) rather than erroring.
            return 0
        return pid

    # ------------------------------------------------------------------ service
    def submit(self, cmd: NvmeCommand) -> Generator:
        """Service one command; a generator for process composition.

        Pages within a command are issued concurrently (the device has
        internal parallelism); the command completes when its last page
        completes — like a real controller's completion semantics.
        """
        if isinstance(cmd, WriteCmd):
            yield from self._do_write(cmd)
        elif isinstance(cmd, ReadCmd):
            data = yield from self._do_read(cmd)
            return data
        elif isinstance(cmd, DeallocateCmd):
            self._check_extent(cmd.lba, cmd.nlb)
            self.ftl.deallocate(cmd.lba, cmd.nlb)
            for lba in range(cmd.lba, cmd.lba + cmd.nlb):
                self._data.pop(lba, None)
            self.stats.deallocate_cmds += 1
        else:
            raise TypeError(f"unknown command {cmd!r}")

    def _do_write(self, cmd: WriteCmd) -> Generator:
        self._check_extent(cmd.lba, cmd.nlb)
        page = self.lba_size
        stream = self._stream_for_pid(cmd.pid)
        if cmd.data is None:
            zero = _zero_page(page)
            for i in range(cmd.nlb):
                self._data[cmd.lba + i] = zero
        else:
            if len(cmd.data) != cmd.nlb:
                raise ValueError(
                    f"{len(cmd.data)} data pages for nlb {cmd.nlb}"
                )
            for i, data in enumerate(cmd.data):
                if type(data) is not bytes or len(data) != page:
                    raise ValueError(
                        f"data page {i} is not {page} immutable bytes"
                    )
                self._data[cmd.lba + i] = data
        yield from self.ftl.write_burst(cmd.lba, cmd.nlb, stream)
        self.stats.write_cmds += 1
        self.stats.pages_written += cmd.nlb

    def _do_read(self, cmd: ReadCmd) -> Generator:
        self._check_extent(cmd.lba, cmd.nlb)
        yield from self.ftl.read_burst(cmd.lba, cmd.nlb)
        self.stats.read_cmds += 1
        self.stats.pages_read += cmd.nlb
        return self.pages(cmd.lba, cmd.nlb)

    # ------------------------------------------------------------------ data plane
    def pages(self, lba: int, nlb: int = 1) -> list[bytes]:
        """Zero-time access to the stored page objects of an extent (a
        never-written page reads as the shared zero page). The pages
        are the device's own immutable objects, not copies; this is
        what a read command completes with."""
        self._check_extent(lba, nlb)
        zero = _zero_page(self.lba_size)
        get = self._data.get
        return [get(i, zero) for i in range(lba, lba + nlb)]

    def peek(self, lba: int, nlb: int = 1) -> bytes:
        """Zero-time read of stored bytes, joined (for assertions and
        recovery result construction; timing must be paid via
        ``submit``)."""
        return b"".join(self.pages(lba, nlb))

    def written_lbas(self, lba: int = 0, nlb: int | None = None) -> int:
        """How many LBAs of ``[lba, lba + nlb)`` (default: the whole
        namespace) hold written data."""
        self._data.check()
        if lba == 0 and nlb is None:
            return len(self._data)
        hi = self.num_lbas if nlb is None else lba + nlb
        return sum(1 for i in self._data if lba <= i < hi)

    def poke(self, lba: int, pages: list[bytes]) -> None:
        """Zero-time write of stored page objects.

        This is the data-plane dual of :meth:`pages`: it updates the
        sparse page map without paying NAND timing or touching the FTL
        mapping. Fault injection uses it to materialize the pages of a
        torn command that survived a power cut. An all-zero page is
        stored as "never written" (dropped from the map), matching what
        a post-crash read would observe either way.
        """
        page = self.lba_size
        self._check_extent(lba, len(pages))
        zero = _zero_page(page)
        for i, data in enumerate(pages):
            if type(data) is not bytes or len(data) != page:
                raise ValueError(f"poke page {i} is not {page} immutable bytes")
            if data == zero:
                self._data.pop(lba + i, None)
            else:
                self._data[lba + i] = data

    def image(self) -> dict[int, bytes]:
        """Snapshot of the persisted data plane: {lba: page bytes}.

        This is exactly what survives a power cut — the durable state a
        crash harness reboots from.
        """
        self._data.check()
        return dict(self._data)

    def load_image(self, image: dict[int, bytes]) -> None:
        """Load a persisted image (from :meth:`image`) onto this device.

        Only the data plane is transplanted; the FTL starts cold, as a
        real drive's L2P rebuild is invisible to the host. Used by crash
        harnesses to boot a fresh simulation on a surviving image.
        """
        self._data.check()
        page = self.lba_size
        for lba, data in image.items():
            if len(data) != page:
                raise ValueError(f"image page at lba {lba} has {len(data)} bytes")
            self._check_extent(lba, 1)
        self._data.update(image)
