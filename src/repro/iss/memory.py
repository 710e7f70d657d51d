"""Byte-addressable guest memory with memory-mapped I/O regions.

Little-endian, bounds-checked, with word accesses required to be
4-byte aligned.  An :class:`MmioRegion` intercepts loads and stores in
an address window — used by tests and by hardware device models that
expose registers to the guest.
"""

import weakref

from repro.errors import MemoryAccessError
from repro.iss.isa import WORD_MASK


def _release_exported(shm, view):
    """Finalizer for an exported segment (module-level: must not hold
    the Memory alive).  ``SharedMemory.__del__`` refuses to close while
    the exported view exists, so a process that exits without
    ``close_shared()`` would spray ``BufferError`` tracebacks at
    interpreter shutdown without this."""
    view.release()
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


class MmioRegion:
    """A load/store-intercepting address window.

    Subclasses override :meth:`load_word` / :meth:`store_word` (and the
    byte variants when byte access is meaningful).
    """

    def __init__(self, base, size, name="mmio"):
        if base % 4 or size % 4:
            raise MemoryAccessError("MMIO region must be word-aligned")
        self.base = base
        self.size = size
        self.name = name

    def contains(self, address):
        """True when *address* falls inside this window."""
        return self.base <= address < self.base + self.size

    def load_word(self, offset):
        """Word read at *offset*; override in readable regions."""
        raise MemoryAccessError("region %r is not readable" % self.name)

    def store_word(self, offset, value):
        """Word write at *offset*; override in writable regions."""
        raise MemoryAccessError("region %r is not writable" % self.name)

    def load_byte(self, offset):
        """Byte read, derived from the containing word by default."""
        word = self.load_word(offset & ~3)
        return (word >> (8 * (offset & 3))) & 0xFF

    def store_byte(self, offset, value):
        """Byte write; unsupported unless overridden."""
        raise MemoryAccessError("region %r does not support byte stores"
                                % self.name)


class Memory:
    """Flat guest RAM plus registered MMIO regions."""

    def __init__(self, size=1 << 20):
        if size <= 0 or size % 4:
            raise MemoryAccessError("memory size must be a positive multiple of 4")
        self.size = size
        self.data = bytearray(size)
        self.regions = []
        self.load_count = 0
        self.store_count = 0
        self._code_pages = set()        # pages holding decoded code
        self._code_listeners = []       # called with the store address
        self._shm = None                # SharedMemory backing, when exported
        self._shm_finalizer = None
        self._dirty = None              # dirty page indices, when tracked

    # -- shared-memory backing (process-backend parallel execution) ------------

    @property
    def shared(self):
        """True when guest RAM lives in a shared-memory segment."""
        return self._shm is not None

    def export_shared(self):
        """Move guest RAM into a ``multiprocessing.shared_memory`` segment.

        After this, :attr:`data` is a writable memoryview over the
        segment, so a worker process forked afterwards sees every store
        either side makes — the zero-copy guest RAM the process
        parallel backend runs on.  All existing access paths
        (word/byte loads and stores, bulk read/write, snapshot and
        restore) operate on the view unchanged.  Returns the segment
        name.
        """
        if self._shm is not None:
            return self._shm.name
        from multiprocessing import shared_memory
        shm = shared_memory.SharedMemory(create=True, size=self.size)
        shm.buf[:self.size] = self.data
        self._shm = shm
        # The segment may be page-rounded larger than the guest RAM;
        # slice so full-view assignments (snapshot restore) keep their
        # exact-length semantics.
        self.data = shm.buf[:self.size]
        self._shm_finalizer = weakref.finalize(
            self, _release_exported, shm, self.data)
        return shm.name

    def close_shared(self, unlink=True):
        """Detach from (and by default destroy) the shared segment.

        Guest RAM contents are copied back into a private bytearray so
        the Memory stays usable after the parallel backend shuts down.
        """
        if self._shm is None:
            return
        if self._shm_finalizer is not None:
            self._shm_finalizer.detach()
            self._shm_finalizer = None
        shm, self._shm = self._shm, None
        view, self.data = self.data, bytearray(shm.buf[:self.size])
        view.release()   # shm.close() refuses while exports are live
        shm.close()
        if unlink:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    # -- code-page tracking (decode/block cache invalidation) ------------------

    def watch_code(self, address):
        """Mark the page holding *address* as containing decoded code.

        Guest stores into a watched page notify every registered code
        listener so CPUs can invalidate stale decodes and compiled
        blocks (self-modifying code support).  Pages are 256 bytes, so
        a 4-byte-aligned instruction never straddles two pages.
        """
        self._code_pages.add(address >> 8)

    def add_code_listener(self, listener):
        """Register *listener(address)* for stores into watched code."""
        self._code_listeners.append(listener)
        return listener

    def add_region(self, region):
        """Register an MMIO region; it shadows RAM at its addresses."""
        for existing in self.regions:
            if (region.base < existing.base + existing.size
                    and existing.base < region.base + region.size):
                raise MemoryAccessError(
                    "MMIO region %r overlaps %r" % (region.name, existing.name)
                )
        self.regions.append(region)
        return region

    def _find_region(self, address):
        for region in self.regions:
            if region.contains(address):
                return region
        return None

    def _check(self, address, width):
        if not 0 <= address <= self.size - width:
            raise MemoryAccessError(
                "access of %d bytes at 0x%08x outside memory of %d bytes"
                % (width, address, self.size)
            )
        if width == 4 and address % 4:
            raise MemoryAccessError("misaligned word access at 0x%08x" % address)

    # -- word access ---------------------------------------------------------

    def load_word(self, address):
        """Read an aligned 32-bit word (RAM or MMIO)."""
        self._check(address, 4)
        self.load_count += 1
        region = self._find_region(address)
        if region is not None:
            return region.load_word(address - region.base) & WORD_MASK
        return int.from_bytes(self.data[address:address + 4], "little")

    def store_word(self, address, value):
        """Write an aligned 32-bit word (RAM or MMIO)."""
        self._check(address, 4)
        self.store_count += 1
        region = self._find_region(address)
        if region is not None:
            region.store_word(address - region.base, value & WORD_MASK)
            return
        self.data[address:address + 4] = (value & WORD_MASK).to_bytes(4, "little")
        if self._dirty is not None:
            self._dirty.add(address >> 8)
        if self._code_pages and (address >> 8) in self._code_pages:
            for listener in self._code_listeners:
                listener(address)

    # -- byte access ---------------------------------------------------------

    def load_byte(self, address):
        """Read one byte (RAM or MMIO)."""
        self._check(address, 1)
        self.load_count += 1
        region = self._find_region(address)
        if region is not None:
            return region.load_byte(address - region.base) & 0xFF
        return self.data[address]

    def store_byte(self, address, value):
        """Write one byte (RAM or MMIO)."""
        self._check(address, 1)
        self.store_count += 1
        region = self._find_region(address)
        if region is not None:
            region.store_byte(address - region.base, value & 0xFF)
            return
        self.data[address] = value & 0xFF
        if self._dirty is not None:
            self._dirty.add(address >> 8)
        if self._code_pages and (address >> 8) in self._code_pages:
            for listener in self._code_listeners:
                listener(address)

    # -- bulk access (host-side only: loader, GDB stub) -----------------------

    def read_bytes(self, address, length):
        """Host-side bulk read (loader/debugger; no MMIO dispatch)."""
        self._check(address, max(length, 1))
        return bytes(self.data[address:address + length])

    def write_bytes(self, address, payload):
        """Host-side bulk write (loader/debugger; no MMIO dispatch).

        Fires no code listeners: host writers keep decode coherence
        through :meth:`Cpu.invalidate_code` (GDB ``M``/``X``, DMI) or
        :meth:`Cpu.flush_decode_cache` (loader, restore).
        """
        self._check(address, max(len(payload), 1))
        self.data[address:address + len(payload)] = payload
        if self._dirty is not None and payload:
            first = address >> 8
            last = (address + len(payload) - 1) >> 8
            self._dirty.update(range(first, last + 1))

    # -- page snapshots (checkpoint/restore) -----------------------------------

    PAGE_SIZE = 256   # matches the code-page granularity above

    def enable_dirty_tracking(self):
        """Track pages written through this Memory's own store paths.

        A capture-cost optimization only: stores performed by a forked
        process worker happen in another interpreter (only the shared
        bytes propagate), so checkpointing falls back to the full
        nonzero-page scan whenever tracking cannot see every store.
        Returns the live dirty-page set.
        """
        if self._dirty is None:
            self._dirty = set()
        return self._dirty

    def drain_dirty(self):
        """Dirty page indices since the last drain (tracking required)."""
        if self._dirty is None:
            return set()
        dirty, self._dirty = self._dirty, set()
        return dirty

    def snapshot_pages(self):
        """Sparse image of guest RAM: ``{page_index: page_bytes}``.

        All-zero pages are skipped (freshly built systems restore them
        implicitly), so the image size tracks the working set, not the
        address-space size.  Reads :attr:`data` directly — never the
        counted load paths — so taking a snapshot perturbs nothing.
        """
        pages = {}
        step = self.PAGE_SIZE
        data = self.data
        zero = bytes(step)
        for base in range(0, self.size, step):
            chunk = bytes(data[base:base + step])
            if chunk != zero:
                pages[base // step] = chunk
        return pages

    def load_pages(self, pages):
        """Overwrite guest RAM from a :meth:`snapshot_pages` image.

        Pages absent from *pages* are zeroed — the image is the whole
        RAM state, not a patch.
        """
        step = self.PAGE_SIZE
        zero = bytes(step)
        for base in range(0, self.size, step):
            chunk = pages.get(base // step)
            self.data[base:base + step] = chunk if chunk else zero
