"""Marshalling buffers (Sec. 2.1).

"To support passing data between the enclave and the application, a
marshalling buffer in the application's address space is allocated from
normal memory, and is shared with the enclave. The mappings of the
marshalling buffer are fixed during the entire enclave life cycle."

A :class:`MarshallingBuffer` describes one such channel: a GVA window
(identical in the app's and the enclave's address spaces, which keeps
pointers exchanged through it meaningful) backed by untrusted physical
frames.  The descriptor is immutable — fixity of the mapping is a
security property, so the model makes it unrepresentable to change.
"""

from dataclasses import dataclass

from repro.errors import HypervisorError


@dataclass(frozen=True)
class MarshallingBuffer:
    """An immutable marshalling-buffer descriptor.

    ``va_base``/``size`` — the shared GVA window;
    ``pa_base`` — backing physical base address in *untrusted* memory.
    """

    va_base: int
    pa_base: int
    size: int

    def __post_init__(self):
        if self.size <= 0:
            raise HypervisorError("marshalling buffer must be non-empty")

    @property
    def va_end(self):
        return self.va_base + self.size

    @property
    def pa_end(self):
        return self.pa_base + self.size

    def contains_va(self, va):
        return self.va_base <= va < self.va_end

    def contains_pa(self, pa):
        return self.pa_base <= pa < self.pa_end

    def pages(self, config):
        """(va, pa) page pairs covering the buffer."""
        if self.va_base % config.page_size or self.pa_base % config.page_size:
            raise HypervisorError("marshalling buffer must be page-aligned")
        pairs = []
        for offset in range(0, self.size, config.page_size):
            pairs.append((self.va_base + offset, self.pa_base + offset))
        return pairs

    def overlaps_va(self, base, size):
        return self.va_base < base + size and base < self.va_end
