"""CUDA stream model: a FIFO queue of kernels inside a context."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.gpu.kernel import KernelInstance


class Stream:
    """A FIFO of kernels; only the head kernel of a stream can execute."""

    def __init__(self, stream_id: int, context_id: int):
        self.stream_id = stream_id
        self.context_id = context_id
        self._queue: Deque[KernelInstance] = deque()

    @property
    def depth(self) -> int:
        """Number of kernels currently enqueued (including the running head)."""
        return len(self._queue)

    @property
    def is_idle(self) -> bool:
        """True when no kernel is enqueued or running on this stream."""
        return not self._queue

    @property
    def head(self) -> Optional[KernelInstance]:
        """The kernel at the front of the queue, if any."""
        return self._queue[0] if self._queue else None

    def push(self, kernel: KernelInstance) -> bool:
        """Append a kernel; returns True when it became the stream head."""
        self._queue.append(kernel)
        return len(self._queue) == 1

    def drop_callbacks(self) -> None:
        """Forget the completion callback of every enqueued kernel."""
        for kernel in self._queue:
            kernel.on_complete = None

    def pop_head(self) -> KernelInstance:
        """Remove and return the head kernel (after it completed)."""
        if not self._queue:
            raise RuntimeError(f"stream {self.stream_id} is empty")
        return self._queue.popleft()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stream(id={self.stream_id}, ctx={self.context_id}, depth={self.depth})"
