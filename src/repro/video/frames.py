"""Video frame containers.

Frames are ``(height, width, 3)`` uint8 RGB numpy arrays. The paper digitized
PAL video at quarter resolution (384x288); the synthetic races render at a
configurable size (default 192x144 at 10 fps) and every detector is
resolution-independent.

:class:`FrameStream` wraps a frame source so long races never need to be
materialized in memory. Its unit of delivery is the **chunk**:
:meth:`FrameStream.chunks` yields ``(start, frames)`` with ``frames`` a
freshly allocated ``uint8[c, height, width, 3]`` array holding frames
``start .. start + c`` (``c == CHUNK_FRAMES`` except for the last chunk),
so array kernels run over many frames at once (on the chunk's
:func:`channel_planes`) while memory stays bounded by the chunk, not the
race. Every frame is validated on its way into a chunk
(shape, dtype/range, the stream's declared size) and the promised frame
count is enforced; iterating a stream frame by frame walks the same chunks.
A consumer may keep a chunk (or a view of it) — the stream never writes to
a chunk it has handed out.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from repro.errors import SignalError

__all__ = [
    "FrameStream",
    "check_frame",
    "channel_planes",
    "CHUNK_FRAMES",
    "DEFAULT_FRAME_SIZE",
    "DEFAULT_FPS",
]

#: (height, width) of synthesized frames.
DEFAULT_FRAME_SIZE = (144, 192)
#: Synthetic frame rate; chosen to equal the 10 Hz evidence rate so one
#: frame maps to one clip.
DEFAULT_FPS = 10.0
#: Frames per chunk. Large enough that per-chunk Python overhead vanishes,
#: small enough that a chunk and its int16 difference stay a few MB.
CHUNK_FRAMES = 32


def check_frame(frame: np.ndarray) -> np.ndarray:
    """Validate an RGB frame and return it as uint8."""
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise SignalError(f"frame must be (H, W, 3), got {frame.shape}")
    if frame.dtype != np.uint8:
        if frame.min() < 0 or frame.max() > 255:
            raise SignalError("frame values outside [0, 255]")
        frame = frame.astype(np.uint8)
    return frame


def channel_planes(frames: np.ndarray) -> np.ndarray:
    """De-interleave a ``uint8[c, H, W, 3]`` chunk into ``uint8[3, c, H, W]``.

    The chunk kernels filter and subtract one color channel at a time; on
    contiguous planes those are straight vector loops, which one copy of
    the chunk buys back several times over.
    """
    return np.ascontiguousarray(np.moveaxis(frames, -1, 0))


class FrameStream:
    """A lazily evaluated frame sequence with known rate, length and size.

    Args:
        source: factory returning a fresh frame iterator — a factory rather
            than an iterator so the stream is re-playable (several detectors
            can each make a full pass).
        fps: frames per second.
        n_frames: total frame count.
        height: frame height in pixels; every frame must have it.
        width: frame width in pixels.
    """

    def __init__(
        self,
        source: Callable[[], Iterable[np.ndarray]],
        fps: float,
        n_frames: int,
        height: int,
        width: int,
    ):
        if fps <= 0:
            raise SignalError(f"fps must be positive, got {fps}")
        if n_frames < 1:
            raise SignalError("stream needs at least one frame")
        if height < 1 or width < 1:
            raise SignalError(f"frame size must be positive, got {height}x{width}")
        self._source = source
        self.fps = fps
        self.n_frames = n_frames
        self.height = height
        self.width = width

    @property
    def duration(self) -> float:
        return self.n_frames / self.fps

    def __len__(self) -> int:
        return self.n_frames

    def chunks(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(start, uint8[c, height, width, 3])`` over the stream."""
        shape = (self.height, self.width, 3)
        buffer = None
        start = filled = 0
        for frame in self._source():
            frame = check_frame(frame)
            if frame.shape != shape:
                raise SignalError(
                    f"frames differ in shape: stream is {shape}, "
                    f"frame {start + filled} is {frame.shape}"
                )
            if start + filled == self.n_frames:
                raise SignalError(
                    f"stream promised {self.n_frames} frames but produced more"
                )
            if buffer is None:
                buffer = np.empty((min(CHUNK_FRAMES, self.n_frames - start), *shape), np.uint8)
            buffer[filled] = frame
            filled += 1
            if filled == buffer.shape[0]:
                yield start, buffer
                start, filled, buffer = start + filled, 0, None
        if filled:
            yield start, buffer[:filled]
        if start + filled != self.n_frames:
            raise SignalError(
                f"stream promised {self.n_frames} frames but produced {start + filled}"
            )

    def __iter__(self) -> Iterator[np.ndarray]:
        for _, frames in self.chunks():
            yield from frames

    def materialize(self) -> list[np.ndarray]:
        """Collect all frames (tests and short clips only)."""
        return list(self)

    @staticmethod
    def from_frames(frames: list[np.ndarray], fps: float) -> "FrameStream":
        checked = [check_frame(f) for f in frames]
        if not checked:
            raise SignalError("stream needs at least one frame")
        height, width = checked[0].shape[:2]
        return FrameStream(lambda: iter(checked), fps, len(checked), height, width)
