"""Visual substrate: frames, histograms, shot detection, motion, semaphore,
dust/sand filtering, DVE/replay detection, and the f11..f17 extractor —
one chunked pass over a :class:`FrameStream` with the detectors as array
kernels (see :mod:`repro.video.features`)."""

from repro.video.features import (
    VISUAL_FEATURE_NAMES,
    VisualFeatures,
    extract_visual_features,
)
from repro.video.flyout import DUST_RGB, SAND_RGB, dust_fraction, sand_fraction
from repro.video.frames import (
    CHUNK_FRAMES,
    DEFAULT_FPS,
    DEFAULT_FRAME_SIZE,
    FrameStream,
    channel_planes,
    check_frame,
)
from repro.video.histogram import color_histogram, histogram_difference
from repro.video.motion import frame_difference, motion_histogram, passing_score
from repro.video.replay import DveDetector, ReplaySegmenter, wipe_band_score
from repro.video.semaphore import SemaphoreTracker, red_rectangle, semaphore_score
from repro.video.shots import Shot, ShotDetector

__all__ = [
    "VISUAL_FEATURE_NAMES", "VisualFeatures", "extract_visual_features",
    "DUST_RGB", "SAND_RGB", "dust_fraction", "sand_fraction",
    "CHUNK_FRAMES", "DEFAULT_FPS", "DEFAULT_FRAME_SIZE", "FrameStream",
    "channel_planes", "check_frame",
    "color_histogram", "histogram_difference",
    "frame_difference", "motion_histogram", "passing_score",
    "DveDetector", "ReplaySegmenter", "wipe_band_score",
    "SemaphoreTracker", "red_rectangle", "semaphore_score",
    "Shot", "ShotDetector",
]
