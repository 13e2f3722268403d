"""MPEG video model, video library, and access-frequency distributions.

numpy enters ``repro`` here, with OpenBLAS held to one thread: frame
sizes call no BLAS routine, and its idle worker pool cost ~60 ms of
every cold start (DESIGN.md, *Cold start*).  ``OPENBLAS_NUM_THREADS``
is set only around the import; a user's value, or a numpy already
loaded (the import is then a no-op), is left alone.
"""

import os

if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from repro.media.access import (
    AccessModel,
    BoundAccessModel,
    UniformAccess,
    ZipfianAccess,
    access_model_names,
    make_access_model,
    register_access_model,
)
from repro.media.library import VideoLibrary, clear_sequence_cache
from repro.media.mpeg import (
    FRAME_B,
    FRAME_I,
    FRAME_P,
    GOP_PATTERN,
    FrameSequence,
    MpegProfile,
)
from repro.media.video import BlockSchedule, Video

__all__ = [
    "AccessModel",
    "BlockSchedule",
    "BoundAccessModel",
    "FRAME_B",
    "FRAME_I",
    "FRAME_P",
    "FrameSequence",
    "GOP_PATTERN",
    "MpegProfile",
    "UniformAccess",
    "Video",
    "VideoLibrary",
    "ZipfianAccess",
    "access_model_names",
    "clear_sequence_cache",
    "make_access_model",
    "register_access_model",
]
