"""The video library: the catalog of titles stored on the server.

The paper's library holds 4 one-hour videos per disk; each video's frame
sequence is fixed across plays.  The process holds one compact copy of
each title's derived data: frame sequences are memoised process-wide,
and each sequence memoises its block schedules, so every probe of a
search and every system of a sweep reuses the same typed per-block
tables instead of rebuilding them.  No per-frame data is kept: a title
is generated once, at the library's block size, and reduced to its
tables on the spot.
"""

from __future__ import annotations

from repro.media.mpeg import FrameSequence, FrameWorkspace, MpegProfile
from repro.media.video import Video

_SEQUENCE_CACHE: dict[tuple, FrameSequence] = {}


def _sequence(
    profile: MpegProfile,
    duration_s: float,
    seed: int,
    block_size: int,
    workspace: FrameWorkspace,
) -> FrameSequence:
    # MpegProfile is a frozen dataclass, so the whole profile is a
    # safe cache key — every field that shapes the stream participates.
    # The block size is not: a memoised sequence schedules another size
    # on demand (see Video.schedule).
    key = (profile, float(duration_s), seed)
    sequence = _SEQUENCE_CACHE.get(key)
    if sequence is None:
        sequence = FrameSequence(profile, duration_s, seed, block_size, workspace)
        _SEQUENCE_CACHE[key] = sequence
    return sequence


def clear_sequence_cache() -> None:
    """Drop memoised frame sequences and their block schedules.

    Emptying each sequence's schedule memo breaks the schedule ->
    sequence -> memo cycle, so both are freed as soon as no library or
    system holds them, without waiting for a garbage collection.
    """
    for sequence in _SEQUENCE_CACHE.values():
        sequence.schedules.clear()
    _SEQUENCE_CACHE.clear()


class VideoLibrary:
    """All titles available on the video server, ordered by popularity.

    Video 0 is the most popular title (rank 1 of the Zipfian
    distribution), video 1 the next, and so on.

    With ``search_speedup`` set, the library also stores "a completely
    separate version of each movie ... for supporting rewind and
    fast-forward searches" (paper §8.1): a condensed copy holding
    1/speedup of each title's content, striped like any other video.
    Search copies occupy ids ``title_count .. 2*title_count-1``.

    Every title, search copies included, is scheduled at *block_size*
    (the system's stripe size) as it is generated.
    """

    def __init__(
        self,
        video_count: int,
        duration_s: float,
        block_size: int,
        profile: MpegProfile | None = None,
        seed: int = 0,
        search_speedup: int | None = None,
    ) -> None:
        if video_count < 1:
            raise ValueError(f"need at least one video, got {video_count}")
        if search_speedup is not None and search_speedup < 2:
            raise ValueError(
                f"search_speedup must be >= 2, got {search_speedup}"
            )
        self.profile = profile or MpegProfile()
        self.duration_s = float(duration_s)
        self.seed = seed
        self.title_count = video_count
        self.search_speedup = search_speedup
        workspace = FrameWorkspace()
        self.videos = [
            Video(
                i,
                _sequence(
                    self.profile, duration_s, seed * 1_000_003 + i, block_size, workspace
                ),
            )
            for i in range(video_count)
        ]
        if search_speedup is not None:
            search_duration = max(duration_s / search_speedup, 1.0)
            self.videos.extend(
                Video(
                    video_count + i,
                    _sequence(
                        self.profile,
                        search_duration,
                        seed * 1_000_003 + video_count + i,
                        block_size,
                        workspace,
                    ),
                )
                for i in range(video_count)
            )

    @property
    def has_search_versions(self) -> bool:
        return self.search_speedup is not None

    def search_version_of(self, title_id: int) -> int:
        """Video id of a title's condensed search copy."""
        if not self.has_search_versions:
            raise ValueError("library was built without search versions")
        if not 0 <= title_id < self.title_count:
            raise ValueError(f"title {title_id} outside 0..{self.title_count - 1}")
        return self.title_count + title_id

    def __len__(self) -> int:
        return len(self.videos)

    def __getitem__(self, video_id: int) -> Video:
        return self.videos[video_id]

    def __iter__(self):
        return iter(self.videos)

    @property
    def total_bytes(self) -> int:
        return sum(video.total_bytes for video in self.videos)
