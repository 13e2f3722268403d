"""Video server nodes."""

from repro.server.node import NodeStats, VideoServerNode

__all__ = ["NodeStats", "VideoServerNode"]
