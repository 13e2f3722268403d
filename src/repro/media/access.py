"""Video access-frequency models (paper §6.1, Figure 8).

Popular titles are requested much more often than unpopular ones; the
paper models this with a Zipfian distribution over video rank,
parameterised by the skew ``z`` (0.5, 1.0, 1.5), with a uniform
distribution as the unskewed baseline.
"""

from __future__ import annotations

from repro.registry import Registry
from repro.sim.rng import DiscreteSampler, RandomSource, zipf_weights


class AccessModel:
    """Base class: selects which video a terminal watches next."""

    def __init__(self, video_count: int) -> None:
        if video_count < 1:
            raise ValueError(f"need at least one video, got {video_count}")
        self.video_count = video_count

    def weights(self) -> list[float]:
        """Per-video selection probabilities (index = popularity rank)."""
        raise NotImplementedError

    def bind(self, rng: RandomSource) -> "BoundAccessModel":
        """Attach a random stream, producing a sampler."""
        return BoundAccessModel(self, rng)


class BoundAccessModel:
    """An access model bound to a random stream."""

    def __init__(self, model: AccessModel, rng: RandomSource) -> None:
        self.model = model
        self._sampler = DiscreteSampler(model.weights(), rng)

    def select(self) -> int:
        """Pick the next video id to watch."""
        return self._sampler.sample()


class ZipfianAccess(AccessModel):
    """Zipfian popularity: ``p(rank) ∝ 1 / rank**z`` (Figure 8)."""

    def __init__(self, video_count: int, skew: float = 1.0) -> None:
        super().__init__(video_count)
        self.skew = float(skew)

    def weights(self) -> list[float]:
        return zipf_weights(self.video_count, self.skew)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ZipfianAccess(n={self.video_count}, z={self.skew})"


class UniformAccess(AccessModel):
    """All titles equally popular."""

    def weights(self) -> list[float]:
        return [1.0 / self.video_count] * self.video_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UniformAccess(n={self.video_count})"


#: ``register_access_model(name, factory)`` makes *name* selectable via
#: ``SpiffiConfig(access_model=name)``; ``factory(video_count, skew)``
#: builds the :class:`AccessModel`.
ACCESS_MODELS = Registry("access model")
register_access_model = ACCESS_MODELS.register
access_model_names = ACCESS_MODELS.names


def make_access_model(name: str, video_count: int, skew: float = 1.0) -> AccessModel:
    """Build a registered access model by name."""
    return ACCESS_MODELS.lookup(name)(video_count, skew)


register_access_model("zipf", lambda count, skew: ZipfianAccess(count, skew))
register_access_model("uniform", lambda count, skew: UniformAccess(count))
