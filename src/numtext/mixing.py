"""Temperature-scaled mixture planning and deterministic multitask sampling.

A dataset's unnormalized rate is ``min(length * scale, cap) ** (1/T)``
(no cap means +inf, so the uncapped case is the plain power law);
normalizing the rates gives the sampling ratios. T=1 reproduces
examples-proportional mixing and large T approaches uniform. Rates are
computed relative to the largest capped size before exponentiation, which
keeps tiny temperatures finite and makes common scale factors cancel.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Container, Iterator, Mapping, Sequence

from .errors import ConfigError, StreamError
from .seeding import derive_seed


@dataclass(frozen=True)
class DatasetStat:
    """Size and weighting knobs for one dataset in the mix."""

    name: str
    length: int
    scale: float = 1.0
    cap: float | None = None

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise ConfigError(f"dataset {self.name!r}: scale must be a finite number > 0")
        if not 1 <= self.length <= sys.float_info.max / self.scale:
            raise ConfigError(f"dataset {self.name!r}: length must be >= 1 and length * scale finite")
        if self.cap is not None and not 0 < self.cap < math.inf:
            raise ConfigError(f"dataset {self.name!r}: cap must be a finite number > 0")

    @property
    def capped_size(self) -> float:
        size = self.length * self.scale
        return min(size, self.cap) if self.cap is not None else size


@dataclass(frozen=True)
class MixEntry:
    name: str
    length: int
    scale: float
    cap: float | None
    rate: float  # relative to the largest capped size (largest dataset: 1.0)
    ratio: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "length": self.length,
            "scale": self.scale,
            "cap": self.cap,
            "r": self.rate,
            "p": self.ratio,
        }


@dataclass(frozen=True)
class MixturePlan:
    temperature: float
    entries: tuple[MixEntry, ...]

    @property
    def ratios(self) -> dict[str, float]:
        return {entry.name: entry.ratio for entry in self.entries}

    def to_json(self) -> dict:
        return {"T": self.temperature, "datasets": [entry.to_json() for entry in self.entries]}


def compute_plan(stats: Sequence[DatasetStat], temperature: float) -> MixturePlan:
    """Compute normalized sampling ratios for the given temperature."""
    if not stats:
        raise ConfigError("need at least one dataset")
    if not 0 < temperature < math.inf:
        raise ConfigError("temperature must be a finite number > 0")
    names = [stat.name for stat in stats]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate dataset names: {names}")

    sizes = [stat.capped_size for stat in stats]
    largest = max(sizes)
    rates = [(size / largest) ** (1.0 / temperature) for size in sizes]
    if any(rate == 0.0 for rate in rates):
        raise ConfigError("temperature too small: a mixing rate underflowed to zero")
    total = sum(rates)
    entries = tuple(
        MixEntry(stat.name, stat.length, stat.scale, stat.cap, rate, rate / total)
        for stat, rate in zip(stats, rates)
    )
    return MixturePlan(temperature, entries)


def _epochs(items: Sequence, rng: random.Random, name: str, allow_repeats: bool) -> Iterator:
    """Walk one dataset in epoch-shuffled order: a full random permutation
    is consumed before any item repeats. The permutation is an 8-byte-per-item
    array, so a walk over offset-indexed records stays small."""
    if not items:
        raise StreamError(f"dataset {name!r} is empty")
    while True:
        order = array("q", range(len(items)))
        rng.shuffle(order)
        yield from map(items.__getitem__, reversed(order))
        if not allow_repeats:
            raise StreamError(f"dataset {name!r} exhausted with repeats disabled")


def sample_stream(
    plan: MixturePlan,
    sources: Mapping[str, Sequence],
    total: int,
    seed: int = 0,
    allow_repeats: bool = True,
) -> Iterator:
    """Draw ``total`` examples, dataset chosen i.i.d. from the plan's ratios.

    Deterministic per seed: dataset selection uses one derived stream and
    each dataset's shuffle another, so the output is independent of how
    the sources were produced.
    """
    check_sample(plan, sources, total)
    return _sample_stream(plan, sources, total, seed, allow_repeats)


def check_sample(plan: MixturePlan, names: Container[str], total: int) -> None:
    """Raise ConfigError unless ``total`` >= 1 and ``names`` holds every dataset of ``plan``."""
    if total < 1:
        raise ConfigError("total must be >= 1")
    missing = [entry.name for entry in plan.entries if entry.name not in names]
    if missing:
        raise ConfigError(f"no source for datasets: {missing}")


def _sample_stream(plan, sources, total, seed, allow_repeats) -> Iterator:
    select_rng = random.Random(derive_seed(seed, "mix", "select"))
    walks = [
        _epochs(
            sources[entry.name],
            random.Random(derive_seed(seed, "mix", "shuffle", entry.name)),
            entry.name,
            allow_repeats,
        )
        for entry in plan.entries
    ]
    cumulative = list(accumulate(entry.ratio for entry in plan.entries))

    for _ in range(total):
        pick = bisect_right(cumulative, select_rng.random())
        pick = min(pick, len(walks) - 1)  # guard the p-sum rounding edge
        yield next(walks[pick])
