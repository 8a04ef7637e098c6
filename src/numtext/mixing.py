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
from itertools import accumulate
from typing import Container, Iterator, Mapping, NamedTuple, Sequence

from .corpus import is_json_number
from .errors import ConfigError, StreamError
from .seeding import derive_seed


def check_stats(rows) -> list[dict]:
    """Check a decoded stats file and return new rows ``{"name", "length",
    "scale", "cap"}``, ``scale`` a float (1.0 by default) and ``cap`` a
    float or None; ``rows`` itself is left as it is. Each row is checked
    for types, then values, in order; then the list as a whole. The first
    broken rule raises ConfigError."""
    if not isinstance(rows, list):
        raise ConfigError("stats file must hold a JSON list")
    stats = []
    for index, row in enumerate(rows):
        try:
            name, length, scale, cap = row["name"], row["length"], row.get("scale", 1.0), row.get("cap")
            numbers = is_json_number(length, int) and is_json_number(scale) and (cap is None or is_json_number(cap))
            if not (isinstance(name, str) and numbers):
                raise TypeError
            scale, cap = float(scale), None if cap is None else float(cap)
            name.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate: JSON can hold one, UTF-8 cannot
            raise ConfigError(f"stats row {index}: 'name' holds a lone surrogate, which UTF-8 cannot encode") from None
        except (KeyError, TypeError, OverflowError):
            raise ConfigError(
                f"stats row {index} needs a string 'name', an integer 'length' and numeric 'scale' and 'cap'"
            ) from None
        if not 0 < scale < math.inf:
            raise ConfigError(f"dataset {name!r}: scale must be a finite number > 0")
        if not 1 <= length <= sys.float_info.max / scale:
            raise ConfigError(f"dataset {name!r}: length must be >= 1 and length * scale finite")
        if cap is not None and not 0 < cap < math.inf:
            raise ConfigError(f"dataset {name!r}: cap must be a finite number > 0")
        stats.append({"name": name, "length": length, "scale": scale, "cap": cap})
    if not stats:
        raise ConfigError("need at least one dataset")
    names = [row["name"] for row in stats]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate dataset names: {names}")
    return stats


class MixturePlan(NamedTuple):
    """A plan as ``mix`` writes it (``_asdict()``): each row of ``datasets``
    is a :func:`check_stats` row plus its rate ``r`` relative to the largest
    capped size (largest dataset: 1.0) and its sampling ratio ``p``."""

    T: float
    datasets: list[dict]

    @property
    def ratios(self) -> dict[str, float]:
        return {row["name"]: row["p"] for row in self.datasets}


def compute_plan(stats: Sequence[dict], temperature: float) -> MixturePlan:
    """Compute normalized sampling ratios of :func:`check_stats` rows for the given temperature."""
    if not 0 < temperature < math.inf:
        raise ConfigError("temperature must be a finite number > 0")
    sizes = [min(row["length"] * row["scale"], math.inf if row["cap"] is None else row["cap"]) for row in stats]
    largest = max(sizes)
    rates = [(size / largest) ** (1.0 / temperature) for size in sizes]
    if any(rate == 0.0 for rate in rates):
        raise ConfigError("temperature too small: a mixing rate underflowed to zero")
    total = sum(rates)
    return MixturePlan(temperature, [dict(row, r=rate, p=rate / total) for row, rate in zip(stats, rates)])


def _epochs(items: Sequence, rng: random.Random, name: str) -> Iterator:
    """Walk one dataset in epoch-shuffled order: a full random permutation
    is consumed before any item repeats.

    An epoch yields what ``rng.shuffle`` of ``range(len(items))`` would give,
    read backwards, but takes each shuffle step when its item is drawn: the
    step that fixes the permutation's last open place is the one that picks the
    next item, with the same swap and ``rng._randbelow`` call in the same order,
    so a walk that stops early has shuffled only what it drew. The permutation
    is an 8-byte-per-item array, so a walk over offset-indexed records stays small.
    """
    if not items:
        raise StreamError(f"dataset {name!r} is empty")
    randbelow = rng._randbelow
    while True:
        order = array("q", range(len(items)))
        for place in reversed(range(1, len(order))):
            pick = randbelow(place + 1)
            item, order[pick] = order[pick], order[place]
            yield items[item]
        yield items[order[0]]


def sample_stream(plan: MixturePlan, sources: Mapping[str, Sequence], total: int, seed: int = 0) -> Iterator:
    """Draw ``total`` examples, dataset chosen i.i.d. from the plan's ratios.

    Deterministic per seed: dataset selection uses one derived stream and
    each dataset's shuffle another, so the output is independent of how
    the sources were produced. What :func:`check_sample` refuses raises
    ConfigError at the first draw.
    """
    check_sample(plan, sources, total)
    select_rng = random.Random(derive_seed(seed, "mix", "select"))
    walks = [
        _epochs(sources[row["name"]], random.Random(derive_seed(seed, "mix", "shuffle", row["name"])), row["name"])
        for row in plan.datasets
    ]
    cumulative = list(accumulate(row["p"] for row in plan.datasets))
    cumulative[-1] = math.inf  # the last dataset takes what the p-sum's rounding leaves

    for _ in range(total):
        yield next(walks[bisect_right(cumulative, select_rng.random())])


def check_sample(plan: MixturePlan, names: Container[str], total: int) -> None:
    """Raise ConfigError unless ``total`` >= 1 and ``names`` holds every dataset of ``plan``."""
    if total < 1:
        raise ConfigError("total must be >= 1")
    missing = [row["name"] for row in plan.datasets if row["name"] not in names]
    if missing:
        raise ConfigError(f"no source for datasets: {missing}")
