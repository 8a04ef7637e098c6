"""Warmup-then-inverse-decay learning-rate schedule.

The rate climbs linearly per batch from the warmup start to the warmup
end over the first ``ceil(warmup_fraction * total_epochs)`` epochs,
hitting both endpoints exactly, then decays per epoch as
``warmup_end / (1 + decay_rate * (epoch - warmup_epoch))`` — constant
within an epoch and continuous at the seam.
"""

from __future__ import annotations

import math

from .errors import ConfigError, ValidationError


class LrConfig:
    # The defaults, as class attributes too: the command line reads its flag defaults here.
    warmup_start = 1e-8
    warmup_end = 1e-4
    decay_rate = 1e-3
    warmup_fraction = 0.10

    def __init__(
        self,
        total_epochs: int,
        batches_per_epoch: int,
        warmup_start: float = warmup_start,
        warmup_end: float = warmup_end,
        decay_rate: float = decay_rate,
        warmup_fraction: float = warmup_fraction,
    ):
        if total_epochs < 1 or batches_per_epoch < 1:
            raise ConfigError("epoch and batch counts must be >= 1")
        if not 0 < warmup_start <= warmup_end < math.inf:
            raise ConfigError("need 0 < warmup_start <= warmup_end < inf")
        if not 0 <= decay_rate < math.inf:
            raise ConfigError("decay_rate must be a finite number >= 0")
        if not 0 < warmup_fraction < 1:
            raise ConfigError("warmup_fraction must be in (0, 1)")
        self.total_epochs = total_epochs
        self.batches_per_epoch = batches_per_epoch
        self.warmup_start = warmup_start
        self.warmup_end = warmup_end
        self.decay_rate = decay_rate
        self.warmup_fraction = warmup_fraction


class LrSchedule:
    """Maps a 0-based global batch index to its learning rate."""

    def __init__(self, config: LrConfig):
        self.config = config
        # ceil with a small guard so float dust like 0.1 * 30 == 3.0000000000000004
        # does not inflate the warmup by an epoch; never less than one epoch.
        self.warmup_epochs = max(1, math.ceil(config.warmup_fraction * config.total_epochs - 1e-9))
        self.warmup_batches = self.warmup_epochs * config.batches_per_epoch

    def epoch_of(self, global_batch: int) -> int:
        return global_batch // self.config.batches_per_epoch

    def lr_at(self, global_batch: int) -> float:
        if global_batch < 0:
            raise ValidationError("global_batch must be >= 0")
        cfg = self.config
        if global_batch < self.warmup_batches:
            if global_batch == self.warmup_batches - 1 or self.warmup_batches == 1:
                return cfg.warmup_end  # hit the stated endpoint exactly
            span = cfg.warmup_end - cfg.warmup_start
            return cfg.warmup_start + span * global_batch / (self.warmup_batches - 1)
        epoch = self.epoch_of(global_batch)
        return cfg.warmup_end / (1.0 + cfg.decay_rate * (epoch - self.warmup_epochs))


def emit_table(schedule: LrSchedule, sink, meta: str | None = None) -> int:
    """Write the schedule as UTF-8 CSV to a binary stream: every warmup batch, then each epoch start.

    Rates are printed with 17 significant digits so the file is bit-stable.
    Returns the number of data rows written.
    """
    cfg = schedule.config
    if meta is not None:
        sink.write(f"# {meta}\n".encode("utf-8"))
    sink.write(b"global_batch,epoch,lr\n")
    rows = 0
    for batch in range(schedule.warmup_batches):
        sink.write(f"{batch},{schedule.epoch_of(batch)},{schedule.lr_at(batch):.17g}\n".encode("utf-8"))
        rows += 1
    for epoch in range(schedule.warmup_epochs, cfg.total_epochs):
        batch = epoch * cfg.batches_per_epoch
        sink.write(f"{batch},{epoch},{schedule.lr_at(batch):.17g}\n".encode("utf-8"))
        rows += 1
    return rows
