import io

import pytest
from hypothesis import given, strategies as st

from numtext.errors import ConfigError, ValidationError
from numtext.schedule import LrSchedule, emit_table


def _schedule(**kwargs):
    defaults = dict(total_epochs=10, batches_per_epoch=100)
    defaults.update(kwargs)
    return LrSchedule(**defaults)


def test_first_batch_is_warmup_start():
    assert _schedule().lr_at(0) == 1e-8


def test_last_warmup_batch_is_warmup_end_exactly():
    schedule = _schedule()
    assert schedule.warmup_batches == 100
    assert schedule.lr_at(99) == 1e-4


def test_first_post_warmup_epoch_keeps_warmup_end():
    schedule = _schedule()
    assert schedule.lr_at(100) == 1e-4  # epoch e_w: denominator is exactly 1
    assert schedule.lr_at(199) == 1e-4


def test_second_post_warmup_epoch_decays():
    schedule = _schedule()
    expected = 1e-4 / 1.001
    assert abs(schedule.lr_at(200) - expected) / expected < 1e-12


def test_warmup_monotone_nondecreasing():
    schedule = _schedule()
    rates = [schedule.lr_at(b) for b in range(schedule.warmup_batches)]
    assert all(a <= b for a, b in zip(rates, rates[1:]))


def test_post_warmup_monotone_nonincreasing_and_bounded():
    schedule = _schedule(total_epochs=50)
    rates = [schedule.lr_at(e * 100) for e in range(schedule.warmup_epochs, 50)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert all(0 < r <= 1e-4 for r in rates)


def test_piecewise_constant_within_epoch():
    schedule = _schedule()
    for epoch in (schedule.warmup_epochs, 5, 9):
        base = schedule.lr_at(epoch * 100)
        assert all(schedule.lr_at(epoch * 100 + b) == base for b in range(100))


def test_warmup_epoch_count_rounds_up():
    assert _schedule(total_epochs=1).warmup_epochs == 1  # ceil(0.1) = 1
    assert _schedule(total_epochs=10).warmup_epochs == 1
    assert _schedule(total_epochs=11).warmup_epochs == 2
    assert _schedule(total_epochs=30).warmup_epochs == 3  # float dust guard
    assert _schedule(total_epochs=25, warmup_fraction=0.2).warmup_epochs == 5


def test_single_batch_warmup_uses_end_rate():
    schedule = _schedule(total_epochs=1, batches_per_epoch=1)
    assert schedule.lr_at(0) == 1e-4


def test_negative_batch_rejected():
    with pytest.raises(ValidationError):
        _schedule().lr_at(-1)


def test_config_validation():
    with pytest.raises(ConfigError):
        LrSchedule(total_epochs=0, batches_per_epoch=10)
    with pytest.raises(ConfigError):
        LrSchedule(total_epochs=1, batches_per_epoch=10, warmup_start=0.0)
    with pytest.raises(ConfigError):
        LrSchedule(total_epochs=1, batches_per_epoch=10, warmup_start=1e-3, warmup_end=1e-4)
    with pytest.raises(ConfigError):
        LrSchedule(total_epochs=1, batches_per_epoch=10, warmup_fraction=1.5)
    with pytest.raises(ConfigError):
        LrSchedule(total_epochs=1, batches_per_epoch=10, decay_rate=-1e-3)


@given(
    st.integers(1, 40),
    st.integers(1, 50),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_seam_continuity_property(total_epochs, batches_per_epoch, fraction):
    schedule = LrSchedule(total_epochs=total_epochs, batches_per_epoch=batches_per_epoch, warmup_fraction=fraction)
    end_of_warmup = schedule.lr_at(schedule.warmup_batches - 1)
    assert end_of_warmup == 1e-4
    start_of_decay = schedule.lr_at(schedule.warmup_batches)
    assert start_of_decay == 1e-4
    assert 1 <= schedule.warmup_epochs <= total_epochs


def test_table_row_counts():
    rows = emit_table(_schedule(), io.BytesIO())
    assert rows == 100 + 9  # all warmup batches + epochs 1..9


def test_table_all_warmup_for_single_epoch():
    out = io.BytesIO()
    rows = emit_table(_schedule(total_epochs=1, batches_per_epoch=7), out)
    assert rows == 7
    lines = out.getvalue().decode("utf-8").strip().splitlines()
    assert lines[0] == "global_batch,epoch,lr"
    assert len(lines) == 8


def test_table_zero_decay_is_flat():
    out = io.BytesIO()
    emit_table(_schedule(decay_rate=0.0), out)
    data_rows = out.getvalue().decode("utf-8").strip().splitlines()[1:]
    post = [row for row in data_rows if int(row.split(",")[0]) >= 100]
    assert len(post) == 9
    assert all(float(row.split(",")[2]) == 1e-4 for row in post)


def test_table_first_row_lr():
    out = io.BytesIO()
    emit_table(_schedule(), out)
    first = out.getvalue().decode("utf-8").splitlines()[1]
    batch, epoch, rate = first.split(",")
    assert (batch, epoch) == ("0", "0")
    assert float(rate) == 1e-8  # 17 significant digits round-trip exactly


def test_table_bytes_stable():
    a, b = io.BytesIO(), io.BytesIO()
    emit_table(_schedule(), a, meta="run 1")
    emit_table(_schedule(), b, meta="run 1")
    assert a.getvalue() == b.getvalue()
