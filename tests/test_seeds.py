import pytest

from ggff.seeds import batch_plan


def test_batch_plan_covers_the_total_in_order():
    assert batch_plan(10, 4) == [(0, 4), (1, 4), (2, 2)]
    assert batch_plan(1, 4) == [(0, 1)]


@pytest.mark.parametrize("total, batch_size, word", [
    (0, 4, "samples or soups"), (-3, 4, "samples or soups"),
    (10, 0, "batch size"), (10, -1, "batch size")])
def test_batch_plan_rejects_counts_below_one(total, batch_size, word):
    with pytest.raises(ValueError, match=word):
        batch_plan(total, batch_size)
