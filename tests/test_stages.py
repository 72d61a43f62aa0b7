import math
from fractions import Fraction

import numpy as np
import pytest

from stageq import OutOfRangeError, build_schedule, stage_count_bound
from stageq.stages import StageSchedule


def naive_lengths(H, n_max):
    """Recompute the recurrence with exact rationals (independent route)."""
    out = []
    e = Fraction(H)
    total = 0
    while total < n_max:
        length = math.floor(e)
        out.append(length)
        total += length
        e = Fraction(math.floor((Fraction(1) + Fraction(1, H)) * length))
    return out


def test_frozen_tables():
    s = build_schedule(1, 20)
    assert s.lengths.tolist() == [1, 2, 4, 8, 16]
    assert s.ends.tolist() == [1, 3, 7, 15, 31]

    s = build_schedule(2, 50)
    assert s.lengths.tolist() == [2, 3, 4, 6, 9, 13, 19]
    assert s.ends.tolist() == [2, 5, 9, 15, 24, 37, 56]

    s = build_schedule(4, 25)
    assert s.lengths.tolist()[:4] == [4, 5, 6, 7]


def test_first_stage_is_h():
    for H in (1, 2, 3, 7, 40, 64):
        s = build_schedule(H, 10 * H)
        assert s.lengths[0] == H
        assert s.is_stage_end(H)


def test_is_stage_end_examples():
    s = build_schedule(2, 50)
    assert s.is_stage_end(5)
    assert not s.is_stage_end(6)


def test_stage_index_examples():
    s = build_schedule(2, 50)
    assert s.stage_index(1) == 1
    assert s.stage_index(9) == 3
    assert s.stage_index(10) == 4


def test_stage_index_consistent_with_ends():
    s = build_schedule(3, 500)
    ends = [0] + s.ends.tolist()
    for n in range(1, 501):
        j = s.stage_index(n)
        assert ends[j - 1] < n <= ends[j]
        assert s.is_stage_end(n) == (n == ends[j])


@pytest.mark.parametrize("H", list(range(1, 65)))
def test_matches_exact_rational_recurrence(H):
    n_max = 10_000
    s = build_schedule(H, n_max)
    assert s.lengths.tolist() == naive_lengths(H, n_max)


def test_float_recurrence_would_disagree():
    # the recurrence must be evaluated in integer arithmetic: the float
    # product rounds down one unit at reachable lengths, e.g. (H=11, e=220)
    # and (H=40, e=120), so a float implementation derails the whole tail
    assert math.floor((1 + 1 / 11) * 220) == 239
    assert 220 + 220 // 11 == 240
    assert math.floor((1 + 1 / 40) * 120) == 122
    assert 120 + 120 // 40 == 123
    for H, e_bad, e_next in ((11, 220, 240), (40, 120, 123)):
        lengths = build_schedule(H, 100_000).lengths.tolist()
        i = lengths.index(e_bad)  # the pre-disagreement length is reached
        assert lengths[i + 1] == e_next


def test_growth_sandwich():
    # exact rationals: the float product of the upper factor rounds below
    # the true bound at the very lengths the integer recurrence handles
    for H in (1, 2, 5, 11, 40, 64):
        lo, hi = Fraction(2 * H + 1, 2 * H), Fraction(H + 1, H)
        e = build_schedule(H, 1_000_000).lengths.tolist()
        for a, b in zip(e, e[1:]):
            assert lo * a <= b <= hi * a


def test_stage_count_bound():
    for H in (1, 2, 5, 17, 64):
        s = build_schedule(H, 1_000_000)
        for n in (10 * H, 1000, 1_000_000):
            n_ends = int(np.count_nonzero(s.ends <= n))
            assert n_ends <= stage_count_bound(H, n)


def test_coverage_and_monotonicity():
    s = build_schedule(7, 12345)
    assert s.ends[-1] >= 12345
    assert np.all(np.diff(s.ends) > 0)
    assert np.all(s.lengths >= 1)
    assert s.ends[-1] == s.lengths.sum()


def test_out_of_range():
    s = build_schedule(2, 50)
    for n in (0, -3, 51):
        with pytest.raises(OutOfRangeError):
            s.is_stage_end(n)
        with pytest.raises(OutOfRangeError):
            s.stage_index(n)
    err = pytest.raises(OutOfRangeError, s.is_stage_end, 51).value
    assert err.n == 51 and err.n_max == 50


def test_bad_args():
    with pytest.raises(ValueError):
        build_schedule(0, 10)
    with pytest.raises(ValueError):
        build_schedule(2, 0)


def test_schedule_is_shareable_value():
    s = build_schedule(2, 50)
    assert isinstance(s, StageSchedule)
    assert s.n_stages == 7
