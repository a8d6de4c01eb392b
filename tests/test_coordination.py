import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinprune.coordination import (FRAME_SIZE, TAG_PREFIX, TAG_SUFFIX,
                                    CoordinationError, PulseOutcome,
                                    PulseParams, encode_coinbase_tag,
                                    latest_closed_pulse, parse_coinbase_tag,
                                    pulse_for_height, pulse_height,
                                    pulse_index, tally_window, window_range)

P = PulseParams(delta_p=200, delta_r=50, delta_d=6, k=5)
TAG_A = b"\xaa" * 32
TAG_B = b"\xbb" * 32

tags32 = st.binary(min_size=32, max_size=32)


# --- parameters and the pulse grid -------------------------------------------

def test_pulse_heights():
    assert pulse_height(1, P) == 200
    assert pulse_height(3, P) == 600
    with pytest.raises(CoordinationError):
        pulse_height(0, P)
    # pulse_index inverts pulse_height, and genesis is never a pulse
    for index in (1, 3, 40):
        assert pulse_index(pulse_height(index, P), P) == index
    for height in (0, 1, 199, 201, 599, -200):
        assert pulse_index(height, P) is None


def test_window_boundaries():
    window = window_range(1, P)
    # settling delay 6: first counted coinbase is 7 past the pulse
    assert window.start == 207
    assert window.stop == 257
    assert len(window) == P.delta_r
    assert 206 not in window and 207 in window and 256 in window \
        and 257 not in window


def test_pulse_for_height_matches_window_membership():
    for height in range(0, 1200):
        index = pulse_for_height(height, P)
        if index is None:
            assert all(height not in window_range(i, P)
                       for i in range(1, height // P.delta_p + 2))
        else:
            assert height in window_range(index, P)


@st.composite
def pulse_params(draw):
    delta_p = draw(st.integers(1, 300))
    delta_r = draw(st.integers(1, delta_p))
    return PulseParams(delta_p=delta_p, delta_r=delta_r,
                       delta_d=draw(st.integers(0, 300)),
                       k=draw(st.integers(1, delta_r)))


@given(pulse_params(), st.data())
def test_a_window_lies_above_its_pulse(params, data):
    # the simulator makes a pulse's record when it mines the pulse block,
    # so every block of the window finds the record there
    span = params.delta_p + params.delta_d + params.delta_r
    height = data.draw(st.integers(0, 4 * span))
    index = pulse_for_height(height, params)
    if index is not None:
        assert pulse_height(index, params) < height


def test_latest_closed_pulse():
    # window of pulse 1 is heights 207..256
    assert latest_closed_pulse(255, P) is None
    assert latest_closed_pulse(256, P) == 1
    assert latest_closed_pulse(456, P) == 2
    assert latest_closed_pulse(100, P) is None


def test_low_support_preset_is_constructible():
    # delta_d + delta_r exceeding delta_p must stay legal: both window
    # ends shift by delta_d, so windows cannot overlap while
    # delta_r <= delta_p
    params = PulseParams(delta_p=100, delta_r=100, delta_d=6, k=5)
    w1, w2 = window_range(1, params), window_range(2, params)
    assert w1.stop <= w2.start


def test_param_validation():
    with pytest.raises(CoordinationError):
        PulseParams(delta_p=0, delta_r=10)
    with pytest.raises(CoordinationError, match="delta_d must be at least 0"):
        PulseParams(delta_p=10, delta_r=10, delta_d=-1)
    PulseParams(delta_p=10, delta_r=10, delta_d=0)  # no settling blocks
    with pytest.raises(CoordinationError):
        PulseParams(delta_p=10, delta_r=10, k=0)
    with pytest.raises(CoordinationError):  # k reaffirmations cannot fit
        PulseParams(delta_p=10, delta_r=10, k=11)
    with pytest.raises(CoordinationError):  # windows 1 and 2 would overlap
        PulseParams(delta_p=10, delta_r=20, delta_d=1, k=2)


# --- coinbase tag framing ------------------------------------------------------

def test_frame_shape():
    frame = encode_coinbase_tag(TAG_A)
    assert len(frame) == FRAME_SIZE == 43
    assert frame == b"CoinPrune/" + TAG_A + b"/"
    assert parse_coinbase_tag(frame) == TAG_A


def test_frame_parsing_positions():
    frame = encode_coinbase_tag(TAG_A)
    assert parse_coinbase_tag(b"junk" + frame + b"tail") == TAG_A
    assert parse_coinbase_tag(frame + b"x" * 5) == TAG_A
    assert parse_coinbase_tag(b"x" * 57 + frame) == TAG_A


def test_first_complete_frame_wins():
    data = encode_coinbase_tag(TAG_B) + encode_coinbase_tag(TAG_A)
    assert parse_coinbase_tag(data) == TAG_B


def test_incomplete_frames_are_ignored():
    frame = encode_coinbase_tag(TAG_A)
    assert parse_coinbase_tag(frame[:-1]) is None
    assert parse_coinbase_tag(TAG_PREFIX + TAG_A) is None
    assert parse_coinbase_tag(b"") is None
    assert parse_coinbase_tag(TAG_PREFIX[:-1] + TAG_A + TAG_SUFFIX) is None
    # prefix present but the terminator byte is wrong
    assert parse_coinbase_tag(TAG_PREFIX + TAG_A + b"x") is None


def test_truncated_prefix_then_real_frame():
    data = TAG_PREFIX + encode_coinbase_tag(TAG_B)
    # the scan must not get stuck on the bare prefix at offset 0
    assert parse_coinbase_tag(data) is not None


@given(st.binary(max_size=30), tags32, st.binary(max_size=30))
def test_planted_frame_recovered(before, tag, after):
    data = before + encode_coinbase_tag(tag) + after
    assert parse_coinbase_tag(data) is not None


def test_encode_rejects_bad_tag_size():
    with pytest.raises(CoordinationError):
        encode_coinbase_tag(b"short")


# --- tallying ---------------------------------------------------------------------

def _window(*pairs):
    tags: list[bytes | None] = []
    for tag, count in pairs:
        tags.extend([tag] * count)
    tags.extend([None] * (P.delta_r - len(tags)))
    return tags


def test_unique_majority_accepted():
    outcome = tally_window(_window((TAG_A, 9), (TAG_B, 4)), P)
    assert outcome == PulseOutcome(True, TAG_A, 9)


def test_tie_is_skipped():
    outcome = tally_window(_window((TAG_A, 8), (TAG_B, 8)), P)
    assert not outcome.accepted


def test_below_threshold_skipped():
    assert not tally_window(_window((TAG_A, 4)), P).accepted
    assert tally_window(_window((TAG_A, 5)), P).accepted


def test_empty_window_skipped():
    assert not tally_window(_window(), P).accepted


def test_window_length_enforced():
    with pytest.raises(CoordinationError):
        tally_window([None] * (P.delta_r - 1), P)


@given(st.lists(st.one_of(st.none(), st.sampled_from([TAG_A, TAG_B])),
                min_size=50, max_size=50))
def test_tally_against_counter_oracle(tags):
    from collections import Counter
    outcome = tally_window(tags, P)
    counts = Counter(t for t in tags if t is not None)
    if not counts:
        assert not outcome.accepted
        return
    (top, n), *rest = counts.most_common()
    unique = not rest or rest[0][1] < n
    if unique and n >= P.k:
        assert outcome == PulseOutcome(True, top, n)
    else:
        assert not outcome.accepted
