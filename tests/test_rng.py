"""gpta.rng against its oracle, numpy.random: every draw a run makes, from
the same entropy, gives the same values, and a stream that interleaves
draws keeps numpy's shared 32-bit buffer. CI reruns this file under the
"bit-identity" profile (tests/conftest.py)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpta import ValidationError
from gpta.rng import Stream, seed_word

WORDS = st.integers(0, 2**100)
ENTROPY = WORDS | st.tuples(WORDS) | st.tuples(WORDS, WORDS) | st.tuples(WORDS, st.integers(0, 9), WORDS)


def numpy_stream(entropy):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@settings(deadline=None)
@given(entropy=ENTROPY)
def test_seed_word_matches_seed_sequence(entropy):
    assert seed_word(entropy) == np.random.SeedSequence(entropy).generate_state(1)[0]


@settings(deadline=None)
@given(entropy=ENTROPY, n=st.sampled_from([0, 1, 2, 63, 64, 65, 1700]) | st.integers(0, 5000))
def test_permutation_matches_numpy(entropy, n):
    assert Stream(entropy).permutation(n) == numpy_stream(entropy).permutation(n).tolist()


@settings(deadline=None)
@given(entropy=ENTROPY, n=st.integers(0, 80))
def test_gumbel_matches_numpy(entropy, n):
    got = Stream(entropy).gumbel(n)
    assert [repr(g) for g in got] == [repr(g) for g in numpy_stream(entropy).gumbel(size=n).tolist()]


# 3 * 2^30 + 1 and 3 * 2^61 + 1 reject about a quarter of their 32- and 64-bit draws.
SPANS = st.sampled_from([1, 2, 3, 7, 2**31, 3 * 2**30 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 3 * 2**61 + 1]) | st.integers(1, 2**62)
DRAWS = st.lists(
    st.just(("random",))
    | st.tuples(st.just("below"), SPANS)
    | st.tuples(st.just("between"), st.integers(0, 2**20), SPANS),
    max_size=40,
)


@settings(deadline=None)
@given(entropy=ENTROPY, draws=DRAWS)
def test_interleaved_integers_and_random_match_numpy(entropy, draws):
    """One stream, as synth_generate draws: 32-bit spans take one half of a
    64-bit output and leave the other for the next 32-bit draw."""
    ours, theirs = Stream(entropy), numpy_stream(entropy)
    for kind, *args in draws:
        if kind == "random":
            assert repr(ours.random()) == repr(theirs.random())
        elif kind == "below":
            assert ours.integers(args[0]) == theirs.integers(args[0])
        else:
            low, span = args
            assert ours.integers(low, low + span) == theirs.integers(low, low + span)


@settings(deadline=None)
@given(entropy=ENTROPY, data=st.data())
def test_choice_without_replacement_matches_numpy(entropy, data):
    n = data.draw(st.integers(1, 20000))
    k = data.draw(st.integers(0, min(n, 8)))
    got = Stream(entropy).choice(n, k)
    assert got == numpy_stream(entropy).choice(n, size=k, replace=False).tolist()
    assert len(set(got)) == k and all(0 <= v < n for v in got)


@pytest.mark.parametrize("entropy", [-1, -(2**70), (3, -1), (-2, 0)])
def test_negative_entropy_is_refused(entropy):
    for build in (Stream, seed_word):
        with pytest.raises(ValidationError, match="entropy must be >= 0"):
            build(entropy)
