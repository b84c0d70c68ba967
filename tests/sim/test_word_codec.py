"""The word codec against the per-bit port loops it replaced.

:func:`repro.sim.compiled.encode_word` and
:func:`repro.sim.compiled.decode_word` turn a ``TWord`` into its nets'
codes and back with bytes and integer operations.  Every word of widths
1-16, and every string of valid codes, must match the frozen per-bit
loops of :mod:`tests.sim.step_reference`, and the two must invert each
other.  Each property runs on the memoised functions and on the
functions they wrap.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.words import TWord
from repro.sim.compiled import decode_word, encode_word
from tests.sim.step_reference import gather_word, scatter_word

CODECS = [
    (encode_word, decode_word),
    (encode_word.__wrapped__, decode_word.__wrapped__),
]


@st.composite
def words(draw):
    """``(bits, xmask, tmask, width)``, masks drawn past the width too."""
    width = draw(st.integers(1, 16))
    masks = st.integers(0, (1 << (width + 2)) - 1)
    return draw(masks), draw(masks), draw(masks), width


@st.composite
def code_strings(draw):
    width = draw(st.integers(1, 16))
    return bytes(draw(st.lists(st.integers(0, 5), min_size=width,
                               max_size=width)))


@settings(max_examples=400, deadline=None)
@given(words())
def test_encode_matches_the_loop(word):
    bits, xmask, tmask, width = word
    codes = np.zeros(width, dtype=np.uint8)
    scatter_word(codes, range(width), TWord(bits, xmask, tmask, width))
    for encode, decode in CODECS:
        assert encode(bits, xmask, tmask, width) == codes.tobytes()


@settings(max_examples=400, deadline=None)
@given(code_strings())
def test_decode_matches_the_loop(codes):
    expected = gather_word(np.frombuffer(codes, np.uint8), range(len(codes)))
    for encode, decode in CODECS:
        assert decode(codes) == expected


@settings(max_examples=400, deadline=None)
@given(words(), code_strings())
def test_round_trips(word, codes):
    bits, xmask, tmask, width = word
    for encode, decode in CODECS:
        assert decode(encode(bits, xmask, tmask, width)) == TWord(
            bits, xmask, tmask, width
        )
        decoded = decode(codes)
        assert encode(
            decoded.bits, decoded.xmask, decoded.tmask, decoded.width
        ) == codes
