import numpy as np
import pytest

from lossmc import PcgStream

from conftest import SequenceStream, StreamExhaustedError


def test_sequence_stream_block_matches_single_draws():
    values = PcgStream(5).uniforms(7)
    block, single = SequenceStream(values), SequenceStream(values)
    assert np.array_equal(block.uniforms(3), [single.uniforms(1)[0] for _ in range(3)])
    assert np.array_equal(block.uniforms(4), [single.uniforms(1)[0] for _ in range(4)])
    assert block.remaining == single.remaining == 0


def test_sequence_stream_past_the_end_raises_and_consumes_nothing():
    stream = SequenceStream([0.1, 0.2, 0.3])
    stream.uniforms(1)
    with pytest.raises(StreamExhaustedError):
        stream.uniforms(3)
    assert stream.remaining == 2
    assert np.array_equal(stream.uniforms(2), [0.2, 0.3])
    with pytest.raises(StreamExhaustedError):
        stream.uniforms(1)
