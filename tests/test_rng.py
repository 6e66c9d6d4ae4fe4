"""Random streams: seed validation."""

import pytest

from sortkern.errors import ConfigError
from sortkern.rng import stream, substream_seed


@pytest.mark.parametrize("derive", [stream, substream_seed])
def test_negative_seed_rejected(derive):
    with pytest.raises(ConfigError, match="nonnegative"):
        derive(-1)
    with pytest.raises(ConfigError, match="nonnegative"):
        derive(5, 1, -2)
