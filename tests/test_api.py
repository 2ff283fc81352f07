"""The package's public names."""

import pytest

import fdeconv
from fdeconv import ParameterError, RateQuery, classify_2d


def test_every_exported_name_resolves():
    missing = [name for name in fdeconv.__all__ if not hasattr(fdeconv, name)]
    assert missing == []
    query = RateQuery(s=(1.0, 1.0, 1.0), pi=2, q=2, p=2, nu=0.5, alpha=(1.0, 1.0, 1.0))
    with pytest.raises(ParameterError, match="r = 2"):
        classify_2d(query)
