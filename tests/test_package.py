"""The package's lazy export map."""

import lrsdcut


def test_every_public_name_resolves():
    for name in lrsdcut.__all__:
        assert getattr(lrsdcut, name) is not None, name
