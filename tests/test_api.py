import rowstream


def test_every_public_name_resolves():
    missing = [name for name in rowstream.__all__
               if not hasattr(rowstream, name)]
    assert missing == []
    assert len(set(rowstream.__all__)) == len(rowstream.__all__)
