import voilab


def test_every_export_resolves_once():
    names = voilab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(voilab, name)]
    assert missing == []
