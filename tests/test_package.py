import wcfar


def test_all_names_resolve():
    missing = [name for name in wcfar.__all__ if not hasattr(wcfar, name)]
    assert missing == []
