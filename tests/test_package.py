import pytest

import wcfar


def test_all_names_resolve():
    missing = [name for name in wcfar.__all__ if not hasattr(wcfar, name)]
    assert missing == []


def test_a_name_resolves_to_its_module_attribute():
    from wcfar import inference

    assert wcfar.fit is inference.fit


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        wcfar.no_such_name
