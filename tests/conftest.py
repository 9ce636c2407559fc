import pytest


@pytest.fixture(autouse=True)
def own_cache_dir(tmp_path_factory, monkeypatch):
    """An empty cache of parsed score files for each test, which child processes inherit.

    A shared cache would let a test read back what another test parsed,
    and a test that patches a reader to fail would then pass without
    parsing at all.
    """
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
