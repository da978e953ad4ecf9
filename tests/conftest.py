import pytest


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    """Run every test in its own empty directory with no output-directory
    override, so CLI calls without --out write nothing into the checkout."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ERASURE_SENSING_OUT", raising=False)
