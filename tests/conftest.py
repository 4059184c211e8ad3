import pytest

from coxnorm import actions


@pytest.fixture
def fresh_line_tables(monkeypatch):
    """Fresh line tables, so a test sees every pair a table tests and may
    change its memo."""
    monkeypatch.setattr(actions, "_line_tables", {})
