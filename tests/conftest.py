import pytest

from fatpoints import engine


@pytest.fixture
def build_calls(monkeypatch):
    """The number of points of each matrix the engine builds, in order."""
    calls = []
    real = engine.build_matrix

    def counting(space, degree, scheme, **kwargs):
        calls.append(len(scheme.points))
        return real(space, degree, scheme, **kwargs)

    monkeypatch.setattr(engine, "build_matrix", counting)
    return calls
