import numpy as np
import pytest


def rand_spd(rng, n, shift=None):
    """Random symmetric positive definite matrix, comfortably conditioned."""
    a = rng.standard_normal((n, n))
    return a @ a.T + (float(n) if shift is None else shift) * np.eye(n)


def rand_3form(rng, n, scale=1.0):
    """Random totally antisymmetric (0,3) tensor."""
    h = scale * rng.standard_normal((n, n, n))
    return (h - h.transpose(1, 0, 2) + h.transpose(1, 2, 0)
            - h.transpose(2, 1, 0) + h.transpose(2, 0, 1)
            - h.transpose(0, 2, 1)) / 6.0


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def three_form_checks(monkeypatch):
    """A one-element list counting ThreeForm validations while the test runs."""
    from grflab.courant import ThreeForm

    calls = [0]
    check = ThreeForm.__post_init__

    def counted(self):
        calls[0] += 1
        check(self)

    monkeypatch.setattr(ThreeForm, "__post_init__", counted)
    return calls
