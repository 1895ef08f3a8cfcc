import pytest

from fermiphon import ModelParams
from fermiphon.focklab import build_space


@pytest.fixture(scope="session")
def space_k2():
    return build_space(2)


@pytest.fixture(scope="session")
def space_k3():
    return build_space(3)


@pytest.fixture(scope="session")
def free_params():
    return ModelParams(v_f=1.0, v_p=0.3, lam=0.0, g=0.0, a=0.01, L=100.0,
                       omega0=0.1)


@pytest.fixture(scope="session")
def generic_params():
    return ModelParams(v_f=1.0, v_p=0.3, lam=1.0, g=0.2, a=0.05, L=20.0)
