import pytest

from a5fano import barth, burkhardt, cli


@pytest.fixture(scope="session")
def bk_model():
    return burkhardt.build_model()


@pytest.fixture(scope="session")
def bk_gram(bk_model):
    return burkhardt.build_gram(bk_model)


@pytest.fixture(scope="session")
def bk_ranks(bk_model, bk_gram):
    return burkhardt.invariant_ranks(bk_model, bk_gram[0])


@pytest.fixture(scope="session")
def burkhardt_report():
    return cli.run_suite("burkhardt")


@pytest.fixture(scope="session")
def bt_model():
    return barth.build_barth()


@pytest.fixture(scope="session")
def bt_surfaces(bt_model):
    return barth.build_solid_surfaces(bt_model)


@pytest.fixture(scope="session")
def bt_table2(bt_model, bt_surfaces):
    plus, minus = bt_surfaces
    return barth.verify_table2_and_ranks(bt_model, plus, minus)
