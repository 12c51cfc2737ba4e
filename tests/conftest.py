import pathlib

import pytest
from hypothesis import settings

import genpow.subpower
from genpow import closure, load_algebra

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

ALGEBRA_DIR = pathlib.Path(__file__).resolve().parent.parent / "algebras"


def corpus_path(name):
    return ALGEBRA_DIR / f"{name}.json"


@pytest.fixture(scope="session")
def proj2():
    return load_algebra(corpus_path("projections_k2"))


@pytest.fixture(scope="session")
def xor3():
    return load_algebra(corpus_path("xor3"))


@pytest.fixture(scope="session")
def min2():
    return load_algebra(corpus_path("min2"))


@pytest.fixture(scope="session")
def maj3():
    return load_algebra(corpus_path("majority3"))


@pytest.fixture(scope="session")
def egp3():
    return load_algebra(corpus_path("egp3"))


@pytest.fixture(scope="session")
def non_idem():
    return load_algebra(corpus_path("non_idempotent"))


@pytest.fixture
def small_batch_closure(monkeypatch):
    """closure() with the engine's grid batches cut to 64 cells."""

    def run(algebra, seeds):
        with monkeypatch.context() as patch:
            patch.setattr(genpow.subpower, "_CHUNK_CELLS", 64)
            return closure(algebra, seeds)

    return run


@pytest.fixture(scope="session")
def corpus(proj2, xor3, min2, maj3, egp3):
    # idempotent members only; the constant-op file is kept separate
    return {
        "projections_k2": proj2,
        "xor3": xor3,
        "min2": min2,
        "majority3": maj3,
        "egp3": egp3,
    }
