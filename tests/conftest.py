"""Shared fixtures: a seeded corpus of random operators and their solutions."""

from __future__ import annotations

import random

import pytest
from corpus import CORPUS_SEED, CORPUS_SIZE, SOLVE_PRECISION, random_root_multiset

from vvmf import solve_fundamental_system, unique_operator


@pytest.fixture(scope="session")
def mmde_corpus():
    rng = random.Random(CORPUS_SEED)
    out = []
    for _ in range(CORPUS_SIZE):
        roots = random_root_multiset(rng)
        out.append((roots, unique_operator(roots)))
    return out


@pytest.fixture(scope="session")
def solved_corpus(mmde_corpus):
    return [
        (roots, L, solve_fundamental_system(L, SOLVE_PRECISION))
        for roots, L in mmde_corpus
    ]
