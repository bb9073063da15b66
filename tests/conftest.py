import os
import sys
from pathlib import Path

import numpy as np
import pytest

from vilenkin import GroupContext, SampledFunction2D

sys.path.insert(0, str(Path(__file__).parent))


def pytest_report_header(config):
    # the kernel bit tests hold for the BLAS they ran on, and a vector power
    # for the SIMD dispatch: name both in every run
    show = np.show_config(mode="dicts")
    blas = show.get("Build Dependencies", {}).get("blas", {})
    simd = show.get("SIMD Extensions", {}).get("found")
    return (f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"
            f" ({blas.get('openblas configuration', 'no OpenBLAS configuration')}),"
            f" SIMD found {simd}, {os.cpu_count()} CPUs")


@pytest.fixture
def ctx23():
    return GroupContext((2, 3))


@pytest.fixture
def ctx232():
    return GroupContext((2, 3, 2))


@pytest.fixture
def ctx2323():
    return GroupContext((2, 3, 2, 3))


@pytest.fixture
def walsh4():
    return GroupContext((2, 2, 2, 2))


def random_grid_2d(ctx, seed):
    rng = np.random.default_rng(seed)
    size = ctx.size
    values = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return SampledFunction2D(ctx, values)


def random_vector(ctx, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(ctx.size) + 1j * rng.standard_normal(ctx.size)
