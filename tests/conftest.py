from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from fpp_lab import IntensitySpec, KernelSpec, MarkDistributionSpec, phi_fractional

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def hyp2f1_oracle():
    """Frozen (a, b, c, z, F) rows precomputed by the independent quadrature oracle."""
    with open(DATA_DIR / "hyp2f1_oracle.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def blocked_oracle():
    """Case name -> frozen solved phi values and `quad` integrals (see tests/data/make_blocked_oracle.py)."""
    with open(DATA_DIR / "blocked_oracle.json", "r", encoding="utf-8") as fh:
        return {row["case"]: row for row in json.load(fh)}


@pytest.fixture
def unit_rate():
    return IntensitySpec.constant(1.0)


@pytest.fixture
def unit_marks():
    return MarkDistributionSpec.unit()


@pytest.fixture
def frac_kernel():
    return KernelSpec.fractional(0.7)


@pytest.fixture
def frac_phi():
    return phi_fractional(0.7, 1.0)


def rng_for(test_id: int) -> np.random.Generator:
    return np.random.default_rng(900_000 + test_id)
