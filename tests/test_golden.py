"""Golden runs: a change to the numerics cannot land without being seen.

Each model's float64 ``run_experiment`` document on a tiny fixed dataset is
compared with the one stored in ``tests/golden/`` by the rule of
``tests/golden/agree.py``: the selected hyperparameters, best epochs and
fold metrics must be equal; curves, losses and ROC points must agree to a
relative ``1e-9``, loose enough for another BLAS's float64 roundoff and far
tighter than any change to the arithmetic.
A change that alters the numerics on purpose regenerates the files with
``tests/golden/regenerate.py`` and records old -> new in CHANGES.md.
"""

import json

import pytest

from golden.agree import compare
from golden.regenerate import MODELS, golden_path, golden_runs


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return golden_runs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("model", MODELS)
def test_run_matches_its_golden_document(runs, model):
    agree, report = compare(json.loads(golden_path(model).read_text()), runs[model])
    assert agree, report
