"""Golden runs: a change to the numerics cannot land without being seen.

Each model's float64 ``run_experiment`` document on a tiny fixed dataset is
compared with the one stored in ``tests/golden/``. The selected
hyperparameters, best epochs and fold metrics must be equal; curves, losses
and ROC points must agree to a relative ``1e-9``, loose enough for another
BLAS's float64 roundoff and far tighter than any change to the arithmetic.
A change that alters the numerics on purpose regenerates the files with
``tests/golden/regenerate.py`` and records old -> new in CHANGES.md.
"""

import json

import numpy as np
import pytest

from golden.regenerate import MODELS, golden_path, golden_runs

RELATIVE = 1e-9
EXACT = ("fold", "hyperparameters", "best_epoch", "auc", "sensitivity", "specificity")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return golden_runs(tmp_path_factory.mktemp("golden"))


def assert_agrees(expected: dict, actual: dict) -> None:
    assert ({k: v for k, v in actual.items() if k != "folds"}
            == {k: v for k, v in expected.items() if k != "folds"})
    assert len(actual["folds"]) == len(expected["folds"])
    for want, got in zip(expected["folds"], actual["folds"]):
        assert got.keys() == want.keys()
        for key, value in want.items():
            where = f"fold {want['fold']} {key}"
            if key in EXACT:
                assert got[key] == value, where
            else:
                assert np.shape(got[key]) == np.shape(value), where
                np.testing.assert_allclose(got[key], value, rtol=RELATIVE, atol=0,
                                           err_msg=where)


@pytest.mark.parametrize("model", MODELS)
def test_run_matches_its_golden_document(runs, model):
    assert_agrees(json.loads(golden_path(model).read_text()), runs[model])
