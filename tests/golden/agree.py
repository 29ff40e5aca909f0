"""Compare two run documents (``results.json``) for float64 agreement.

    python tests/golden/agree.py a.json b.json

Everything but the folds, the wall clock and the manifest path (where the
data was read from), and in each fold the selected hyperparameters, best
epoch and metrics, must be equal. Every other fold field, the curves, the
best loss and each ROC column, is reported as its largest relative gap
over the folds, ``|b - a| / |a|``; a gap above ``1e-9`` (loose enough for
another BLAS's float64 roundoff, far tighter than any change to the
arithmetic) or a field of another shape counts as a disagreement.
Prints one line per field and exits 1 on any disagreement.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

RELATIVE = 1e-9
EXACT = ("fold", "hyperparameters", "best_epoch", "auc", "sensitivity", "specificity")
IGNORED = ("folds", "wall_clock_seconds")
ROC_COLUMNS = ("threshold", "fpr", "tpr")


def _settings(doc: dict) -> dict:
    settings = {key: value for key, value in doc.items() if key not in IGNORED}
    settings["config"] = {key: value for key, value in doc["config"].items()
                          if key != "manifest"}
    return settings


def _relative_gap(expected, actual) -> float:
    want, got = np.asarray(expected, dtype=np.float64), np.asarray(actual, dtype=np.float64)
    if want.shape != got.shape:
        return np.inf
    same = (got == want) | (np.isnan(got) & np.isnan(want))  # equal values agree, even at 0
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.where(same, 0.0, np.abs(got - want) / np.abs(want))
    return float(np.nan_to_num(gap, nan=np.inf, posinf=np.inf).max(initial=0.0))


def _fields(expected: dict, actual: dict) -> tuple[dict[str, bool], dict[str, float]]:
    """Whether each exact field is equal (in every fold, for a fold field),
    and each other fold field's largest relative gap over the folds."""
    want_settings, got_settings = _settings(expected), _settings(actual)
    equal = {key: got_settings.get(key) == value for key, value in want_settings.items()}
    equal["keys"] = want_settings.keys() == got_settings.keys()
    equal["fold count"] = len(expected["folds"]) == len(actual["folds"])
    gaps: dict[str, float] = {}
    for want, got in zip(expected["folds"], actual["folds"]):
        equal["fold keys"] = equal.get("fold keys", True) and want.keys() == got.keys()
        for key, value in want.items():
            if key in EXACT:
                equal[key] = equal.get(key, True) and got.get(key) == value
                continue
            if key == "roc":  # one field per column of its (threshold, fpr, tpr) rows
                pairs = [(f"roc.{name}", [row[column] for row in value],
                          [row[column] for row in got.get(key, [])])
                         for column, name in enumerate(ROC_COLUMNS)]
            else:
                pairs = [(key, value, got.get(key))]
            for name, want_values, got_values in pairs:
                gaps[name] = max(gaps.get(name, 0.0), _relative_gap(want_values, got_values))
    return equal, gaps


def compare(expected: dict, actual: dict) -> tuple[bool, str]:
    """Whether ``actual`` agrees with ``expected``, and a report with one
    line per field."""
    equal, gaps = _fields(expected, actual)
    agree = all(equal.values()) and all(gap <= RELATIVE for gap in gaps.values())
    width = max(map(len, [*equal, *gaps]))
    lines = [f"{name:<{width}}  {'equal' if same else 'DIFFERENT'}"
             for name, same in equal.items()]
    lines += [f"{name:<{width}}  max relative gap {gap:.3g}"
              + ("" if gap <= RELATIVE else f"  ABOVE {RELATIVE:g}")
              for name, gap in gaps.items()]
    lines.append("agree" if agree else "DISAGREE")
    return agree, "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/golden/agree.py a.json b.json", file=sys.stderr)
        return 2
    agree, report = compare(*(json.loads(Path(path).read_text()) for path in argv))
    print(report)
    return 0 if agree else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
