"""``check-tnorm`` reports against the golden files in ``tests/golden/``.

Each file is the JSON report of one ``tnormcat check-tnorm`` run with
``timing_ms`` removed, rendered as the CLI renders it.  The runs cover the
five families and a three-interval collapse, at ``--grid 12`` and at one
``--values`` grid, so the verdicts, witnesses and notes of C1, C2, C3-form,
the axioms and the agreement row are all pinned byte for byte.

The files are written by this module's ``__main__`` block; rewrite them only
when a report is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest

from tnormcat.cli import main

GOLDEN = Path(__file__).parent / "golden"

TNORMS = {
    "minimum": {"family": "minimum"},
    "product": {"family": "product"},
    "lukasiewicz": {"family": "lukasiewicz"},
    "nilpotent-minimum": {"family": "nilpotent-minimum"},
    "collapse": {"family": "interval-collapse", "intervals": [["1/5", "1/2"]]},
    "collapse3": {"family": "interval-collapse",
                  "intervals": [["0", "1/8"], ["1/4", "1/2"], ["3/4", "9/10"]]},
}
GRIDS = {
    "grid12": ["--grid", "12"],
    "values": ["--values", "0,1/7,3/14,1/2,5/6,1"],
}
CASES = [(name, grid) for name in TNORMS for grid in GRIDS]


def golden_path(name: str, grid: str) -> Path:
    return GOLDEN / f"check-tnorm-{name}-{grid}.json"


def masked_report(name: str, grid: str) -> str:
    """The JSON report of one run, without ``timing_ms``, as the CLI renders it."""
    with TemporaryDirectory() as tmp:
        path = Path(tmp) / "tnorm.json"
        path.write_text(json.dumps(TNORMS[name]))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check-tnorm", str(path), *GRIDS[grid]])
    assert code == 0
    report = json.loads(out.getvalue())
    del report["timing_ms"]
    return json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("name, grid", CASES, ids=[f"{n}-{g}" for n, g in CASES])
def test_check_tnorm_report_matches_golden(name, grid):
    assert masked_report(name, grid) == golden_path(name, grid).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, grid in CASES:
        golden_path(name, grid).write_text(masked_report(name, grid), encoding="utf-8")
