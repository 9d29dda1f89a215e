"""Certificate checks raise InvariantError, also under ``python -O``.

Each script breaks one certificate and runs in an optimized subprocess,
where an ``assert`` would be skipped.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# name -> (script that breaks one certificate, text of the InvariantError)
BROKEN = {
    # every tail value reads 1, so "x" passes as a bilimit but hom(x,y) = 1/2
    "find_bilimit": ("""
        from tnormcat import RCat, TailSeq, completeness
        completeness.tail_value = lambda seq, x, direction="from-seq": 1
        cat = RCat(("x", "y"), ((1, "1/2"), (0, 1)))
        completeness.find_bilimit(TailSeq(cat, (), ("x",)))
    """, "fails its certificate at 'y'"),
    # every tail value reads 0, so no element matches the tails, not even x
    # with hom(x,x) = 1
    "find_yoneda_limit": ("""
        from tnormcat import RCat, TailSeq, completeness
        completeness.tail_value = lambda seq, x, direction="from-seq": 0
        cat = RCat(("x",), ((1,),))
        completeness.find_yoneda_limit(TailSeq(cat, (), ("x",)))
    """, "has no Yoneda limit"),
    # hom(y,y) = 1/2 in the two-point base moves h(y) off the C1 right side
    "counterexample": ("""
        from fractions import Fraction
        from tnormcat import categories, product_tnorm
        categories.ONE = Fraction(1, 2)
        categories.counterexample(product_tnorm(), Fraction(3, 4), Fraction(9, 10), Fraction(1, 2))
    """, "differs from the C1 right side"),
}

SCRIPT = """
import sys
from tnormcat import InvariantError
if not sys.flags.optimize:
    sys.exit("asserts are on")
try:
{body}
except InvariantError as exc:
    print("InvariantError:", exc)
"""


@pytest.mark.parametrize("name", BROKEN)
def test_broken_certificate_raises_under_optimize(name):
    script, message = BROKEN[name]
    body = textwrap.indent(textwrap.dedent(script).strip(), "    ")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT.format(body=body)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("InvariantError:"), proc.stdout
    assert message in proc.stdout
