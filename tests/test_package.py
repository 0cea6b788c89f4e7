"""The package's public surface as documented: the README's library
example runs as written, facetor exports exactly the names listed here,
the CLI imports none of the slow standard modules, and the test helpers
never check with a bare assert."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import facetor

ROOT = Path(__file__).resolve().parent.parent

EXPORTS = [
    "BigradedTor",
    "CapabilityError",
    "CochainComplex",
    "CoefficientSpec",
    "Complement",
    "HomologyGroup",
    "Integers",
    "Matrix",
    "PairSpec",
    "PrimeField",
    "QQ",
    "Rationals",
    "SimplicialComplex",
    "TaylorComplex",
    "TorClass",
    "TorRing",
    "ZZ",
    "chain_product",
    "compare_blocks",
    "complement_from_complex",
    "complex_from_complement",
    "compress",
    "full_mask",
    "full_subcomplex",
    "homology_at",
    "link",
    "link_cohomology",
    "link_tor",
    "mask_of",
    "maz_cohomology",
    "minimalize",
    "popcount",
    "reduce_cycle",
    "set_str",
    "star",
    "star_tor",
    "taylor_complex",
    "tor_bigraded",
    "vertices",
    "zk_poincare",
]


def _library_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Library use\n+```python\n(.*?)^```", readme, re.S | re.M)
    if match is None:
        raise LookupError("README.md has no python block under '## Library use'")
    return match.group(1)


def test_readme_library_block_runs_as_written():
    block = _library_block()
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    expected = {
        "zk_poincare(P, QQ)": {0: 1, 3: 2, 5: 2, 6: 5, 7: 2},
        "snf_diagonal(M)": [2, 4],
        "M.rows": [[0, 2, 0], [0, 0, 4]],
    }
    lines = block.splitlines()
    for expr, value in expected.items():
        assert eval(expr, namespace) == value
        # the block's comment on that line states the same value
        (line,) = [line for line in lines if line.startswith(expr + " ")]
        assert line.split("#", 1)[1].strip().startswith(repr(value))


def test_exports_are_pinned_and_resolve():
    assert sorted(facetor.__all__) == EXPORTS
    for name in facetor.__all__:
        assert getattr(facetor, name) is not None


def test_cli_imports_no_dataclasses_inspect_or_typing():
    # start-up dominates a CLI command; each of these costs milliseconds
    # (dataclasses brings inspect, ast, dis and tokenize).  -S keeps site
    # from loading typing on its own, and -O stays on when the suite runs
    # under it
    code = "import sys, facetor.cli; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    flags = ["-O"] * sys.flags.optimize
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, *flags, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_helpers_never_assert():
    # pytest rewrites asserts only in test modules, and python -O strips
    # them elsewhere, so a helper that checks must raise
    for name in ("helpers.py", "support.py"):
        tree = ast.parse((ROOT / "tests" / name).read_text(encoding="utf-8"))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert asserts == [], f"tests/{name} asserts at lines {asserts}"
