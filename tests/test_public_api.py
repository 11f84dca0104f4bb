"""The public API in skewcodes.__all__, the README's library example and its
plain `python -m pytest` from a checkout."""

import contextlib
import io
import os
import pathlib
import re
import subprocess
import sys

import skewcodes

ROOT = pathlib.Path(__file__).parent.parent
README = ROOT / "README.md"


# Changing the public API is deliberate: edit this list and README.md together.
PUBLIC_API = [
    "FieldElement",
    "FieldSpec",
    "ModulusSpec",
    "RingElement",
    "SkewCode",
    "SkewPoly",
    "build_code",
    "components_from_words",
    "dual_code",
    "dual_generator",
    "dual_idempotent",
    "extract_components",
    "fq_poly",
    "from_components",
    "generator_basis_words",
    "gray_image_code",
    "gray_map",
    "gray_permuted",
    "idempotent_generator",
    "idempotents",
    "is_closed_under",
    "is_right_divisor",
    "is_self_dual",
    "lee_weight",
    "make_field",
    "min_distance",
    "r_poly",
    "right_divisor_search",
    "right_divmod",
    "ring_one",
    "ring_zero",
    "self_dual_constant_check",
    "verify_decomposition_theorem",
]


def test_public_api_is_the_listed_names():
    assert sorted(skewcodes.__all__) == PUBLIC_API


def test_every_public_name_resolves():
    missing = [name for name in skewcodes.__all__ if not hasattr(skewcodes, name)]
    assert missing == []
    assert len(set(skewcodes.__all__)) == len(skewcodes.__all__)


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue() == "16 12 2\nTrue\n"


def test_plain_pytest_collects_from_a_checkout():
    """pyproject.toml puts src on the path, so no PYTHONPATH is needed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "tests/test_distance.py::test_lookup_sweep_matches_the_per_support_loop" in proc.stdout
