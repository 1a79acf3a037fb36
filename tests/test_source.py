"""Static checks on the package source."""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "giantnet"

# Names that exist only from NumPy 2.0 on; pyproject.toml declares numpy>=1.24.
NUMPY2_ONLY = {
    ".mT": r"\.mT\b",
    "vecdot": r"\bvecdot\b",
    "matrix_transpose": r"\bmatrix_transpose\b",
    "np.astype": r"\bnp\.astype\b",
    "unstack": r"\bunstack\b",
}


@pytest.mark.parametrize("name", sorted(NUMPY2_ONLY))
def test_source_uses_no_numpy2_only_name(name):
    pattern = re.compile(NUMPY2_ONLY[name])
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not hits, f"{name} needs NumPy >= 2.0:\n" + "\n".join(hits)


def test_the_floor_is_still_declared():
    # The check above is meaningful only while the package promises NumPy 1.x.
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text()
    assert '"numpy>=1.24"' in pyproject
