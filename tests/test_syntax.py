"""Every Python file of the project parses as Python 3.10, the oldest version
that pyproject.toml and the CI matrix claim; a newer interpreter runs the
rest of the tests, so only this check holds newer syntax out."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for top in ("src", "tests", "perfbench")
                 for path in (ROOT / top).rglob("*.py"))


def test_every_source_directory_is_read():
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == {"src", "tests", "perfbench"}
    assert Path(__file__).resolve() in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
