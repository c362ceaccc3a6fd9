"""The import-boundary lint (``tools/check_service_boundaries.py``) as a test.

Running the linter under pytest makes a boundary regression fail the
test suite, not only the CI lint step.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_service_boundaries.py"


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("check_service_boundaries", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_source_tree_has_no_violations(lint):
    paths = sorted((lint.SRC_ROOT / "repro").rglob("*.py"))
    assert paths
    violations = [v for path in paths for v in lint.check_file(path)]
    assert violations == []


def _write(root: Path, rel: str, text: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def test_frame_import_outside_allowed_prefixes_is_flagged(lint, tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(lint, "SRC_ROOT", tmp_path)
    bad = _write(tmp_path, "repro/dataframe/bad.py",
                 "from ..frame import DataFrame\n")
    violations = lint.check_file(bad)
    assert len(violations) == 1
    assert "repro.frame may only be imported under" in violations[0]
    assert "repro/dataframe/bad.py" in violations[0]


def test_frame_import_via_engine_local_is_allowed(lint, tmp_path, monkeypatch):
    monkeypatch.setattr(lint, "SRC_ROOT", tmp_path)
    good = _write(tmp_path, "repro/dataframe/good.py",
                  "from ..engine.local import DataFrame\n")
    assert lint.check_file(good) == []
    inside = _write(tmp_path, "repro/frame/inner.py",
                    "from . import dtypes\nfrom ..frame import DataFrame\n")
    assert lint.check_file(inside) == []


def test_guarded_service_import_is_flagged(lint, tmp_path, monkeypatch):
    monkeypatch.setattr(lint, "SRC_ROOT", tmp_path)
    bad = _write(tmp_path, "repro/core/executor.py",
                 "from ..services.runner import SubtaskRunner\n")
    violations = lint.check_file(bad)
    assert len(violations) == 1
    assert "SubtaskRunner may only be imported by" in violations[0]
