"""The docs cite only what exists: README's example runs, and every module-qualified name resolves.

A backticked ``qstate.``, ``channels.``, ``infoflow.``, ``geomphase.`` or
``analysis.`` name in README.md or CONVENTIONS.md must be an attribute of
that qflow module, so a deleted or renamed name cannot stay cited.
"""

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "CONVENTIONS.md")
CITED = re.compile(r"`((?:qstate|channels|infoflow|geomphase|analysis)(?:\.\w+)+)")


def cited_names():
    return sorted({(doc, name) for doc in DOCS
                   for name in CITED.findall((ROOT / doc).read_text())})


def test_every_doc_cites_module_names():
    assert {doc for doc, _ in cited_names()} == set(DOCS)


@pytest.mark.parametrize("doc,name", cited_names())
def test_cited_name_resolves(doc, name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"qflow.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), f"{doc} cites `{name}`, which qflow does not define"
        obj = getattr(obj, attr)


def test_readme_python_example_runs():
    (example,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    assert len(out.getvalue().splitlines()) == 2  # the ledger totals and the phase
