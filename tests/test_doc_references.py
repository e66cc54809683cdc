"""Every backticked `module.name` of the package in the user documents and in
the package's own docstrings and comments must name an attribute of
`mipt_qfi.<module>`, and every backticked `mipt_qfi.name` an attribute of
the package, so that a renamed or deleted function or constant fails here,
not in a reader's hands.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import mipt_qfi

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(str(path.relative_to(ROOT)) for path in (ROOT / "src" / "mipt_qfi").glob("*.py"))
DOCUMENTS = ("README.md", "docs/configuration.md")
MODULES = sorted(info.name for info in pkgutil.iter_modules(mipt_qfi.__path__))
REFERENCE = re.compile(rf"`(mipt_qfi|{'|'.join(MODULES)})\.([A-Za-z_][A-Za-z0-9_]*)`")


def references(document):
    text = (ROOT / document).read_text()
    return sorted(set(REFERENCE.findall(text)))


def missing(found):
    """The references in `found` whose module lacks the name."""
    return [
        f"{module}.{name}" for module, name in found
        if not hasattr(mipt_qfi if module == "mipt_qfi" else importlib.import_module(f"mipt_qfi.{module}"), name)
    ]


@pytest.mark.parametrize("document", DOCUMENTS)
def test_document_names_package_attributes(document):
    found = references(document)
    assert found, f"no `module.name` reference in {document}"
    assert not missing(found), f"{document} names what the package lacks: {missing(found)}"


@pytest.mark.parametrize("source", SOURCES)
def test_source_names_package_attributes(source):
    found = references(source)
    assert not missing(found), f"{source} names what the package lacks: {missing(found)}"
