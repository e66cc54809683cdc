"""Every backticked `module.name` of the package in the user documents must
name an attribute of `mipt_qfi.<module>`, so that a renamed or deleted
function or constant fails here, not in a reader's hands.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import mipt_qfi

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = ("README.md", "docs/configuration.md")
MODULES = sorted(info.name for info in pkgutil.iter_modules(mipt_qfi.__path__))
REFERENCE = re.compile(rf"`({'|'.join(MODULES)})\.([A-Za-z_][A-Za-z0-9_]*)`")


def references(document):
    text = (ROOT / document).read_text()
    return sorted(set(REFERENCE.findall(text)))


@pytest.mark.parametrize("document", DOCUMENTS)
def test_document_names_package_attributes(document):
    found = references(document)
    assert found, f"no `module.name` reference in {document}"
    missing = [
        f"{module}.{name}" for module, name in found
        if not hasattr(importlib.import_module(f"mipt_qfi.{module}"), name)
    ]
    assert not missing, f"{document} names what the package lacks: {missing}"
