"""Docs integrity: every relative link in the repo's markdown resolves.

Runs the same checker CI's docs-gate runs (``tools/check_docs.py``), so a
renamed file or heading breaks the build before it breaks a reader.
"""

import os
import sys

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..")
)
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

from check_docs import broken_links  # noqa: E402


def test_no_broken_links_in_docs():
    assert broken_links(REPO_ROOT) == []


def test_docs_tree_exists():
    for name in ("architecture.md", "cost-models.md"):
        assert os.path.isfile(os.path.join(REPO_ROOT, "docs", name)), name
