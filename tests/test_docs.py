"""The documentation layer: docs-site integrity + docstring doctests.

CI builds the site with ``mkdocs build --strict`` (every warning — a
broken nav entry or unresolvable internal link — fails the pipeline).
mkdocs is deliberately not a runtime dependency, so this module
approximates the same checks with the stdlib: tier-1 catches broken
cross-references locally, the strict build catches them again (plus
anything mkdocs-specific) in CI.

The doctest half is the contract-docstring spot-check: the examples
embedded in ``repro.runtime.engines``, ``engine_batched``,
``repro.arrays`` and ``repro.shortest_paths.vectorized`` must execute,
the same module list the CI ``docs`` job doctests.
"""

from __future__ import annotations

import doctest
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"

#: [text](target) — excluding images and external/absolute targets
_LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _strip_code_blocks(text: str) -> str:
    """Fenced code blocks may contain ``[x](y)``-shaped noise."""
    return re.sub(r"```.*?```", "", text, flags=re.DOTALL)


def _slugify(heading: str) -> str:
    """The toc-extension slug for a heading (good enough for ours)."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return re.sub(r"[\s]+", "-", slug).strip("-")


def nav_entries() -> list[str]:
    """``*.md`` paths referenced from the mkdocs nav."""
    text = (ROOT / "mkdocs.yml").read_text()
    nav = text[text.index("\nnav:") :]
    return re.findall(r":\s*([\w\-/]+\.md)\s*$", nav, flags=re.MULTILINE)


class TestDocsSite:
    def test_mkdocs_config_exists_and_is_strict(self):
        text = (ROOT / "mkdocs.yml").read_text()
        assert "strict: true" in text, "CI relies on --strict semantics"

    def test_nav_entries_exist(self):
        entries = nav_entries()
        assert entries, "empty nav"
        for entry in entries:
            assert (DOCS / entry).is_file(), f"nav references missing {entry}"

    def test_no_orphan_pages(self):
        """Every page is reachable from the nav (mkdocs only warns on
        some orphans; we hold the stricter line)."""
        entries = set(nav_entries())
        pages = {p.relative_to(DOCS).as_posix() for p in DOCS.rglob("*.md")}
        assert pages == entries

    @pytest.mark.parametrize(
        "page", sorted(p.name for p in DOCS.glob("*.md"))
    )
    def test_internal_links_resolve(self, page):
        """Relative links (and their anchors) must point at real pages
        and real headings — what `mkdocs build --strict` enforces."""
        text = _strip_code_blocks((DOCS / page).read_text())
        for target in _LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path, _, anchor = target.partition("#")
            dest = DOCS / page if not path else (DOCS / page).parent / path
            assert dest.is_file(), f"{page}: broken link -> {target}"
            if anchor:
                slugs = {
                    _slugify(h)
                    for h in _HEADING_RE.findall(
                        _strip_code_blocks(dest.read_text())
                    )
                }
                assert anchor in slugs, f"{page}: broken anchor -> {target}"

    def test_repo_paths_mentioned_in_docs_exist(self):
        """Docs cite repo files (tests, baselines, workflows); keep the
        citations honest."""
        cited = set()
        for p in DOCS.glob("*.md"):
            cited |= set(
                re.findall(
                    r"`((?:tests|benchmarks|src)/[\w\-./]+?\.(?:py|json))`",
                    p.read_text(),
                )
            )
        assert cited, "expected at least one repo-file citation"
        for rel in sorted(cited):
            assert (ROOT / rel).is_file(), f"docs cite missing file {rel}"

    def test_docs_mention_the_engine_matrix(self):
        """The engines/backends pages must document every entry of the
        two tables — update the docs when adding one."""
        from repro.runtime.engines import ENGINES
        from repro.shortest_paths.backends import BACKENDS

        engines_page = (DOCS / "engines.md").read_text()
        for name in ENGINES:
            assert f"`{name}`" in engines_page, name
        backends_page = (DOCS / "backends.md").read_text()
        for name in BACKENDS:
            assert f"`{name}`" in backends_page, name


#: the modules the CI ``docs`` job doctests
DOCTEST_MODULES = (
    "repro.runtime.engines",
    "repro.runtime.engine_batched",
    "repro.arrays",
    "repro.shortest_paths.vectorized",
    "repro",
    "repro.api",
)


class TestDoctests:
    """The CI doctest spot-check, mirrored locally."""

    def test_ci_step_doctests_the_same_modules(self):
        ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        step = ci.split("python -m doctest", 1)[1].split("- name:", 1)[0]
        paths = re.findall(r"src/(\S+)\.py", step)
        modules = (p.removesuffix("/__init__").replace("/", ".") for p in paths)
        assert tuple(modules) == DOCTEST_MODULES

    @pytest.mark.parametrize("module_name", DOCTEST_MODULES)
    def test_runtime_module_doctests(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        results = doctest.testmod(module, verbose=False)
        assert results.attempted > 0, f"{module_name}: no doctests found"
        assert results.failed == 0
