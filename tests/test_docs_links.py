"""Documentation health checks: links, CLI coverage, serve docstrings.

Docs rot silently — a renamed file leaves `[text](old/path.md)` links that
404 for every reader.  This suite walks every tracked ``*.md`` file in the
repo and fails on relative links whose targets don't exist, pins the
README + serving/operations docs to the surface they promise to cover
(endpoints and operator CLI flags), and audits every public symbol in
``repro.serve.*`` for a docstring — the serving stack is the repo's
operator-facing API, and an undocumented public function there is a doc
bug, not a style nit.
"""

import inspect
import pkgutil
import re
from importlib import import_module
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Inline markdown links: [text](target) — target captured without title.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")


def _markdown_files():
    files = sorted(REPO_ROOT.glob("*.md")) + sorted(REPO_ROOT.glob("docs/**/*.md"))
    assert files, "no markdown files found — wrong repo root?"
    return files


def _relative_links(path: Path):
    """(link, resolved target) pairs for every relative link in ``path``."""
    for target in _LINK.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        yield target, resolved


class TestRelativeLinks:
    @pytest.mark.parametrize("md", _markdown_files(),
                             ids=lambda p: str(p.relative_to(REPO_ROOT)))
    def test_no_dangling_relative_links(self, md):
        dangling = [link for link, resolved in _relative_links(md)
                    if not resolved.exists()]
        assert not dangling, (
            f"{md.relative_to(REPO_ROOT)} has dangling relative links: {dangling}")

    def test_docs_are_actually_linked(self):
        """README must reach the serving doc, the roadmap, and the paper."""
        readme = (REPO_ROOT / "README.md").read_text()
        for target in ("docs/serving.md", "ROADMAP.md", "PAPER.md",
                       "docs/operations.md", "docs/architecture.md"):
            assert target in readme, f"README.md does not link {target}"

    def test_serving_doc_links_operations_doc(self):
        """The architecture page and the operator's guide must reference
        each other — a reader landing on either finds the other."""
        serving = (REPO_ROOT / "docs" / "serving.md").read_text()
        operations = (REPO_ROOT / "docs" / "operations.md").read_text()
        assert "operations.md" in serving
        assert "serving.md" in operations
        assert "architecture.md" in serving


class TestCliCoverage:
    def _subcommands(self):
        """Every registered ``repro`` subcommand name, from the parser."""
        from repro import cli

        source = Path(cli.__file__).read_text()
        return sorted(set(re.findall(r"add_parser\(\s*\"(\w[\w-]*)\"", source)))

    def test_readme_covers_every_subcommand(self):
        readme = (REPO_ROOT / "README.md").read_text()
        missing = [cmd for cmd in self._subcommands()
                   if f"repro {cmd}" not in readme]
        assert not missing, f"README.md does not document: {missing}"
        assert self._subcommands(), "no subcommands found in cli.py"

    def test_serving_doc_covers_http_endpoints(self):
        doc = (REPO_ROOT / "docs" / "serving.md").read_text()
        for endpoint in ("/advise", "/advise/batch", "/healthz", "/stats",
                         "/reload", "/canary", "/canary/promote",
                         "/canary/rollback"):
            assert endpoint in doc, f"docs/serving.md missing {endpoint}"

    def test_operations_doc_covers_operator_surface(self):
        """The operator's guide must document every operability CLI flag
        and every endpoint an operator touches."""
        doc = (REPO_ROOT / "docs" / "operations.md").read_text()
        for flag in ("--watch", "--min-shards", "--max-shards",
                     "--gate-margin", "--shards", "--canary",
                     "--canary-fraction", "--request-timeout",
                     "--max-body-bytes"):
            assert flag in doc, f"docs/operations.md missing flag {flag}"
        for endpoint in ("/healthz", "/stats", "/reload", "/canary",
                         "/canary/promote", "/canary/rollback"):
            assert endpoint in doc, f"docs/operations.md missing {endpoint}"
        for concept in ("model_version", "hysteresis", "cooldown", "gating",
                        "canary", "promote", "rollback", "latency_high_ms",
                        "circuit breaker", "retry-after", "restart budget",
                        "degraded", "deadline_exceeded", "crash loop"):
            assert concept in doc.lower(), (
                f"docs/operations.md missing {concept}")

    def test_operability_flags_exist_in_cli(self):
        """The flags the docs promise must actually be registered — a doc
        describing a removed flag is worse than no doc."""
        from repro import cli

        source = Path(cli.__file__).read_text()
        for flag in ("--watch", "--min-shards", "--max-shards",
                     "--gate-margin", "--canary", "--canary-fraction",
                     "--request-timeout", "--max-body-bytes"):
            assert f'"{flag}"' in source, f"cli.py lost {flag}"

    def test_architecture_doc_maps_every_package(self):
        """docs/architecture.md must name every top-level repro package
        and trace the /advise request path."""
        doc = (REPO_ROOT / "docs" / "architecture.md").read_text()
        pkg_root = REPO_ROOT / "src" / "repro"
        packages = sorted(p.name for p in pkg_root.iterdir()
                          if p.is_dir() and (p / "__init__.py").is_file())
        assert len(packages) >= 10, "package scan looks wrong"
        missing = [pkg for pkg in packages if f"`{pkg}/`" not in doc]
        assert not missing, f"docs/architecture.md missing packages: {missing}"
        assert "/advise" in doc, "request path walk-through missing"
        assert "`cli.py`" in doc


class TestServeDocstrings:
    """Every public symbol in repro.serve.* carries a docstring.

    Public = importable without a leading underscore and *defined* in the
    module (re-exports are audited where they are defined).  Classes are
    audited recursively: public methods, properties, class/static methods.
    """

    def _serve_modules(self):
        import repro.serve

        yield repro.serve
        for info in pkgutil.iter_modules(repro.serve.__path__):
            yield import_module(f"repro.serve.{info.name}")

    def _undocumented_in_class(self, cls, qualname):
        for name, member in vars(cls).items():
            if name.startswith("_"):
                continue
            target = None
            if isinstance(member, property):
                target = member.fget
            elif isinstance(member, (classmethod, staticmethod)):
                target = member.__func__
            elif inspect.isfunction(member):
                target = member
            if target is not None and not inspect.getdoc(target):
                yield f"{qualname}.{name}"

    def test_every_public_serve_symbol_has_docstring(self):
        missing = []
        for module in self._serve_modules():
            if not inspect.getdoc(module):
                missing.append(module.__name__)
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-export; audited where defined
                if inspect.isclass(obj):
                    if not inspect.getdoc(obj):
                        missing.append(f"{module.__name__}.{name}")
                    missing.extend(self._undocumented_in_class(
                        obj, f"{module.__name__}.{name}"))
                elif inspect.isfunction(obj) and not inspect.getdoc(obj):
                    missing.append(f"{module.__name__}.{name}")
        assert not missing, (
            "public serve symbols without docstrings: "
            + ", ".join(sorted(missing)))

    def test_audit_actually_sees_the_surface(self):
        """Guard the auditor itself: it must walk all seven serve modules
        and a healthy sample of known-public symbols."""
        names = {m.__name__ for m in self._serve_modules()}
        assert names == {"repro.serve", "repro.serve.api",
                         "repro.serve.chaos",
                         "repro.serve.engine", "repro.serve.http_api",
                         "repro.serve.metrics", "repro.serve.registry",
                         "repro.serve.sharding"}
