"""One parse per module per ``repro analyze`` pass.

The four AST lints (selflint, resetlint, durlint, hotlint) read the
same source tree.  A :class:`SourceTree` lists a root's ``.py`` files
once and parses each module on first use, keeping any ``SyntaxError``
so every family still reports it under its own code.  The model lives
for one pass, and a module's text is dropped once parsed.
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize
from typing import Dict, List, Optional, Set, Union

from repro.analysis.diagnostics import MARKER_RES, Diagnostic


def _marker_comment_lines(text: str) -> Set[int]:
    """Lines whose actual comment (not a string literal) carries the
    hot marker."""
    lines: Set[int] = set()
    hot_re = MARKER_RES["hot"]
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if (tok.type == tokenize.COMMENT
                    and hot_re.search(tok.string)):
                lines.add(tok.start[0])
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # the AST parse reports the breakage
    return lines


class Module:
    """One source file as every lint family reads it."""

    def __init__(self, filename: str, text: str) -> None:
        self.filename = filename
        self.lines = text.splitlines()
        #: Lines whose comment carries the hot marker.  A comment token
        #: is a substring of the text, so a text without the marker has
        #: none and is not tokenized.
        self.hot_lines: Set[int] = (
            _marker_comment_lines(text) if MARKER_RES["hot"].search(text)
            else set())
        #: ``ClassDef`` -> resetlint's ``ClassRecord``, built on first use.
        self.classes: Dict[ast.ClassDef, object] = {}
        self.tree: Optional[ast.Module] = None
        self.error: Optional[SyntaxError] = None
        try:
            # A call through the module attribute, which the benchmark
            # wraps to count and time parses.
            self.tree = ast.parse(text, filename=filename)
        except SyntaxError as err:
            self.error = err

    def parse_error(self, code: str, consequence: str = ""
                    ) -> Optional[Diagnostic]:
        """A family's ``code`` finding if the module does not parse."""
        if self.error is None:
            return None
        return Diagnostic(code, "unparseable module: %s%s"
                          % (self.error, consequence), file=self.filename,
                          line=self.error.lineno or 0)


class SourceTree:
    """The ``.py`` files under one root, each parsed at most once.

    ``readers`` is the number of tree entry points that will read the
    model.  Each calls :meth:`done` once it has what it needs, and the
    last one drops every parse, so they are freed inside a lint.
    """

    def __init__(self, root: str, readers: int = 1) -> None:
        self.root = pathlib.Path(root)
        self.readers = readers
        self._paths: Optional[List[pathlib.Path]] = None
        self._modules: Dict[pathlib.Path, Module] = {}

    def paths(self) -> List[pathlib.Path]:
        """Sorted ``.py`` files under the root, outside ``__pycache__``."""
        if self._paths is None:
            self._paths = [
                p for p in sorted(self.root.rglob("*.py"))
                if "__pycache__" not in p.relative_to(self.root).parts]
        return self._paths

    def module(self, path: pathlib.Path) -> Module:
        module = self._modules.get(path)
        if module is None:
            module = self._modules[path] = Module(
                str(path), path.read_text(encoding="utf-8"))
        return module

    def done(self) -> None:
        self.readers -= 1
        if not self.readers:
            self._modules.clear()


#: What a tree entry point accepts: a directory or the pass's model.
Root = Union[str, SourceTree]


def source_tree(root: Root) -> SourceTree:
    """``root`` itself when it is a model, else a fresh one."""
    return root if isinstance(root, SourceTree) else SourceTree(root)
