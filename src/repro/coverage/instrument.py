"""Compile-time block coverage for the guest targets (paper §4.5).

AFL instruments the target when it is compiled: every basic block gets
a precomputed id and a few instructions that record it.  This module
does the same to the Python targets as they are imported.  An AST pass
puts one site append before every basic-block *leader*:

* the first statement of a function body (after its docstring);
* the first statement of an ``if``/``elif``/``else`` body, of a loop
  body or loop ``else``, of a ``try``/``except``/``else``/``finally``
  body and of a ``match`` case;
* the statement after any compound statement.

Only statements get sites; expressions such as lambdas and
comprehensions do not.  Module and class bodies run at import, never
inside a trace window, so they stay uninstrumented (the functions
defined in them are instrumented).

A site is ``_stable_site("<module>:<line>:<col>")`` of its leader.  No
file path enters it, and the AST's statement positions are the same on
every supported interpreter, so every checkout and every Python version
runs the same campaign.

Instrumented code calls one process-wide sink, ``__nyx_sink__.hit(site)``
(:data:`SINK`).  Outside a trace window the sink discards; the tracer
(:meth:`repro.coverage.tracer.TracerCore.run`) points it at its own
site stream for the window.  Nothing is hooked into the interpreter,
so the kernel syscalls and library calls the target makes run at full
speed.

Loading: :func:`install` puts an :class:`InstrumentingFinder` first on
``sys.meta_path``.  ``repro.targets`` and ``repro.mario`` call it
before they import any submodule, so every import route — including a
finder some embedding process put on ``sys.meta_path`` earlier — loads
the traced modules (:func:`traced`) instrumented.  The instrumented
code is cached beside the plain ``.pyc`` under its own name
(``<name>.<cache tag>.blocks.pyc``), keyed on the source bytes and on
this module's own source; the plain ``.pyc`` of a traced module is
never read.
"""

from __future__ import annotations

import ast
import hashlib
import marshal
import os
import sys
from functools import lru_cache
from importlib.machinery import SourceFileLoader
from importlib.util import (MAGIC_NUMBER, cache_from_source, find_spec,
                            module_from_spec, spec_from_file_location)
from typing import Iterator, List, Tuple

#: Global name instrumented code reaches the sink through.  Dunder on
#: both sides, so class bodies do not mangle it.
SINK_NAME = "__nyx_sink__"

#: Source of every instrumented module's sink binding.
_SINK_IMPORT = "from repro.coverage.instrument import SINK as %s" % SINK_NAME

def _stable_site(text: str) -> int:
    """FNV-1a site hash, stable across processes.

    Built-in ``hash`` of strings is randomized per process and ``id()``
    is a memory address: deriving edge indices from either makes two
    same-seed campaign runs disagree on their coverage maps (the
    determinism self-lint's NYX02x family exists to keep exactly this
    class of leak out of the fuzzer).
    """
    value = 0x811C9DC5
    for byte in text.encode():
        value = ((value ^ byte) * 0x01000193) & 0xFFFFFFFF
    return value


#: A C-level no-op for one site: the sink outside every trace window.
DISCARD = set().discard


class _Sink:
    """Where instrumented code sends its sites: ``hit`` is the live
    stream's ``append`` inside a trace window, :data:`DISCARD` outside."""

    __slots__ = ("hit",)

    def __init__(self) -> None:
        self.hit = DISCARD

#: The process-wide sink.  The campaign loop is single-threaded (fleet
#: workers step in turn), so one is enough.
SINK = _Sink()


def traced(fullname: str) -> bool:
    """Whether module ``fullname`` is a guest target, loaded
    instrumented.  The Mario *engine* is deliberately absent: like
    IJON's experiment, game progress feedback comes from the IJON state
    annotation, not from coverage of the physics loop."""
    return (fullname.startswith("repro.targets.")
            or fullname == "repro.mario.target")


# ----------------------------------------------------------------------
# the AST pass
# ----------------------------------------------------------------------

def _is_docstring(stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


class _BlockPass:
    """Inserts the site appends into one module's AST, in place."""

    def __init__(self, module: str) -> None:
        self.module = module

    def _site(self, leader):
        site = _stable_site("%s:%d:%d" % (self.module, leader.lineno,
                                          leader.col_offset))
        hit = ast.Attribute(ast.Name(SINK_NAME, ast.Load()), "hit",
                            ast.Load())
        return ast.copy_location(
            ast.Expr(ast.Call(hit, [ast.Constant(site)], [])), leader)

    def function(self, fn) -> None:
        body = fn.body
        doc = body[:1] if _is_docstring(body[0]) else []
        rest = body[len(doc):]
        fn.body = doc + (self._block(rest, True) if rest
                         else [self._site(body[0])])

    def _block(self, stmts: List, leader: bool) -> List:
        out = []
        for stmt in stmts:
            if leader:
                out.append(self._site(stmt))
            out.append(stmt)
            leader = self._enter(stmt)
        return out

    def _enter(self, stmt) -> bool:
        """Instrument the bodies nested in ``stmt``; True when it is a
        compound statement (so the next statement is a leader)."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.function(stmt)
        elif isinstance(stmt, ast.ClassDef):
            self.uninstrumented(stmt.body)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            stmt.body = self._block(stmt.body, False)
        elif hasattr(stmt, "body") or hasattr(stmt, "cases"):
            for node, field in _bodies(stmt):
                setattr(node, field, self._block(getattr(node, field), True))
        else:
            return False
        return True

    def uninstrumented(self, stmts: List) -> None:
        """A module or class body: no sites of its own, but every
        function defined in it is instrumented."""
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.function(stmt)
                continue
            for node, field in _bodies(stmt):
                self.uninstrumented(getattr(node, field))


def _bodies(stmt) -> Iterator[Tuple[object, str]]:
    """``(node, field)`` of every non-empty statement list directly in
    ``stmt``, its ``except`` handlers and its ``match`` cases."""
    for node in [stmt, *getattr(stmt, "handlers", ()),
                 *getattr(stmt, "cases", ())]:
        for field in ("body", "orelse", "finalbody"):
            if getattr(node, field, None):
                yield node, field


def compile_instrumented(source: bytes, path: str, module: str):
    """Compile ``source`` as module ``module`` with block sites."""
    tree = ast.parse(source, path)
    _BlockPass(module).uninstrumented(tree.body)
    # The sink binding goes after the docstring and any __future__
    # imports, which must stay first.
    at = 1 if tree.body and _is_docstring(tree.body[0]) else 0
    while (at < len(tree.body) and isinstance(tree.body[at], ast.ImportFrom)
           and tree.body[at].module == "__future__"):
        at += 1
    tree.body.insert(at, ast.parse(_SINK_IMPORT).body[0])
    return compile(ast.fix_missing_locations(tree), path, "exec",
                   dont_inherit=True)


# ----------------------------------------------------------------------
# bytecode cache
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _instrumenter_digest() -> bytes:
    """This module's own source: part of every cache key, so a change
    to the pass (or to the site formula) never serves stale code."""
    with open(__file__, "rb") as handle:
        return hashlib.sha1(handle.read()).digest()


def cache_path(path: str) -> str:
    """The instrumented-code cache file of source file ``path``."""
    return cache_from_source(path)[:-len(".pyc")] + ".blocks.pyc"


def instrumented_code(module: str, path: str, source: bytes):
    """Module ``module``'s instrumented code, from the cache when the
    cached copy was built from these source bytes by this instrumenter."""
    key = hashlib.sha1(MAGIC_NUMBER + _instrumenter_digest()
                       + module.encode() + b"\0" + source).digest()
    cached = cache_path(path)
    try:
        with open(cached, "rb") as handle:
            data = handle.read()
        if data[:len(key)] == key:
            return marshal.loads(data[len(key):])
    except (OSError, EOFError, ValueError, TypeError):
        pass  # missing or damaged: rebuild it
    code = compile_instrumented(source, path, module)
    if not sys.dont_write_bytecode:
        _write_cache(cached, key + marshal.dumps(code))
    return code


def _write_cache(path: str, data: bytes) -> None:
    """Atomically replace ``path``; a cache that cannot be written
    (read-only tree) is skipped, as CPython skips its own."""
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


# ----------------------------------------------------------------------
# import machinery
# ----------------------------------------------------------------------

class _Instrumenting:
    """Loader mixin: compile the module with block sites (through the
    cache) instead of reading its plain ``.pyc``."""

    def get_code(self, fullname):
        path = self.get_filename(fullname)
        return instrumented_code(fullname, path, self.get_data(path))


@lru_cache(maxsize=None)
def _instrumenting_class(cls: type) -> type:
    """``cls`` with :class:`_Instrumenting` in front of it: whatever
    else the original loader does on load still happens."""
    return type("Instrumenting" + cls.__name__, (_Instrumenting, cls), {})


class InstrumentingFinder:
    """Meta-path finder for the traced modules.

    It asks the other finders on ``sys.meta_path`` for the module's
    spec and makes that spec's source loader instrument.  A traced
    module without a source loader is an import error, never an
    uninstrumented module.
    """

    def find_spec(self, fullname, path=None, target=None):
        if not traced(fullname):
            return None
        for finder in sys.meta_path:
            find = getattr(finder, "find_spec", None)
            if isinstance(finder, InstrumentingFinder) or find is None:
                continue
            spec = find(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        if not isinstance(spec.loader, SourceFileLoader):
            raise ImportError("cannot instrument %s: %r is not a source "
                              "loader" % (fullname, spec.loader),
                              name=fullname)
        spec.loader.__class__ = _instrumenting_class(type(spec.loader))
        spec.cached = cache_path(spec.origin)
        return spec


def install() -> None:
    """Put the instrumenting finder first on ``sys.meta_path`` (once)."""
    if not any(isinstance(finder, InstrumentingFinder)
               for finder in sys.meta_path):
        sys.meta_path.insert(0, InstrumentingFinder())


def load(name: str):
    """Module ``name`` compiled with block sites, as module
    ``<name>_traced``: how code that is not a target (a test fixture)
    gets traced next to its plain copy.

    The copy is registered in ``sys.modules``, so the guest programs it
    defines pickle into guest memory like any other.
    """
    traced_name = name + "_traced"
    module = sys.modules.get(traced_name)
    if module is None:
        origin = find_spec(name).origin
        loader = _instrumenting_class(SourceFileLoader)(traced_name, origin)
        module = module_from_spec(spec_from_file_location(
            traced_name, origin, loader=loader))
        sys.modules[traced_name] = module
        loader.exec_module(module)
    return module
