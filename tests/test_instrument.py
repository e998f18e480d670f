"""Compile-time block coverage: the AST pass, the loader and its cache.

Every target module is compiled with one site append per basic-block
leader (:mod:`repro.coverage.instrument`).  These tests pin where the
sites go, that every traced function really carries them, and that no
import route — a stale plain ``.pyc`` included — can load a target
without them.
"""

import ast
import importlib
import importlib.util
import inspect
import marshal
import os
import pathlib
import shutil
import subprocess
import sys
import textwrap
import types

import pytest

from repro.coverage.instrument import (SINK_NAME, _stable_site,
                                       cache_path, compile_instrumented,
                                       instrumented_code, traced)
from repro.coverage.tracer import TracerCore

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _sites(source, fn_name, *args):
    """Site stream of one call of ``fn_name`` from ``source``,
    instrumented as module ``m``, as ``(line, col)`` pairs."""
    source = textwrap.dedent(source).encode()
    namespace = {}
    exec(compile_instrumented(source, "<test>", "m"), namespace)
    names = {}
    for line_no, line in enumerate(source.decode().splitlines(), 1):
        col = len(line) - len(line.lstrip())
        names[_stable_site("m:%d:%d" % (line_no, col))] = (line_no, col)
    tracer = TracerCore()
    tracer.begin()
    tracer.run(namespace[fn_name], *args)
    return [names[site] for site in tracer._stream]


class TestLeaders:
    SOURCE = """\
        def f(x):
            '''Docstring: not a leader.'''
            y = 1
            if x:
                y = 2
            elif x is None:
                y = 3
            else:
                y = 4
            for i in range(2):
                y += i
            else:
                y += 1
            try:
                y += int("1")
            except ValueError:
                y = 0
            finally:
                y += 2
            return y
        """

    def test_branch_loop_and_try_bodies(self):
        assert _sites(self.SOURCE, "f", True) == [
            (3, 4),            # function body, after the docstring
            (5, 8),            # if body
            (10, 4),           # statement after the if
            (11, 8), (11, 8),  # loop body, once per iteration
            (13, 8),           # loop else
            (14, 4),           # statement after the for
            (15, 8),           # try body
            (19, 8),           # finally body
            (20, 4),           # statement after the try
        ]

    def test_elif_and_else_chains(self):
        assert _sites(self.SOURCE, "f", None)[:3] == [(3, 4), (6, 4),
                                                      (7, 8)]
        assert _sites(self.SOURCE, "f", 0)[:4] == [(3, 4), (6, 4), (9, 8),
                                                   (10, 4)]

    def test_handler_body_is_a_leader(self):
        sites = _sites("""\
            def g():
                try:
                    int("x")
                except ValueError:
                    return 1
            """, "g")
        assert sites == [(2, 4), (3, 8), (5, 8)]

    def test_with_body_and_expressions_get_no_sites(self):
        sites = _sites("""\
            import contextlib

            def h():
                with contextlib.suppress(KeyError):
                    a = [i for i in range(3)]
                    b = (lambda: 1)()
                return a, b
            """, "h")
        # The with statement leads the function body; its own body and
        # the comprehension and lambda inside it add nothing; the
        # statement after the with is a leader.
        assert sites == [(4, 4), (7, 4)]

    def test_module_and_class_bodies_stay_plain(self):
        source = textwrap.dedent("""\
            X = 1
            if X:
                Y = 2

            class C:
                Z = 3

                def method(self):
                    return self.Z
            """).encode()
        tracer = TracerCore()
        namespace = {}
        tracer.begin()
        tracer.run(exec, compile_instrumented(source, "<test>", "m"),
                   namespace)
        assert tracer.stream_pos() == 0
        tracer.run(namespace["C"]().method)
        assert tracer._stream == [_stable_site("m:9:8")]

    def test_docstring_only_function_still_has_an_entry_site(self):
        sites = _sites("""\
            def stub():
                '''Nothing else.'''
            """, "stub")
        assert sites == [(2, 4)]

    def test_sites_name_no_file_path(self):
        code = compile_instrumented(b"def f():\n    return 1\n",
                                    "/some/checkout/m.py", "m")
        other = compile_instrumented(b"def f():\n    return 1\n",
                                     "/elsewhere/m.py", "m")
        assert _consts(code) == _consts(other)


def _consts(code):
    return [c if not isinstance(c, types.CodeType) else _consts(c)
            for c in code.co_consts]


def _traced_module_names():
    names = ["repro.mario.target"]
    for path in sorted((SRC / "repro" / "targets").glob("*.py")):
        if path.stem != "__init__":
            names.append("repro.targets." + path.stem)
    return names


def _code_objects(module):
    """Every code object defined in ``module``, nested ones included."""
    seen = {}

    def add(code):
        if id(code) in seen:
            return
        seen[id(code)] = code
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                add(const)

    def visit(obj):
        for value in vars(obj).values():
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            if isinstance(value, property):
                for accessor in (value.fget, value.fset, value.fdel):
                    if accessor is not None:
                        add(accessor.__code__)
            elif inspect.isfunction(value) and \
                    value.__module__ == module.__name__:
                add(value.__code__)
            elif inspect.isclass(value) and \
                    value.__module__ == module.__name__:
                visit(value)

    visit(module)
    return list(seen.values())


class TestTracedModules:
    def test_traced_set(self):
        names = _traced_module_names()
        assert len(names) == 18
        assert all(traced(name) for name in names)
        assert not traced("repro.targets")
        assert not traced("repro.mario.engine")
        assert not traced("repro.guestos.kernel")

    def test_every_function_names_the_sink(self):
        for name in _traced_module_names():
            module = importlib.import_module(name)
            checked = 0
            for code in _code_objects(module):
                if code.co_filename != module.__file__:
                    continue  # generated (a dataclass __init__)
                if code.co_name.startswith("<"):
                    continue  # lambdas and comprehensions: expressions
                assert SINK_NAME in code.co_names, (name, code.co_name)
                checked += 1
            # Every def statement of the module was reached.
            with open(module.__file__, "rb") as handle:
                tree = ast.parse(handle.read())
            defs = sum(isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                       for node in ast.walk(tree))
            assert checked == defs, name


def _copy_src(dest):
    shutil.copytree(SRC, dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _python(src, code, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return subprocess.run([sys.executable, "-c", code], cwd=str(cwd),
                          env=env, capture_output=True, text=True,
                          timeout=300)


class TestLoading:
    def test_stale_plain_pyc_is_never_loaded(self, tmp_path):
        import py_compile
        src = _copy_src(tmp_path / "src")
        target = src / "repro" / "targets" / "lightftp.py"
        # A plain .pyc that is valid by mtime: what an older checkout
        # leaves behind for every unchanged target file.
        py_compile.compile(str(target), cfile=importlib.util.cache_from_source(
            str(target)), doraise=True)
        proc = _python(src, textwrap.dedent("""\
            import repro.targets.lightftp as m
            code = m.LightFtpServer.handle_message.__code__
            print(%r in code.co_names)
            """ % SINK_NAME), tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"]

    def test_cache_is_written_beside_the_plain_pyc(self, tmp_path):
        src = _copy_src(tmp_path / "src")
        proc = _python(src, "import repro.targets.lighttpd", tmp_path)
        assert proc.returncode == 0, proc.stderr
        target = str(src / "repro" / "targets" / "lighttpd.py")
        cached = cache_path(target)
        assert cached.endswith(".blocks.pyc")
        assert os.path.dirname(cached) == os.path.dirname(
            importlib.util.cache_from_source(target))
        assert os.path.exists(cached)
        assert not [p for p in os.listdir(os.path.dirname(cached))
                    if p.endswith(".tmp")]

    def test_cache_from_another_checkout_names_this_one(self, tmp_path):
        # The cache key leaves the path out, so a copied or moved
        # checkout (or a restored CI cache) serves code compiled at
        # another path; its file names must still be this checkout's.
        first = _copy_src(tmp_path / "a" / "src")
        proc = _python(first, "import repro.targets.base", tmp_path)
        assert proc.returncode == 0, proc.stderr
        second = tmp_path / "b" / "src"
        shutil.copytree(first, second)  # __pycache__ included
        source = second / "repro" / "targets" / "base.py"
        assert os.path.exists(cache_path(str(source)))
        proc = _python(second, textwrap.dedent("""\
            import types
            import repro.targets.base as m

            def walk(code):
                yield code
                for const in code.co_consts:
                    if isinstance(const, types.CodeType):
                        yield from walk(const)

            code = m.__loader__.get_code(m.__name__)
            names = {c.co_filename for c in walk(code)}
            names.add(m.MessageServer.poll.__code__.co_filename)
            print("\\n".join(sorted(names)))
            """), tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [str(source)]

    def test_cache_follows_the_source(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", False)
        path = tmp_path / "m.py"
        path.write_bytes(b"def f():\n    return 1\n")
        first = instrumented_code("m", str(path), path.read_bytes())
        assert os.path.exists(cache_path(str(path)))
        path.write_bytes(b"def f():\n    x = 2\n    return x\n")
        second = instrumented_code("m", str(path), path.read_bytes())
        namespace = {}
        exec(second, namespace)
        assert namespace["f"]() == 2
        assert _consts(first) != _consts(second)

    def test_stale_cache_is_rebuilt(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", False)
        path = tmp_path / "m.py"
        path.write_bytes(b"def f():\n    return 1\n")
        instrumented_code("m", str(path), path.read_bytes())
        stale = compile_instrumented(b"def f():\n    return 2\n",
                                     str(path), "m")
        with open(cache_path(str(path)), "r+b") as handle:
            handle.seek(20)  # past the key: another build's code
            handle.write(marshal.dumps(stale))
            handle.truncate()
        # The key still matches, so the tampered code is served ...
        namespace = {}
        exec(instrumented_code("m", str(path), path.read_bytes()), namespace)
        assert namespace["f"]() == 2
        # ... until the key no longer does: then the cache is rebuilt.
        with open(cache_path(str(path)), "r+b") as handle:
            handle.write(b"\0" * 20)
        exec(instrumented_code("m", str(path), path.read_bytes()), namespace)
        assert namespace["f"]() == 1

    def test_no_cache_written_without_bytecode(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        path = tmp_path / "m.py"
        path.write_bytes(b"def f():\n    return 1\n")
        instrumented_code("m", str(path), path.read_bytes())
        assert not os.path.exists(cache_path(str(path)))

    @pytest.mark.parametrize("module", ["repro.targets.base",
                                        "repro.mario.target"])
    def test_direct_submodule_import_is_instrumented(self, tmp_path, module):
        src = _copy_src(tmp_path / "src")
        proc = _python(src, textwrap.dedent("""\
            import importlib, sys
            m = importlib.import_module(%r)
            print(type(m.__loader__).__name__)
            print(%r in vars(m))
            """ % (module, SINK_NAME)), tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[1] == "True"
        assert proc.stdout.split()[0].startswith("Instrumenting")
