"""Every name a module imports is used in it, every private helper of the
package is used somewhere in it, and every public name of the package, and
every public method and property of its public classes, is read by the
package or the benchmark, not by the tests alone. Run as a script, it prints
the code lines (code_lines) of every module of the package and their sum."""

import ast
import io
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the package's __init__ imports names only to re-export them
FILES = sorted(p for p in (ROOT / "src" / "sino").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that the module's imports bind and nothing else mentions."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    source = "import os\nfrom a.b import c as d, e\nimport x.y\n\nprint(e, x.y)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: d"]


SRC = {p.name: p for p in sorted((ROOT / "src" / "sino").glob("*.py"))}


def module_names(tree: ast.Module) -> dict[str, int]:
    """The module-level names (def, class or assignment) and their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        names[n.id] = node.lineno
    return names


def names_read(tree: ast.Module) -> set[str]:
    """The names a module reads, as a name or as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def orphaned_helpers(sources: dict[str, str]) -> list[str]:
    """The module-level _names that no module of sources reads, as a name
    or as an attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set().union(*map(names_read, trees.values()))
    return [f"{name} line {line}: {helper}" for name, tree in trees.items()
            for helper, line in module_names(tree).items()
            if helper.startswith("_") and not helper.startswith("__") and helper not in used]


def test_no_orphaned_private_helpers():
    assert orphaned_helpers({name: p.read_text() for name, p in SRC.items()}) == []


def test_the_scan_sees_an_orphaned_helper():
    sources = {
        "a.py": "def _used():\n    pass\ndef _orphan():\n    pass\n_X = 1\n_Y: int = 2\n"
                "class _C:\n    pass\n__all__ = []\n",
        "b.py": "from . import a\n\na._used()\nprint(_Y)\n",
    }
    assert orphaned_helpers(sources) == ["a.py line 3: _orphan", "a.py line 5: _X",
                                         "a.py line 7: _C"]


PERFBENCH = {p.name: p for p in sorted((ROOT / "perfbench").glob("*.py"))}


def names_read_or_patched(trees) -> set[str]:
    """The names trees read: as a name, an attribute, an imported name or a
    string constant, since the benchmark's tracer patches functions by name."""
    used = set()
    for tree in trees:
        used |= names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def unread_public_names(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """The module-level public names of sources that neither sources nor
    readers read (names_read_or_patched)."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = names_read_or_patched([*trees.values(), *map(ast.parse, readers.values())])
    return [f"{name} line {line}: {public}" for name, tree in trees.items()
            for public, line in module_names(tree).items()
            if not public.startswith("_") and public not in used]


def unread_public_members(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """The public methods and properties of the module-level public classes
    of sources that neither sources nor readers read (names_read_or_patched)."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = names_read_or_patched([*trees.values(), *map(ast.parse, readers.values())])
    return [f"{name} line {member.lineno}: {cls.name}.{member.name}"
            for name, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for member in cls.body
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not member.name.startswith("_") and member.name not in used]


def test_no_public_name_only_tests_read():
    # an API that only tests read is code kept for the tests alone
    assert unread_public_names({name: p.read_text() for name, p in SRC.items()},
                               {name: p.read_text() for name, p in PERFBENCH.items()}) == []


def test_the_scan_sees_a_public_name_only_tests_read():
    sources = {
        "a.py": "def used():\n    pass\ndef unread():\n    pass\ndef patched():\n    pass\n"
                "X = 1\nY: int = 2\nclass C:\n    def method(self):\n        pass\n"
                "def _private():\n    pass\n",
        "b.py": "from .a import Y\nfrom . import a\n\na.used()\n",
    }
    readers = {"bench.py": "patch(a, 'patched')\n"}
    assert unread_public_names(sources, readers) == ["a.py line 3: unread", "a.py line 7: X",
                                                     "a.py line 9: C"]


def test_no_public_member_only_tests_read():
    assert unread_public_members({name: p.read_text() for name, p in SRC.items()},
                                 {name: p.read_text() for name, p in PERFBENCH.items()}) == []


def test_the_scan_sees_a_public_member_only_tests_read():
    sources = {
        "a.py": "class C:\n    def used(self):\n        pass\n    @property\n"
                "    def unread(self):\n        pass\n    def patched(self):\n        pass\n"
                "    def _private(self):\n        pass\n    @classmethod\n"
                "    def build(cls):\n        pass\n"
                "class _Hidden:\n    def unread(self):\n        pass\n",
        "b.py": "from .a import C\n\nC().used()\n",
    }
    readers = {"bench.py": "patch(C, 'patched')\n"}
    assert unread_public_members(sources, readers) == ["a.py line 5: C.unread",
                                                       "a.py line 12: C.build"]


def fft_out_keywords(source: str) -> list[str]:
    """The np.fft calls (numpy.fft too) that pass out as a keyword."""
    return [f"line {node.lineno}: {node.func.attr}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "fft"
            and isinstance(node.func.value.value, ast.Name)
            and node.func.value.value.id in ("np", "numpy")
            and any(k.arg == "out" for k in node.keywords)]


@pytest.mark.parametrize("path", list(SRC.values()), ids=list(SRC))
def test_no_fft_call_passes_out_by_keyword(path):
    # perfbench's tracer wraps every np.fft function, and its byte counter
    # takes the call's result as a parameter named out: an out= keyword
    # raises TypeError in every traced run that reaches the call
    assert fft_out_keywords(path.read_text()) == []


def test_the_scan_sees_an_fft_out_keyword():
    source = ("np.fft.rfft(f, 8, -1, None, out)\nnp.fft.irfft(s, out=o)\n"
              "numpy.fft.fft(a, axis=0, out=b)\nnp.multiply(a, b, out=c)\n")
    assert fft_out_keywords(source) == ["line 2: irfft", "line 3: fft"]


def code_lines(source: str) -> int:
    """The lines of source that hold code: not blank, not only a comment and
    not part of a module, class or function docstring."""
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in layout:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def test_the_counter_sees_only_code_lines():
    source = ('"""A module\ndocstring."""\n\nimport os  # a comment\n# a comment\n'
              'def f(a,\n      b):\n    """A docstring."""\n    return """not\na docstring"""\n'
              'class C:\n    """A\n    docstring."""\n\n    x = (1,\n\n         2)\n')
    # import, def f over two lines, return over two, class, and x over the
    # two of its three lines that are not blank
    assert code_lines(source) == 8


if __name__ == "__main__":
    counts = {name: code_lines(p.read_text()) for name, p in SRC.items()}
    for name, n in counts.items():
        print(f"{name:16} {n:5}")
    print(f"{'total':16} {sum(counts.values()):5}")
