"""Which functions of the package a fixed list of commands runs.

Run from the repository root with the package on the path:

    PYTHONPATH=src python tests/reach.py

It sets a profiler before it imports ``treeshift.cli``, runs each command
of ``COMMANDS`` through ``treeshift.cli.main`` with its output discarded,
and prints one JSON object: the exit code of each command, in order, and
the functions and methods of the package that ran and that never ran.  A
name is ``module.function`` or ``module.Class.method``, found in
``vars(module)`` and in ``vars(cls)`` for each class the module defines,
through ``__func__``, ``fget`` and ``__wrapped__``; two names of one code
object (an alias) count once, under the first.  ``tests/test_reach.py``
checks the codes and the names that never ran.  The script itself needs
only the standard library, so it runs on every interpreter the package
supports.  Each run is a fresh process: memo tables that a warm process
holds would skip function bodies, and some code (a module's constants)
runs only at import.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import pkgutil
import sys

_CYCLE3 = "[[0,1,1],[1,0,0],[1,0,0]]"

#: (expected exit code, argv): the README's commands; CI's deep inputs but
#: the 8-symbol cycle, which runs no function the others miss; trimmed
#: symbols; a non-primitive A; converge on three shapes; config errors; a
#: letter out of range; a ray object; and a width pair
COMMANDS = (
    (0, ["check", "--A", "G", "--M", "G", "--ray", "f1^inf", "--n", "2:6"]),
    (0, ["entropy", "--A", "G", "--M", "G", "--n", "1:20"]),
    (0, ["strip", "--A", "G", "--M", "G", "--ray", "f2(f1 f2)^inf", "--n", "2:10"]),
    (0, ["converge", "--A", "G", "--M", "crt:3", "--ray", "(f1 f2 f3)^inf", "--n", "2:12",
         "--format", "json"]),
    (0, ["verify", "--seed", "0"]),
    (0, ["strip", "--A", "G", "--M", "G", "--n", "1000:1000"]),
    (0, ["check", "--A", "G", "--M", "G", "--n", "330:330"]),
    (1, ["entropy", "--A", "G", "--M", "E:2", "--n", "1:1024"]),
    (1, ["entropy", "--A", "G", "--M", "G", "--n", "1:1000000"]),
    (1, ["strip", "--A", "E:2", "--M", "E:2", "--ray", "(f1 f2 f1 f2 f1 f2 f1 f2)^inf",
         "--n", "1021:1021"]),
    (0, ["check", "--A", "E:4", "--M", "E:2", "--ray", "(f1 f2 f1 f2 f1 f2 f1)^inf",
         "--n", "1021:1021"]),
    (1, ["check", "--A", "G", "--M", "G", "--n", "1:1000000"]),
    (1, ["strip", "--A", _CYCLE3, "--M", "E:34", "--ray", "f1^inf", "--n", "2:2"]),
    (0, ["check", "--A", "[[1,1,0],[0,1,1],[0,0,0]]", "--M", "G", "--n", "2:3"]),
    (0, ["check", "--A", "[[1,1,0],[0,1,1],[0,0,0]]", "--M", "G", "--n", "2:3",
         "--format", "json"]),
    (0, ["strip", "--A", "[[0,1],[1,0]]", "--M", "E:2", "--format", "json"]),
    (0, ["converge", "--A", "G", "--M", "G", "--n", "2:8"]),
    (0, ["converge", "--A", "G", "--M", _CYCLE3, "--ray", "(f1 f2)^inf", "--n", "2:8"]),
    (0, ["converge", "--A", "G", "--M", "[[1,1],[0,1]]", "--ray", "f2^inf", "--n", "2:8"]),
    (2, ["check", "--A", "X:3", "--M", "G"]),
    (2, ["strip", "--A", "G", "--M", "crt:3", "--ray", "f2(f2)^inf"]),
    (0, ["check", "--A", "G", "--M", "G", "--ray", "f3^inf"]),
    (0, ["strip", "--A", "G", "--M", "G", "--ray", '{"prefix": [2], "period": [1, 2]}',
         "--n", "2:3", "--format", "json"]),
    (0, ["entropy", "--A", "G", "--M", "G", "--n", "2,3"]),
)


def _code(obj):
    """The code object behind a function, method, property or cache wrapper."""
    while not hasattr(obj, "__code__"):
        for attr in ("__func__", "fget", "__wrapped__"):
            inner = getattr(obj, attr, None)
            if inner is not None:
                obj = inner
                break
        else:
            return None
    return obj.__code__


def package_functions(package) -> dict:
    """Each code object of the package's modules, by its first name."""
    names: dict = {}
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        owners = [("", vars(module))] + [
            (f"{cls.__name__}.", vars(cls)) for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
        ]
        for prefix, namespace in owners:
            for key, obj in namespace.items():
                code = _code(obj)
                if code is not None and code.co_filename == module.__file__:
                    names.setdefault(code, f"{info.name}.{prefix}{key}")
    return names


def main() -> None:
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(profile)
    import treeshift.cli

    codes = []
    for _, argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(treeshift.cli.main(argv))
    sys.setprofile(None)
    names = package_functions(sys.modules["treeshift"])
    print(json.dumps({
        "codes": codes,
        "ran": sorted(name for code, name in names.items() if code in ran),
        "unrun": sorted(name for code, name in names.items() if code not in ran),
    }))


if __name__ == "__main__":
    main()
