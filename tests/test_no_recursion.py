"""No function of the package calls itself, so deep blossom structures never
run into Python's recursion limit. The brute-force oracle is exempt: it only
accepts inputs small enough for exhaustive search."""

import importlib
import inspect
import pkgutil

import blossom


def module_functions():
    for info in pkgutil.iter_modules(blossom.__path__):
        if info.name == "oracle":
            continue
        module = importlib.import_module(f"blossom.{info.name}")
        for fn in vars(module).values():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                yield fn


def test_no_module_function_refers_to_itself():
    functions = list(module_functions())
    names = {fn.__name__ for fn in functions}
    assert {"find_augmenting_path", "longest_disjoint_prefixes", "run_search"} <= names
    offenders = [
        f"{fn.__module__}.{fn.__name__}"
        for fn in functions
        if fn.__name__ in fn.__code__.co_names
    ]
    assert offenders == []
