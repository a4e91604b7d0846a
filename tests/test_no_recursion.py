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


def nested_code(code):
    """The code objects of the functions defined inside ``code``, at any
    depth, as (qualified name, code object) pairs."""
    stack = [(code.co_name, code)]
    while stack:
        outer, code = stack.pop()
        for const in code.co_consts:
            if inspect.iscode(const):
                name = f"{outer}.<locals>.{const.co_name}"
                yield name, const
                stack.append((name, const))


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


def test_no_nested_function_refers_to_itself():
    nested = {
        f"{fn.__module__}.{name}": code
        for fn in module_functions()
        for name, code in nested_code(fn.__code__)
    }
    assert "blossom.forest.run_search.<locals>.open_candidates" in nested
    offenders = [
        name
        for name, code in nested.items()
        if code.co_name in code.co_names or code.co_name in code.co_freevars
    ]
    assert offenders == []


def test_a_recursive_closure_is_caught():
    def outer():
        def walk(n):
            return walk(n - 1) if n else 0

        return walk(3)

    (name, code), *_ = nested_code(outer.__code__)
    assert name.endswith("outer.<locals>.walk")
    assert code.co_name in code.co_freevars
