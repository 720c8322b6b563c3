import ast
import dataclasses
import functools
import inspect
import pathlib

import ergostop

PACKAGE = pathlib.Path(ergostop.__file__).parent


def test_no_module_imports_a_private_name_of_a_sibling():
    # a private name belongs to its module; one that a sibling needs is public
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert private == []


def test_the_invariant_law_is_read_from_the_model_only():
    # mu is a property of the model (MarkovModel.invariant): no public function
    # takes it, and rewards carry no cached mean of their own
    taking_mu = []
    for module in (getattr(ergostop, name) for name in dir(ergostop)):
        if not inspect.ismodule(module) or not module.__name__.startswith("ergostop."):
            continue
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and not name.startswith("_") \
                    and "mu" in inspect.signature(fn).parameters:
                taking_mu.append(f"{module.__name__}.{name}")
    assert taking_mu == []
    assert tuple(f.name for f in dataclasses.fields(ergostop.RewardSpec)) == ("f", "g")
    assert isinstance(inspect.getattr_static(ergostop.MarkovModel, "invariant"),
                      functools.cached_property)
