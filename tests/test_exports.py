import importlib
import pkgutil

import pytest

import casson

MODULES = ["casson"] + [f"casson.{m.name}"
                        for m in pkgutil.iter_modules(casson.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    # `from <module> import *` fails on an __all__ name the module lacks;
    # casson.cli has no __all__
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ())
               if not hasattr(module, entry)]
    assert missing == []
