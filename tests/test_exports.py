import importlib
import pkgutil

import lrpca


def test_every_exported_name_resolves():
    modules = [lrpca] + [importlib.import_module(f"lrpca.{info.name}")
                         for info in pkgutil.iter_modules(lrpca.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing
