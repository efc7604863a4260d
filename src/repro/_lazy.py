"""Lazy namespaces (PEP 562): a package ``__init__`` — or a module — lists
``name -> sibling submodule`` and imports that submodule only when one of
its names is first read, so a command loads the modules it runs."""

from importlib import import_module


def lazy_namespace(namespace: dict, table: dict[str, str]):
    """``(__getattr__, __dir__)`` for the module whose globals are
    ``namespace``; table entries name submodules of its ``__package__``
    (the package itself for an ``__init__``). A resolved name is cached
    there, so only its first read comes through ``__getattr__``."""
    module = namespace["__name__"]
    package = namespace["__package__"]

    def __getattr__(name: str):
        if name not in table:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{table[name]}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__
