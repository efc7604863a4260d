"""Lazy package namespaces (PEP 562): a package ``__init__`` lists
``name -> defining submodule`` and imports a submodule only when one of
its names is first read, so a command loads the modules it runs."""

from importlib import import_module


def lazy_namespace(namespace: dict, table: dict[str, str]):
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``; a resolved name is cached there, so only its first
    read comes through ``__getattr__``."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{table[name]}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__
