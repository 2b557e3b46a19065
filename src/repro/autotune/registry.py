"""A tiny global function registry (stand-in for ``tvm._ffi.register_func``).

The Auto-Scheduler flow resolves its measurement callback through this
registry, so replacing native execution with a simulator is a one-line
override (the paper's Listing 4)::

    @override_func("auto_scheduler.local_runner.run")
    def simulator_run(inputs, build_results, ...):
        ...
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

_REGISTRY: Dict[str, Callable] = {}


def register_func(name: str, func: Optional[Callable] = None, override: bool = False):
    """Register ``func`` under ``name``; usable as a decorator."""

    def do_register(target: Callable) -> Callable:
        if name in _REGISTRY and not override:
            raise ValueError(
                f"function {name!r} is already registered; pass override=True to replace it"
            )
        _REGISTRY[name] = target
        return target

    if func is not None:
        return do_register(func)
    return do_register


def override_func(name: str, func: Optional[Callable] = None):
    """Register ``func`` under ``name``, replacing any existing registration."""
    return register_func(name, func, override=True)


def get_func(name: str, default: Optional[Callable] = None) -> Optional[Callable]:
    """Look up a registered function (``default`` when absent)."""
    return _REGISTRY.get(name, default)


def remove_func(name: str) -> None:
    """Remove a registration (no error if absent)."""
    _REGISTRY.pop(name, None)
