"""The library's settable values, counted so that a new one is a deliberate edit.

A settable value is a parameter with a default of a public function or method,
or a dataclass field with a default that ``__init__`` takes, over the
``__all__`` of every library module (all but ``cli``).
"""

import dataclasses
import importlib
import inspect

LIBRARY_MODULES = (
    "signals", "rppg", "fusion", "pulse_rate", "metrics", "transit_time", "grid", "session",
    "synth", "synthetic_session",
)
SETTABLE_VALUES = 44


def _defaulted_parameters(qualname, func):
    return [f"{qualname}({p.name}=)" for p in inspect.signature(func).parameters.values()
            if p.default is not inspect.Parameter.empty]


def settable_values() -> list[str]:
    found = []
    for module_name in LIBRARY_MODULES:
        module = importlib.import_module(f"bodyppg.{module_name}")
        for name in module.__all__:
            obj = getattr(module, name)
            qualname = f"{module_name}.{name}"
            if inspect.isfunction(obj):
                found += _defaulted_parameters(qualname, obj)
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    found += [
                        f"{qualname}.{f.name}" for f in dataclasses.fields(obj)
                        if f.init and (f.default is not dataclasses.MISSING
                                       or f.default_factory is not dataclasses.MISSING)
                    ]
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found += _defaulted_parameters(f"{qualname}.{attr}", member)
    return found


def test_settable_value_count_is_pinned():
    found = settable_values()
    assert len(found) == SETTABLE_VALUES, "\n".join(found)
