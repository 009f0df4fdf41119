#!/usr/bin/env python
"""Generate docs/API.md from the package's public surface.

Walks every ``repro`` submodule, collects the symbols its ``__all__``
exports (or public classes/functions defined in the module), and writes
a reference page with each symbol's signature and first docstring line.
Run after API changes:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
import sys
import typing
from pathlib import Path

import repro

OUT = Path(__file__).resolve().parent.parent / "docs" / "API.md"


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0] if doc else ""


def _as_written(annotation):
    """A ``ForwardRef`` annotation as the string it was written as.

    ``NamedTuple`` fields declared under ``from __future__ import
    annotations`` reach the generated ``__new__`` as ``ForwardRef``
    objects; every other postponed annotation is already that string.
    """
    if isinstance(annotation, typing.ForwardRef):
        return annotation.__forward_arg__
    return annotation


def signature_of(obj) -> str:
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):
        return ""
    sig = str(
        sig.replace(
            parameters=[
                p.replace(annotation=_as_written(p.annotation))
                for p in sig.parameters.values()
            ],
            return_annotation=_as_written(sig.return_annotation),
        )
    )
    # Default values whose repr embeds an object address (functions,
    # bound instances) vary run to run; pin them so the generated page
    # is byte-stable and the SL013 drift check never sees noise.
    return re.sub(r"<(function|class|bound method) ([^ >]+) at 0x[0-9a-f]+>", r"<\1 \2>", sig)


def describe_symbol(name: str, obj) -> list[str]:
    lines = []
    if inspect.isclass(obj):
        lines.append(f"### `{name}{signature_of(obj)}`\n")
        lines.append(f"{first_line(obj)}\n")
        methods = [
            (m, fn)
            for m, fn in inspect.getmembers(obj, inspect.isfunction)
            if not m.startswith("_") and fn.__qualname__.startswith(obj.__name__)
        ]
        for m, fn in sorted(methods):
            lines.append(f"- `.{m}{signature_of(fn)}` — {first_line(fn)}")
        if methods:
            lines.append("")
    elif inspect.isfunction(obj):
        lines.append(f"### `{name}{signature_of(obj)}`\n")
        lines.append(f"{first_line(obj)}\n")
    else:
        lines.append(f"### `{name}`\n")
        lines.append(f"{first_line(type(obj))}\n")
    return lines


def public_symbols(module) -> list[tuple[str, object]]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [
            n
            for n, o in vars(module).items()
            if not n.startswith("_")
            and getattr(o, "__module__", None) == module.__name__
        ]
    out = []
    for n in names:
        obj = getattr(module, n, None)
        if obj is not None and getattr(obj, "__module__", module.__name__) == (
            module.__name__
        ):
            out.append((n, obj))
    return out


def main() -> int:
    sections = [
        "# API reference",
        "",
        "_Generated by `tools/gen_api_docs.py`; regenerate after API"
        " changes._",
        "",
    ]
    modules = sorted(
        m.name
        for m in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not m.ispkg
    )
    for mod_name in modules:
        module = importlib.import_module(mod_name)
        symbols = public_symbols(module)
        if not symbols:
            continue
        sections.append(f"## `{mod_name}`\n")
        sections.append(f"{first_line(module)}\n")
        for name, obj in symbols:
            sections.extend(describe_symbol(name, obj))
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text("\n".join(sections) + "\n")
    print(f"wrote {OUT} ({len(modules)} modules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
