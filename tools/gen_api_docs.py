"""Generate docs/api.md — the public API reference.

Run:  python tools/gen_api_docs.py [output]

Walks every repro module and renders an index of public classes and
functions with the first line of their docstrings.  The test suite
checks the committed file is in sync.
"""

import importlib
import inspect
import pkgutil
import sys

import repro


def _first_line(obj):
    doc = inspect.getdoc(obj)
    if not doc:
        return "(undocumented)"
    return doc.splitlines()[0].rstrip()


def _public_members(module):
    classes, functions = [], []
    for name, member in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue
        if getattr(member, "__name__", name) != name:
            continue    # an alias: documented under its own name
        if inspect.isclass(member):
            classes.append((name, member))
        elif inspect.isfunction(member):
            functions.append((name, member))
    return classes, functions


def iter_modules():
    prefix = repro.__name__ + "."
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix):
        names.append(info.name)
    for name in sorted(names):
        yield importlib.import_module(name)


def generate():
    lines = ["# API reference", "",
             "Generated by `python tools/gen_api_docs.py` — do not edit",
             "by hand.", ""]
    for module in iter_modules():
        classes, functions = _public_members(module)
        if not classes and not functions:
            continue
        lines.append("## `%s`" % module.__name__)
        lines.append("")
        summary = _first_line(module)
        if summary != "(undocumented)":
            lines.append(summary)
            lines.append("")
        for name, cls in classes:
            lines.append("- **class `%s`** — %s" % (name,
                                                    _first_line(cls)))
            methods = [
                (method_name, method)
                for method_name, method in sorted(vars(cls).items())
                if not method_name.startswith("_")
                and inspect.isfunction(method)
            ]
            for method_name, method in methods:
                lines.append("  - `%s()` — %s"
                             % (method_name, _first_line(method)))
        for name, func in functions:
            lines.append("- `%s()` — %s" % (name, _first_line(func)))
        lines.append("")
    return "\n".join(lines)


def main():
    output = sys.argv[1] if len(sys.argv) > 1 else "docs/api.md"
    text = generate()
    with open(output, "w") as handle:
        handle.write(text)
    print("wrote %s (%d lines)" % (output, text.count("\n") + 1))


if __name__ == "__main__":
    main()
