"""Key = value text files: the calibrated constants and the ``simulate``
config.  '#' starts a comment, blank lines are skipped."""

from __future__ import annotations

__all__ = ["save_constants", "load_constants"]


def _read_key_values(path) -> dict:
    """The key = value pairs of the file as stripped strings; a line without
    '=' or a key given twice raises ValueError naming the line(s)."""
    out = {}
    lines = {}
    with open(path) as fh:
        for number, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path} line {number} is not key = value: {raw.strip()!r}")
            key = key.strip()
            if key in lines:
                raise ValueError(f"{path} line {number} repeats key {key!r} "
                                 f"of line {lines[key]}")
            lines[key] = number
            out[key] = value.strip()
    return out


def save_constants(path, constants: dict, header: str | None = None) -> None:
    with open(path, "w") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for key in sorted(constants):
            fh.write(f"{key} = {constants[key]:.17g}\n")


def load_constants(path) -> dict:
    return {key: float(value) for key, value in _read_key_values(path).items()}
