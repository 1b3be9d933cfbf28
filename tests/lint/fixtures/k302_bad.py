"""Violates K302 once per half: a non-identity knob missing from the
exemption manifest, and an apply function that never rewrites the id."""

from dataclasses import dataclass, replace

NON_IDENTITY_PARAMS = ("deadline",)


@dataclass(frozen=True)
class Knob:
    name: str
    identity: bool = True


KNOBS = (
    Knob("gamma", identity=False),
    Knob("deadline", identity=False),
)


def apply_knob(cells, name, value):
    out = []
    for cell in cells:
        params = dict(cell.params)
        params[name] = value
        out.append(replace(cell, params=tuple(sorted(params.items()))))
    return out
