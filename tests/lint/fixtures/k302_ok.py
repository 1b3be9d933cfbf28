"""Clean for K302: non-identity knobs are exactly the exempt manifest, and
the apply function reaches both the params and the cell id."""

from dataclasses import dataclass, replace

NON_IDENTITY_PARAMS = ("deadline",)


@dataclass(frozen=True)
class Knob:
    name: str
    identity: bool = True


KNOBS = (
    Knob("gamma"),
    Knob("deadline", identity=False),
)


def apply_knob(cells, name, value):
    out = []
    for cell in cells:
        params = dict(cell.params)
        params[name] = value
        out.append(replace(
            cell,
            params=tuple(sorted(params.items())),
            cell_id=f"{cell.cell_id}-{name}={value}",
        ))
    return out
