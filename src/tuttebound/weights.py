"""Edge-weight algebra on the extended complex plane.

Series and parallel combination of edge weights in any of three variable
systems: the raw weights v, the transmissivities t = v/(q+v), and y = 1+v.
Parallel combination is plain multiplication in y, series combination is
plain multiplication in t, and the general case is computed by conjugating
multiplication with the Moebius change of variables.  Values live in
C union {INF, UNDEF}: multiplication on the sphere is undefined exactly at
(0, INF) and (INF, 0), UNDEF absorbs everything, and the Moebius transforms
are bijections of the sphere whenever q is nonzero.

Arithmetic is generic: Fraction inputs with Fraction q stay exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .graphs import GraphError, Multigraph, json_source_text


class _Marker:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self


INF = _Marker("INF")
UNDEF = _Marker("UNDEF")

SYSTEMS = ("V", "T", "Y")


class WeightDomainError(ValueError):
    """Invalid variable system or excluded parameter value."""


def is_finite(x) -> bool:
    return x is not INF and x is not UNDEF


def _check_system(system: str) -> str:
    s = system.upper()
    if s not in SYSTEMS:
        raise WeightDomainError(f"unknown variable system {system!r}")
    return s


def _check_q(q) -> None:
    if not is_finite(q) or q == 0:
        raise WeightDomainError("q must be finite and nonzero")


def _mobius(mat, x):
    """Apply x -> (a*x + b)/(c*x + d) on the sphere; mat must be invertible."""
    if x is UNDEF:
        return UNDEF
    a, b, c, d = mat
    if x is INF:
        if c == 0:
            return INF
        return a / c
    den = c * x + d
    if den == 0:
        return INF
    return (a * x + b) / den


def _matrix(src: str, dst: str, q):
    """Coefficients of the change of variables src -> dst."""
    if src == dst:
        return (1, 0, 0, 1)
    if (src, dst) == ("V", "T"):
        return (1, 0, 1, q)          # t = v/(v+q)
    if (src, dst) == ("T", "V"):
        return (q, 0, -1, 1)         # v = qt/(1-t)
    if (src, dst) == ("V", "Y"):
        return (1, 1, 0, 1)          # y = v+1
    if (src, dst) == ("Y", "V"):
        return (1, -1, 0, 1)         # v = y-1
    if (src, dst) == ("T", "Y"):
        return (q - 1, 1, -1, 1)     # y = ((q-1)t+1)/(1-t)
    if (src, dst) == ("Y", "T"):
        return (1, -1, 1, q - 1)     # t = (y-1)/(y+q-1)
    raise WeightDomainError(f"no conversion {src}->{dst}")


def convert(x, src: str, dst: str, q):
    """Change variable systems; a sphere bijection for q not in {0, inf}."""
    src, dst = _check_system(src), _check_system(dst)
    _check_q(q)
    return _mobius(_matrix(src, dst, q), x)


def _sphere_mul(a, b):
    if a is UNDEF or b is UNDEF:
        return UNDEF
    a_inf, b_inf = a is INF, b is INF
    if a_inf and b_inf:
        return INF
    if a_inf:
        return UNDEF if b == 0 else INF
    if b_inf:
        return UNDEF if a == 0 else INF
    return a * b


def _combine(x, y, system: str, q, via: str):
    """Combination of two values of system at q: map into via, multiply, map back."""
    system = _check_system(system)
    _check_q(q)
    into = _matrix(system, via, q)
    return _mobius(_matrix(via, system, q), _sphere_mul(_mobius(into, x), _mobius(into, y)))


def parallel(a, b, system: str, q):
    """Parallel combination; multiplication transported from the y system.

    Undefined pairs per system: V at (-1, INF); Y at (0, INF);
    T at (1/(1-q), 1) -- plus the mirror images.
    """
    return _combine(a, b, system, q, "Y")


def series(a, b, system: str, q):
    """Series combination; multiplication transported from the t system.

    Undefined pairs per system: V at (0, -q); Y at (1, 1-q); T at (0, INF)
    -- plus the mirror images.
    """
    return _combine(a, b, system, q, "T")


# ---------------------------------------------------------------------------
# Weight assignments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightAssignment:
    """Per-edge weights in one variable system, keyed by edge index."""
    system: str
    values: Mapping[int, object]

    def __post_init__(self) -> None:
        object.__setattr__(self, "system", _check_system(self.system))
        object.__setattr__(self, "values", dict(self.values))

    @classmethod
    def uniform(cls, g: Multigraph | int, value) -> "WeightAssignment":
        m = g if isinstance(g, int) else g.edge_count
        return cls("V", {i: value for i in range(m)})

    def value(self, edge: int):
        try:
            return self.values[edge]
        except KeyError as exc:
            raise GraphError(f"no weight for edge {edge}") from exc

    def check_covers(self, g: Multigraph) -> None:
        missing = [i for i in range(g.edge_count) if i not in self.values]
        if missing:
            raise GraphError(f"weights missing for edges {missing}")

    def in_system(self, dst: str, q) -> "WeightAssignment":
        dst = _check_system(dst)
        if dst == self.system:
            return self
        vals = {i: convert(x, self.system, dst, q) for i, x in self.values.items()}
        return WeightAssignment(dst, vals)


def _value_to_json(x):
    if x is INF:
        return "inf"
    if x is UNDEF:
        return "undef"
    z = complex(x)
    return {"re": z.real, "im": z.imag}


def _value_from_json(obj):
    if obj == "inf":
        return INF
    if obj == "undef":
        return UNDEF
    try:
        re = float(obj["re"])
        im = float(obj.get("im", 0.0))
    except (TypeError, KeyError, ValueError) as exc:
        raise GraphError(f"bad weight value {obj!r}") from exc
    return complex(re, im) if im else re


def save_weights(w: WeightAssignment) -> str:
    record: dict = {"system": w.system}
    for i, x in w.values.items():
        record[str(i)] = _value_to_json(x)
    return json.dumps(record)


def load_weights(source: str | Path) -> WeightAssignment:
    """Parse the JSON weight map {"system": "V", "0": {"re":..,"im":..}, ...}.

    ``source`` may be a path or a JSON string (see graphs.json_source_text).
    """
    text = json_source_text(source)
    try:
        record = json.loads(text)
        system = record.pop("system")
    except (json.JSONDecodeError, KeyError, AttributeError) as exc:
        raise GraphError(f"bad weight file: {exc}") from exc
    values = {int(k): _value_from_json(v) for k, v in record.items()}
    return WeightAssignment(system, values)
