"""CSV data sets and JSON mechanism configs for the command-line tools.

CSV layout: header ``x1,...,xd,y`` (just ``y`` when d = 0), one agent per
row, decimal floats at 17 significant digits so a write/read round trip
is bit-exact.  Mechanism configs are JSON objects carrying a ``kind`` tag
plus the fields of the corresponding config type; 0-based index sets,
median sides as "left"/"right", infinities as the strings "inf"/"-inf".
"""

from __future__ import annotations

import csv
import json
import math
from typing import NamedTuple

import numpy as np

from .audit import (
    _MECHANISMS,
    NEEDS_CONFIG,
    GenMedParams,
    GrlParams,
    MechanismKind,
    MechanismSpec,
    brown_mood_spec,
    tukey_spec,
)
from .core import DataSet, MedianSide
from .crm import CrmConfig
from .erm import L1Config, PhantomTerm, QuantileConfig
from .errors import ConfigurationError
from .impartial import AffineResponse, ImpartialConfig, PwlResponse, swap_config
from .separability import AgentPartition


class InputError(ValueError):
    """Malformed user-supplied file or value (CLI exit code 2)."""


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_dataset(path, data: DataSet) -> None:
    header = [f"x{k + 1}" for k in range(data.d)] + ["y"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row, y in zip(data.xs, data.ys):
            writer.writerow([_fmt(v) for v in row] + [_fmt(y)])


def read_dataset(path) -> DataSet:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InputError(f"cannot read data file: {exc}") from exc
    if not rows:
        raise InputError("empty data file")
    header = [h.strip() for h in rows[0]]
    if header[-1] != "y" or header[:-1] != [f"x{k + 1}" for k in range(len(header) - 1)]:
        raise InputError(f"expected header x1,...,xd,y, got {header}")
    d = len(header) - 1
    xs, ys = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != d + 1:
            raise InputError(f"line {lineno}: expected {d + 1} fields, got {len(row)}")
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
        xs.append(values[:d])
        ys.append(values[d])
    if not ys:
        raise InputError("data file has a header but no rows")
    try:
        return DataSet(np.array(xs, dtype=float).reshape(len(ys), d),
                       np.array(ys, dtype=float))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


# --------------------------------------------------------------------------
# extended reals and median sides


def parse_extended(value) -> float:
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("inf", "+inf", "infinity"):
            return math.inf
        if text in ("-inf", "-infinity"):
            return -math.inf
        try:
            return float(text)
        except ValueError as exc:
            raise InputError(f"not a number: {value!r}") from exc
    if isinstance(value, bool):
        raise InputError(f"not a number: {value!r}")
    return float(value)


def extended_jsonable(value: float):
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return float(value)


def _parse_side(value) -> MedianSide:
    if value is None:
        return MedianSide.LEFT
    if value in ("left", "right"):
        return MedianSide(value)
    raise InputError(f'median side must be "left" or "right", got {value!r}')


# --------------------------------------------------------------------------
# mechanism configs


def load_mechanism_config(path) -> MechanismSpec:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config is not valid JSON: {exc}") from exc
    return parse_mechanism(obj)


def _int(value) -> int:
    if type(value) is not int:  # refuses floats, booleans and strings
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _float(value) -> float:
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _indices(values) -> tuple[int, ...]:
    return tuple(map(_int, values))


def _floats(values) -> tuple[float, ...]:
    return tuple(map(_float, values))


def _float_list(values) -> list[float]:
    return [float(v) for v in values]


class _Codec(NamedTuple):
    """JSON object <-> config type, field by field.

    Each field maps its JSON key, which is also the config's attribute and
    keyword, to (parse, dump) converters.  Optional fields fall back to the
    config's default when absent and are written only when truthy.  A value
    its converter refuses is an InputError naming the key.
    """

    config: type
    required: dict
    optional: dict = {}

    def parse(self, obj, where: str):
        if not isinstance(obj, dict):
            raise InputError(f"{where} must be a JSON object, got {type(obj).__name__}")
        for key in self.required:
            if key not in obj:
                raise InputError(f"{where} needs {key}")
        fields = {**self.required, **self.optional}
        for key in obj:
            if key not in fields:
                expected = ", ".join(fields) or "no keys"
                raise InputError(f"{where} has unknown key {key!r}; expected {expected}")
        values = {}
        for key, value in obj.items():
            try:
                values[key] = fields[key][0](value)
            except (TypeError, ValueError) as exc:
                raise InputError(f"{where}, key {key!r}: {exc}") from exc
        return self.config(**values)

    def dump(self, params) -> dict:
        out = {key: dump(getattr(params, key)) for key, (_, dump) in self.required.items()}
        for key, (_, dump) in self.optional.items():
            if value := getattr(params, key):
                out[key] = dump(value)
        return out


_INDICES = (_indices, list)
_FLOAT = (_float, float)
_FLOATS = (_floats, _float_list)
_SIDE = (_parse_side, lambda side: side.value)

_PHANTOM = _Codec(PhantomTerm, {"anchor": _FLOATS, "target": _FLOAT}, {"weight": _FLOAT})
_RESPONSES = {
    "affine": _Codec(AffineResponse, {"a": _FLOATS, "b": _FLOATS}),
    "pwl": _Codec(PwlResponse, {"breakpoints": _FLOATS, "values": (
        lambda rows: tuple(map(_floats, rows)), lambda rows: list(map(_float_list, rows)))}),
}


def _parse_response(pos: int, entry):
    rtype = entry.get("type") if isinstance(entry, dict) else None
    if rtype not in _RESPONSES:
        raise InputError(f'g[{pos}] must be an object with type "affine" or "pwl"')
    fields = {key: value for key, value in entry.items() if key != "type"}
    return _RESPONSES[rtype].parse(fields, f"g[{pos}]")


def _dump_response(resp) -> dict:
    for rtype, codec in _RESPONSES.items():
        if isinstance(resp, codec.config):
            return {"type": rtype, **codec.dump(resp)}
    raise ConfigurationError(f"cannot serialize response {type(resp).__name__}")


_CODECS: dict[MechanismKind, _Codec] = {
    MechanismKind.OLS: _Codec(type(None), {}),
    MechanismKind.L1ERM: _Codec(L1Config, {}, {
        "weights": (lambda v: None if v is None else _floats(v), _float_list),
        "phantoms": (lambda v: tuple(_PHANTOM.parse(p, f"phantoms[{pos}]")
                                     for pos, p in enumerate(v)),
                     lambda v: [_PHANTOM.dump(p) for p in v]),
        "drift": _FLOAT}),
    MechanismKind.QUANTILE: _Codec(QuantileConfig, {"q": _FLOAT}),
    MechanismKind.CRM: _Codec(CrmConfig, {"s": _INDICES, "sprime": _INDICES},
                              {"outer_side": _SIDE, "inner_side": _SIDE,
                               "intercept_side": _SIDE}),
    MechanismKind.GRL: _Codec(GrlParams, {"s": _INDICES, "sprime": _INDICES,
                                          "k": (_int, int), "kprime": (_int, int)}),
    MechanismKind.GRH: _Codec(AgentPartition, {
        "sets": (lambda v: tuple(map(_indices, v)), lambda v: [list(s) for s in v]),
        "ranks": _INDICES}),
    MechanismKind.IMPARTIAL: _Codec(ImpartialConfig, {
        "g": (lambda v: tuple(_parse_response(pos, g) for pos, g in enumerate(v)),
              lambda v: [_dump_response(g) for g in v]),
        "c": _FLOAT}),
    MechanismKind.GENERALIZED_MEDIAN: _Codec(GenMedParams, {"phantoms": (
        lambda v: tuple(map(parse_extended, v)), lambda v: list(map(extended_jsonable, v)))}),
}

#: names that build a mechanism from the loaded data
_PRESETS = {
    "brown-mood": brown_mood_spec,
    "tukey": tukey_spec,
    "impartial-swap": lambda data: MechanismSpec(MechanismKind.IMPARTIAL, swap_config(data)),
}

_KIND_NAMES = ", ".join(kind.value for kind in MechanismKind)
#: every name ``--mechanism`` accepts
MECHANISM_NAMES = ", ".join([_KIND_NAMES, *_PRESETS])


def parse_mechanism(obj) -> MechanismSpec:
    """Build a MechanismSpec from a JSON-shaped dict."""
    if not isinstance(obj, dict):
        raise InputError("mechanism config must be a JSON object")
    kind_name = obj.get("kind")
    if isinstance(kind_name, str) and kind_name in _PRESETS:
        raise InputError(f"{kind_name} is a preset built from a data set "
                         f"(--mechanism {kind_name}), not a config kind")
    try:
        kind = MechanismKind(kind_name)
    except ValueError:
        raise InputError(f"unknown mechanism kind {kind_name!r}; expected one of {_KIND_NAMES}")
    fields = {key: value for key, value in obj.items() if key != "kind"}
    try:
        params = _CODECS[kind].parse(fields, f"{kind.value} config")
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"bad {kind.value} config: {exc}") from exc
    return MechanismSpec(kind, params)


def resolve_mechanism(name: str | None, config_path, data: DataSet | None) -> MechanismSpec:
    """CLI-facing resolution of --mechanism plus optional --config.

    ``name`` may be a mechanism kind or a preset built from the loaded data
    (resistant lines "brown-mood"/"tukey", "impartial-swap").  A config
    file, when given, must agree with the name.
    """
    if name in _PRESETS:
        if data is None:
            raise InputError(f"{name} needs a data set")
        return _PRESETS[name](data)
    if config_path is not None:
        spec = load_mechanism_config(config_path)
        if name is not None and name != spec.kind.value:
            raise InputError(
                f"--mechanism {name} conflicts with config kind {spec.kind.value}"
            )
        return spec
    if name is None:
        raise InputError("need --mechanism or --config")
    try:
        kind = MechanismKind(name)
    except ValueError:
        raise InputError(f"unknown mechanism {name!r}; expected one of {MECHANISM_NAMES}")
    default = _MECHANISMS[kind].default
    if default is NEEDS_CONFIG:
        raise InputError(f"mechanism {name} needs a --config file")
    return MechanismSpec(kind, default)


def mechanism_jsonable(spec: MechanismSpec) -> dict:
    """Serialize a MechanismSpec back to its JSON config shape."""
    params = _MECHANISMS[spec.kind].default if spec.params is None else spec.params
    return {"kind": spec.kind.value, **_CODECS[spec.kind].dump(params)}
