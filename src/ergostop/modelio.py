"""Model file loading: JSON with states, kernel or generator, and rewards.

Schema: ``states`` (array of names: strings or numbers, distinct as CSV
text, with no comma or line break), exactly one of ``kernel`` or
``generator`` (row-major matrices, one row per state in ``states`` order),
``dt`` (number), optional ``coords`` (array of number arrays), optional
``f`` and ``g`` (number arrays, consumed by the reward-bearing solvers).
Numeric fields hold JSON numbers only: a boolean, string or null in any of
them is refused, however deeply nested, and so are the ``NaN``,
``Infinity`` and ``-Infinity`` tokens that Python's json module accepts and
a literal too large for a float, such as ``1e999``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .markov import MarkovModel, build_dtmc, build_from_generator
from .report import format_value


@dataclass
class ModelFile:
    model: MarkovModel
    f: np.ndarray | None
    g: np.ndarray | None


def _numeric(value) -> bool:
    """Whether a JSON value is a number or an array of numbers at any depth,
    searched without recursion; booleans, strings and null are not numbers."""
    stack = [value]
    while stack:
        value = stack.pop()
        types = set(map(type, value)) if isinstance(value, list) else {type(value)}
        if not types <= {int, float, list}:
            return False
        if list in types:
            stack += [v for v in value if isinstance(v, list)]
    return True


def load_model_file(path, dt_override: float | None = None) -> ModelFile:
    """Parse and validate a model file; dt_override only applies to
    generator models, where the discretization step is a free choice."""

    def refuse(token):
        raise ParseError(f"{path}: {token} is not a JSON number")

    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=refuse)
    except OSError as exc:
        raise ParseError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: arrays nest too deeply") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")

    states = raw.get("states")
    if not isinstance(states, list) or not states:
        raise ParseError(f"{path}: field 'states' must be a nonempty array")
    texts = [format_value(s) for s in states]
    for name, text in zip(states, texts):
        if isinstance(name, bool) or not isinstance(name, (str, int, float)):
            raise ParseError(f"{path}: state name {name!r} is not a string or number")
        if "," in text or "\n" in text or "\r" in text:
            raise ParseError(f"{path}: state name {text!r} holds a comma or line break")
    if len(set(texts)) < len(texts):
        raise ParseError(f"{path}: state names are not distinct as CSV text")
    has_kernel = "kernel" in raw
    has_generator = "generator" in raw
    if has_kernel == has_generator:
        raise ParseError(f"{path}: provide exactly one of 'kernel' or 'generator'")
    for name in ("dt", "kernel", "generator", "coords", "f", "g"):
        if raw.get(name) is not None and not _numeric(raw[name]):
            raise ParseError(f"{path}: field '{name}' holds a value that is not a number")
    dt = raw.get("dt")
    if not isinstance(dt, (int, float)) or not 0 < dt < math.inf:
        raise ParseError(f"{path}: field 'dt' must be a finite positive number")
    coords = raw.get("coords")

    def vector(name):
        v = raw.get(name)
        if v is None:
            return None
        if not isinstance(v, list) or len(v) != len(states) or any(
            isinstance(x, list) for x in v
        ):
            raise ParseError(f"{path}: field '{name}' must have one number per state")
        v = np.asarray(v, dtype=float)
        if not np.isfinite(v).all():  # a literal such as 1e999 reads as inf
            raise ParseError(f"{path}: field '{name}' has a number that is not finite")
        return v

    try:
        if has_kernel:
            if dt_override is not None and abs(dt_override - dt) > 1e-12:
                raise ParseError(
                    f"{path}: --dt cannot override the intrinsic step of a "
                    "kernel model"
                )
            model = build_dtmc(states, raw["kernel"], dt=dt, coords=coords)
        else:
            model = build_from_generator(
                states, raw["generator"], dt=dt_override or dt, coords=coords
            )
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return ModelFile(model=model, f=vector("f"), g=vector("g"))
