"""Run configuration: defaults, key=value files, MZL_* env overrides.

Precedence, lowest to highest: dataclass defaults, config file, process
environment, explicit command-line flags.
"""
from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .errors import InvalidSpecError

# the least value of each integer key; numpy takes no negative seed
_LEAST = {"trials": 1, "seed": 0}


@dataclass
class RunConfig:
    trials: int = 50
    seed: int = 0
    y_top: float = 2.5
    tau: float = 1.0

    def apply_file(self, path: str) -> "RunConfig":
        values = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidSpecError(
                        f"{path}:{lineno}: expected key=value")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
        return self.merged(values, source=path)

    def apply_env(self, env=None) -> "RunConfig":
        env = os.environ if env is None else env
        values = {}
        for f in dataclasses.fields(self):
            name = "MZL_" + f.name.upper()
            if name in env:
                values[f.name] = env[name]
        return self.merged(values, source="environment")

    def merged(self, values: dict, source: str) -> "RunConfig":
        known = {f.name: f.type for f in dataclasses.fields(self)}
        out = dataclasses.replace(self)
        for key, val in values.items():
            if key not in known:
                raise InvalidSpecError(f"{source}: unknown config key {key!r}")
            current = getattr(out, key)
            try:
                coerced = type(current)(val)
            except ValueError as exc:
                raise InvalidSpecError(
                    f"{source}: bad value for {key}: {val!r}") from exc
            if key in _LEAST and coerced < _LEAST[key]:
                raise InvalidSpecError(
                    f"{source}: {key} must be at least {_LEAST[key]}")
            setattr(out, key, coerced)
        return out


def load_config(path: str | None = None) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        cfg = cfg.apply_file(path)
    return cfg.apply_env()
