"""Key-value configuration for the quadrature rule and the seed.

File format: one ``key = value`` pair per line, ``#`` comments allowed.
Recognized keys; any other key is a usage error:

    quad_nodes       nodes per panel (default 48)
    quad_target      panel error target (default 1e-12)
    seed             RNG seed for sampled checks (default 0)

Command-line flags override file values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .quadrature import QuadratureRule


class UsageError(ValueError):
    """Bad user input, such as an unknown config key; the CLI exits 2."""


@dataclass(frozen=True)
class Settings:
    quad_nodes: int = 48
    quad_target: float = 1e-12
    seed: int = 0

    @property
    def rule(self) -> QuadratureRule:
        return QuadratureRule(self.quad_nodes, self.quad_target)


def load_settings(path: str | None = None, overrides: dict | None = None) -> Settings:
    values: dict = {}
    if path:
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line: {raw.rstrip()}")
                key, val = (s.strip() for s in line.split("=", 1))
                values[key] = val
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})

    settings = Settings()
    casts = {"quad_nodes": int, "quad_target": float, "seed": int}
    for key, val in values.items():
        if key not in casts:
            raise UsageError(f"unknown config key {key!r}")
        try:
            settings = replace(settings, **{key: casts[key](val)})
        except ValueError as exc:
            raise UsageError(f"bad value {val!r} for config key {key!r}") from exc
    try:
        settings.rule  # QuadratureRule checks the quadrature settings' ranges
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return settings
