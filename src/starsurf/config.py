"""Key-value configuration: the seed.

File format: one ``key = value`` pair per line, ``#`` comments allowed.
Recognized keys; any other key is a usage error:

    seed             RNG seed for sampled checks (default 0)

Command-line flags override file values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


class UsageError(ValueError):
    """Bad user input, such as an unknown config key; the CLI exits 2."""


@dataclass(frozen=True)
class Settings:
    seed: int = 0


def load_settings(path: str | None = None, overrides: dict | None = None) -> Settings:
    values: dict = {}
    if path:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read the config file: {exc}") from exc
        for raw in lines:
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
    casts = {"seed": int}
    for key, val in values.items():
        if key not in casts:
            raise UsageError(f"unknown config key {key!r}")
        try:
            settings = replace(settings, **{key: casts[key](val)})
        except ValueError as exc:
            raise UsageError(f"bad value {val!r} for config key {key!r}") from exc
    return settings
