"""Session configuration: every numeric knob in one place.

Values come from CLI flags with an optional key=value file override
(``--config path``); flags given explicitly on the command line win.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from math import isqrt

from .errors import PreconditionError


@dataclass(frozen=True)
class SessionConfig:
    p: int = 3
    window: int = 4
    tail_depth: int = 6

    def validated(self) -> "SessionConfig":
        p = self.p
        if p < 2 or any(p % k == 0 for k in range(2, isqrt(p) + 1)):
            raise PreconditionError(f"p must be prime, got {p}")
        if self.window < 1 or self.tail_depth < 1:
            raise PreconditionError("depth knobs must be positive")
        return self


def load_config_file(path: str, base: SessionConfig) -> SessionConfig:
    """``base`` with the key = value lines of ``path`` applied; the keys are
    SessionConfig's fields, and every one of them is an integer.  Not yet
    validated: flags given on the command line still apply."""
    keys = {f.name for f in fields(SessionConfig)}
    updates = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise PreconditionError(
                    f"{path}:{lineno}: expected key=value, got {line!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in keys:
                raise PreconditionError(f"{path}:{lineno}: unknown key {key!r}")
            updates[key] = int(value.strip())
    return replace(base, **updates)
