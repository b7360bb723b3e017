"""Scenario configuration shared by the protocol, the harness and the CLI.

`ScenarioConfig(...)`, `replace` and `config_from_dict` raise `ConfigError`
naming the offending field, so a scenario file must be valid on its own
before the CLI's flags override it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

ATTACK_KINDS = ("none", "collusion", "intercept_resend")
CHECK_KINDS = ("original", "improved")
INTEGER_FIELDS = ("n", "m", "d", "trials", "seed")

_MAX_SEED = 2**64


class ConfigError(ValueError):
    """Invalid scenario configuration; `field` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulated scenario.

    Fields:
        n: number of participants (the chain Bob_1 .. Bob_n), at least 2.
        m: number of entangled pairs carrying the secret, at least 1.
        d: decoy particles inserted per hop, at least 0.
        attack: "none", "collusion" (first and last participant collude) or
            "intercept_resend" (an outside eavesdropper on one hop).
        check: "original" (decoy checks only) or "improved" (decoy checks
            plus the pair-sampling parity check).
        check_fraction: fraction of pairs sampled by the improved check,
            in (0, 1]; used only when check="improved".
        trials: Monte Carlo repetitions.
        seed: 64-bit master seed; per-trial streams are derived from it.
    """

    n: int = 3
    m: int = 16
    d: int = 8
    attack: str = "none"
    check: str = "original"
    check_fraction: float = 0.5
    trials: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ConfigError naming the offending field if any value is invalid."""
        for name in (*INTEGER_FIELDS, "check_fraction"):
            if isinstance(getattr(self, name), bool):  # bool is an int subclass
                raise ConfigError(name, f"must be a number, got {getattr(self, name)!r}")
        if not isinstance(self.n, int) or self.n < 2:
            raise ConfigError("n", f"participants must be an integer >= 2, got {self.n!r}")
        if not isinstance(self.m, int) or self.m < 1:
            raise ConfigError("m", f"pair count must be an integer >= 1, got {self.m!r}")
        if not isinstance(self.d, int) or self.d < 0:
            raise ConfigError("d", f"decoy count must be an integer >= 0, got {self.d!r}")
        if self.attack not in ATTACK_KINDS:
            raise ConfigError(
                "attack", f"must be one of {', '.join(ATTACK_KINDS)}, got {self.attack!r}"
            )
        if self.check not in CHECK_KINDS:
            raise ConfigError(
                "check", f"must be one of {', '.join(CHECK_KINDS)}, got {self.check!r}"
            )
        if not isinstance(self.check_fraction, (int, float)) or not (
            0.0 < float(self.check_fraction) <= 1.0
        ):
            raise ConfigError(
                "check_fraction",
                f"sampled fraction must lie in (0, 1], got {self.check_fraction!r}",
            )
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ConfigError("trials", f"must be an integer >= 1, got {self.trials!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < _MAX_SEED:
            raise ConfigError(
                "seed", f"must be a 64-bit non-negative integer, got {self.seed!r}"
            )

    def replace(self, **changes: Any) -> "ScenarioConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


FIELDS = tuple(field.name for field in dataclasses.fields(ScenarioConfig))


def config_from_dict(data: dict[str, Any]) -> ScenarioConfig:
    """Build a ScenarioConfig from scenario-file contents.

    Unknown fields raise ConfigError naming the field. JSON has one number
    type, so an integral float becomes an integer field's int and an int
    becomes `check_fraction`'s float; `ScenarioConfig` checks the rest.
    """
    clean: dict[str, Any] = {}
    for key, value in data.items():
        if key not in FIELDS:
            raise ConfigError(key, "unknown scenario field")
        if key in INTEGER_FIELDS and isinstance(value, float) and value.is_integer():
            value = int(value)
        elif key == "check_fraction" and type(value) is int:  # a bool stays a bool
            value = float(value)
        clean[key] = value
    return ScenarioConfig(**clean)
