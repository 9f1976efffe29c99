"""One flat config binding every knob of the engine.

The file form is plain JSON with exactly these field names; anything omitted
keeps its default, unknown keys are rejected (they are almost always typos).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, get_type_hints

from .canon import canonical_dumps, parse_json, read_json, read_text, require_json_type
from .energy import EnergyParams
from .errors import DomainError
from .protocol import DEFAULT_INSTRUCTION
from .runtime import EpisodeConfig, TOKEN_ENV_DEFAULT


class ConfigError(DomainError):
    pass


@dataclass
class Config:
    # energy / shaping
    lambda_decay: float = EnergyParams.lambda_decay
    gamma_feedback: float = EnergyParams.gamma_feedback
    s_total: int = EnergyParams.s_total
    top_k: int = EnergyParams.top_k
    uniform_mode: bool = EnergyParams.uniform_mode
    # runtime
    t_max: int = EpisodeConfig.t_max
    search_k: int = EpisodeConfig.search_k
    n_frames: int = EpisodeConfig.n_frames
    instruction_path: str = ""  # empty -> built-in default instruction
    # policy
    policy_mode: str = "scripted"  # "scripted" | "remote"
    policy_script: str = ""
    policy_base_url: str = ""
    policy_model: str = ""
    policy_token_env: str = TOKEN_ENV_DEFAULT
    policy_timeout_s: float = 60.0
    # judge
    judge_mode: str = "exact"  # "exact" | "remote"
    judge_base_url: str = ""
    judge_model: str = ""
    judge_token_env: str = TOKEN_ENV_DEFAULT
    # paths
    corpus_path: str = ""
    output_dir: str = "out"

    def __post_init__(self) -> None:
        try:
            for name, kind in get_type_hints(Config).items():
                require_json_type(getattr(self, name), kind, name)
            # the engine's own classes hold the range checks; run them now so
            # a bad value fails at load time as a ConfigError
            self._episode_config(DEFAULT_INSTRUCTION)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        if self.policy_timeout_s <= 0:
            raise ConfigError(f"policy_timeout_s must be > 0, got {self.policy_timeout_s!r}")
        if self.policy_mode not in ("scripted", "remote"):
            raise ConfigError(f"policy_mode must be 'scripted' or 'remote', got {self.policy_mode!r}")
        if self.judge_mode not in ("exact", "remote"):
            raise ConfigError(f"judge_mode must be 'exact' or 'remote', got {self.judge_mode!r}")

    def _episode_config(self, instruction: str) -> EpisodeConfig:
        energy = EnergyParams(
            lambda_decay=self.lambda_decay,
            gamma_feedback=self.gamma_feedback,
            s_total=self.s_total,
            top_k=self.top_k,
            uniform_mode=self.uniform_mode,
        )
        return EpisodeConfig(
            t_max=self.t_max,
            energy=energy,
            search_k=self.search_k,
            n_frames=self.n_frames,
            instruction=instruction,
        )

    def episode_config(self) -> EpisodeConfig:
        if not self.instruction_path:
            return self._episode_config(DEFAULT_INSTRUCTION)
        return self._episode_config(read_text(self.instruction_path, ConfigError))

    def require(self, field_name: str) -> str:
        value = getattr(self, field_name)
        if not value:
            raise ConfigError(f"config field {field_name!r} is required for this command")
        return value


def load_config(path: str | Path | None = None, overrides: Iterable[str] = ()) -> Config:
    """The defaults, then the fields a JSON config file sets (when given),
    then ``field=value`` overrides, whose values parse as JSON, falling back
    to plain strings."""
    record = {}
    if path is not None:
        record = read_json(path, ConfigError)
        if not isinstance(record, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
    for override in overrides:
        name, equals, raw = override.partition("=")
        if not equals:
            raise ConfigError(f"bad override {override!r}; use field=value")
        try:
            record[name] = parse_json(raw)
        except json.JSONDecodeError:
            record[name] = raw
    known = {f.name for f in fields(Config)}
    unknown = sorted(set(record) - known)
    if unknown:
        raise ConfigError(f"unknown config fields {unknown}; use one of {sorted(known)}")
    return Config(**record)


def dump_config(config: Config) -> str:
    return canonical_dumps(asdict(config)) + "\n"
