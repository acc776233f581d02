"""Key-value policy configuration.

The format is deliberately plain: one ``key = value`` per line, ``#`` starts
a comment, blank lines are ignored, keys may be dotted. Lists are comma
separated. Example::

    # dispatcher policy
    seed = 42
    credential = sandbox-token
    state_dir = ./simstate
    manifest = ./manifest.cmf
    keystore = ./keystore.cmf

    threshold = 3          # shares needed to recover a chunk
    share_count = 5        # shares issued per chunk
    chunks = 4             # dispersal slots per object
    block = 64             # cut granularity in bytes
    rounds = 16            # precomputed audit rounds
    audit_rows = 16        # rows sampled per audit round
    he_bits = 256          # homomorphic modulus size

    weights = 0.25, 0.25, 0.25, 0.25   # time, cost, security, privacy
    metrics = scores                   # or "raw" to normalize and invert
    privacy_from_security = false

    providers = alpha, beta, gamma
    provider.alpha.nodes = n0:1, n1:2       # node:depth
    provider.alpha.time = 0.9
    provider.alpha.cost = 0.5
    provider.alpha.security = 0.8
    provider.alpha.privacy = 0.6
    provider.alpha.auth_bypass = 0.1
    provider.alpha.hier_access = 0.5, 0.25, 0.125
    provider.alpha.info_fraction = 0.2

Unset keys fall back to defaults; unknown keys are rejected so typos fail
loudly instead of silently running with defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .homomorphic import MIN_KEY_BITS
from .ranking import ProviderProfile, Weights, normalize_fleet
from .router import DispersalPolicy


class ConfigError(Exception):
    """Malformed configuration text or values."""


def parse_kv(text: str) -> dict[str, str]:
    """Parse the key-value format; later assignments win."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def _split_list(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


_KNOWN_KEYS = {
    "seed",
    "credential",
    "state_dir",
    "manifest",
    "keystore",
    "threshold",
    "share_count",
    "chunks",
    "block",
    "rounds",
    "audit_rows",
    "he_bits",
    "weights",
    "metrics",
    "privacy_from_security",
    "providers",
}

_PROVIDER_KEYS = {
    "nodes",
    "time",
    "cost",
    "security",
    "privacy",
    "auth_bypass",
    "hier_access",
    "info_fraction",
}


@dataclass
class Settings:
    """Everything the CLI and router need, with usable defaults."""

    seed: int = 0
    state_dir: str = "./simstate"
    manifest: str = "./manifest.cmf"
    keystore: str = "./keystore.cmf"
    policy: DispersalPolicy = dc_field(default_factory=DispersalPolicy)
    topology: dict[str, dict[str, int]] = dc_field(default_factory=dict)
    profiles: dict[str, ProviderProfile] = dc_field(default_factory=dict)

    @property
    def credential(self) -> str:
        """The ``credential`` key: what the simulated fleet is built with
        and what the router presents, kept once in ``policy``."""
        return self.policy.credential


_DEFAULT_PROVIDERS = ("alpha", "beta", "gamma", "delta", "epsilon")


def default_settings() -> Settings:
    """Five providers with one node each; neutral profiles."""
    s = Settings()
    for pid in _DEFAULT_PROVIDERS:
        s.topology[pid] = {"n0": 0}
        s.profiles[pid] = ProviderProfile(
            provider_id=pid,
            time_score=0.5,
            cost_score=0.5,
            security_score=0.5,
            privacy_score=0.5,
            auth_bypass=0.1,
            hierarchy_access=(1.0, 0.5),
            info_fraction=0.2,
        )
    return s


def _parse_nodes(value: str, where: str) -> dict[str, int]:
    nodes: dict[str, int] = {}
    for part in _split_list(value):
        if ":" in part:
            name, depth = part.split(":", 1)
            try:
                nodes[name.strip()] = int(depth)
            except ValueError:
                raise ConfigError(f"{where}: bad node depth in {part!r}")
        else:
            nodes[part] = 0
    if not nodes:
        raise ConfigError(f"{where}: empty node list")
    if min(nodes.values()) < 0:
        raise ConfigError(f"{where}: node depths must be nonnegative")
    return nodes


def settings_from_text(text: str) -> Settings:
    """Build Settings from configuration text.

    Raises:
        ConfigError: syntax errors, unknown keys, or unusable values.
    """
    kv = parse_kv(text)
    s = Settings()

    provider_kv: dict[str, dict[str, str]] = {}
    for key, value in kv.items():
        if key.startswith("provider."):
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in _PROVIDER_KEYS:
                raise ConfigError(f"unknown provider key {key!r}")
            provider_kv.setdefault(parts[1], {})[parts[2]] = value
        elif key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}")

    def geti(key: str, default: int | None, least: int | None = None) -> int | None:
        if key not in kv:
            return default
        try:
            value = int(kv[key])
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {kv[key]!r}")
        if least is not None and value < least:
            raise ConfigError(f"{key} must be at least {least}, got {value}")
        return value

    s.seed = geti("seed", 0)
    s.state_dir = kv.get("state_dir", s.state_dir)
    s.manifest = kv.get("manifest", s.manifest)
    s.keystore = kv.get("keystore", s.keystore)
    policy = s.policy
    policy.credential = kv.get("credential", "")
    policy.threshold = geti("threshold", None, 1)
    policy.share_count = geti("share_count", None, 1)
    k, n = policy.threshold, policy.share_count
    if k is not None and n is not None and k > n:
        raise ConfigError(f"threshold {k} exceeds share_count {n}")
    policy.chunk_count = geti("chunks", None, 1)
    policy.block_size = geti("block", policy.block_size, 1)
    policy.token_rounds = geti("rounds", policy.token_rounds, 1)
    policy.audit_rows = geti("audit_rows", policy.audit_rows, 1)
    policy.he_bits = geti("he_bits", policy.he_bits, MIN_KEY_BITS)

    if "weights" in kv:
        parts = _split_list(kv["weights"])
        if len(parts) != 4:
            raise ConfigError("weights needs exactly four values")
        try:
            policy.weights = Weights(*(float(p) for p in parts))
        except ValueError as e:
            raise ConfigError(f"bad weights: {e}")

    raw_metrics = kv.get("metrics", "scores")
    if raw_metrics not in ("scores", "raw"):
        raise ConfigError("metrics must be 'scores' or 'raw'")
    collapse = kv.get("privacy_from_security", "false").lower() in ("true", "1", "yes")

    provider_ids = _split_list(kv["providers"]) if "providers" in kv else []
    if not provider_ids and provider_kv:
        provider_ids = sorted(provider_kv)
    if not provider_ids:
        if "providers" in kv:
            # An explicit empty list stays empty; routing will reject it.
            return s
        defaults = default_settings()
        s.topology = defaults.topology
        s.profiles = defaults.profiles
        return s

    measured: dict[str, tuple[float, float, float, float]] = {}
    for pid in provider_ids:
        pkv = provider_kv.get(pid, {})
        s.topology[pid] = _parse_nodes(pkv.get("nodes", "n0:0"), f"provider.{pid}.nodes")
        try:
            metrics = (
                float(pkv.get("time", "0.5")),
                float(pkv.get("cost", "0.5")),
                float(pkv.get("security", "0.5")),
                float(pkv.get("privacy", pkv.get("security", "0.5"))),
            )
        except ValueError:
            raise ConfigError(f"provider {pid!r}: metrics must be numbers")
        measured[pid] = metrics

    if raw_metrics == "raw":
        try:
            scored = normalize_fleet(measured, collapse_privacy=collapse)
        except ValueError as e:
            raise ConfigError(f"metrics = raw: {e}")
    else:
        scored = {
            pid: (m[0], m[1], m[2], m[2] if collapse else m[3])
            for pid, m in measured.items()
        }

    for pid in provider_ids:
        pkv = provider_kv.get(pid, {})
        t, c, sec, priv = scored[pid]
        try:
            hier = tuple(float(x) for x in _split_list(pkv.get("hier_access", "1.0")))
            s.profiles[pid] = ProviderProfile(
                provider_id=pid,
                time_score=t,
                cost_score=c,
                security_score=sec,
                privacy_score=priv,
                auth_bypass=float(pkv.get("auth_bypass", "0.1")),
                hierarchy_access=hier,
                info_fraction=float(pkv.get("info_fraction", "0.2")),
            )
        except ValueError as e:
            raise ConfigError(f"provider {pid!r}: {e}")
    return s


def load_settings(path: str | Path | None) -> Settings:
    """Settings from a file path, or the defaults when no path is given."""
    if path is None:
        return default_settings()
    return settings_from_text(Path(path).read_text())
