"""The config table: every key has a rule, the defaults survive a JSON
round trip with their types, and loaded values arrive converted."""

import dataclasses
import json

from waveop_lab.config import Config, load_config


def _types(val):
    """val with every leaf replaced by its type."""
    if isinstance(val, dict):
        return {k: _types(v) for k, v in val.items()}
    if isinstance(val, (list, tuple)):
        return type(val), [_types(v) for v in val]
    return type(val)


def test_table_covers_every_key_and_converts(tmp_path):
    cfg = Config()
    for f in dataclasses.fields(Config):
        rule, default = f.metadata["rule"], getattr(cfg, f.name)
        if isinstance(default, dict):
            assert isinstance(rule, dict) and set(rule) == set(default), f.name
            assert all(map(callable, rule.values())), f.name
        else:
            assert callable(rule), f.name

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    loaded = load_config(str(path))
    assert loaded == cfg
    assert _types(dataclasses.asdict(loaded)) == _types(dataclasses.asdict(cfg))

    path.write_text(json.dumps({"sweeps": {"radius_max": 200}, "k3": {"n_lambda": 24.0}}))
    loaded = load_config(str(path))
    assert loaded.sweeps["radius_max"] == 200.0 and type(loaded.sweeps["radius_max"]) is float
    assert loaded.k3["n_lambda"] == 24 and type(loaded.k3["n_lambda"]) is int
