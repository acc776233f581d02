import pytest

from cloudvault.config import (
    ConfigError,
    default_settings,
    load_settings,
    parse_kv,
    settings_from_text,
)


def test_parse_kv_basics():
    text = """
    # comment
    a = 1
    b = two words   # inline comments stripped
    a = 3
    """
    kv = parse_kv(text)
    assert kv["a"] == "3"  # later assignment wins
    assert kv["b"] == "two words"


def test_parse_kv_rejects_malformed_lines():
    with pytest.raises(ConfigError) as err:
        parse_kv("valid = 1\nnot a pair\n")
    assert "line 2" in str(err.value)


def test_default_settings_shape():
    s = default_settings()
    assert len(s.topology) == 5
    assert set(s.profiles) == set(s.topology)
    assert all(nodes == {"n0": 0} for nodes in s.topology.values())


def test_settings_scalars_survive_without_providers():
    s = settings_from_text("seed = 42\nblock = 128\n")
    assert s.seed == 42
    assert s.policy.block_size == 128
    assert len(s.topology) == 5  # default fleet fills in


def test_credential_is_held_once_by_the_policy():
    s = settings_from_text("credential = sesame\n")
    assert s.policy.credential == "sesame"
    assert s.credential == "sesame"
    s.policy.credential = "other"
    assert s.credential == "other"
    with pytest.raises(AttributeError):
        s.credential = "stale"


def test_explicit_providers_parsed():
    s = settings_from_text(
        """
        providers = one, two
        provider.one.nodes = n0:0, n1:2
        provider.two.nodes = edge:1
        """
    )
    assert s.topology == {"one": {"n0": 0, "n1": 2}, "two": {"edge": 1}}
    assert set(s.profiles) == {"one", "two"}


def test_explicit_empty_providers_stays_empty():
    s = settings_from_text("providers =\n")
    assert s.topology == {}


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        settings_from_text("sed = 1\n")
    with pytest.raises(ConfigError):
        settings_from_text("providers = a\nprovider.a.banana = 1\n")
    with pytest.raises(ConfigError, match="unknown key 'parity'"):
        settings_from_text("parity = 2\n")


@pytest.mark.parametrize(
    "text",
    ["rounds = 0", "audit_rows = -2", "chunks = -1", "chunks = 0", "threshold = 0",
     "share_count = 0", "block = 0", "he_bits = 15"],
)
def test_out_of_range_values_rejected_at_load(text):
    key = text.split()[0]
    with pytest.raises(ConfigError, match=f"{key} must be at least"):
        settings_from_text(text + "\n")


def test_smallest_accepted_values_load():
    s = settings_from_text(
        "rounds = 1\naudit_rows = 1\nchunks = 1\nthreshold = 1\n"
        "share_count = 1\nblock = 1\nhe_bits = 16\n"
    )
    p = s.policy
    assert (p.token_rounds, p.audit_rows, p.chunk_count, p.threshold) == (1, 1, 1, 1)
    assert (p.share_count, p.block_size, p.he_bits) == (1, 1, 16)


def test_raw_metrics_normalized():
    s = settings_from_text(
        """
        metrics = raw
        providers = a, b
        provider.a.nodes = n0:0
        provider.b.nodes = n0:0
        provider.a.time = 10
        provider.a.cost = 10
        provider.a.security = 8
        provider.a.privacy = 8
        provider.b.time = 20
        provider.b.cost = 5
        provider.b.security = 4
        provider.b.privacy = 4
        """
    )
    a, b = s.profiles["a"], s.profiles["b"]
    assert a.time_score == pytest.approx(0.5)  # 1 - 10/20
    assert b.time_score == pytest.approx(0.0)
    assert a.security_score == pytest.approx(1.0)
    assert b.security_score == pytest.approx(0.5)


def test_weights_parsed():
    s = settings_from_text("weights = 1, 2, 3, 4\n")
    assert s.policy.weights.privacy == pytest.approx(0.4)


def test_load_settings_none_gives_defaults():
    assert load_settings(None).topology == default_settings().topology


def test_load_settings_reads_file(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("seed = 9\n")
    assert load_settings(str(path)).seed == 9
