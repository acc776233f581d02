"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is self-contained and checks one externally visible promise of
the dispatcher stack, mostly against independent oracles (brute force,
direct arithmetic, exhaustive enumeration). The terminal summary prints
one PASS/FAIL line per test; see conftest.py.
"""

import itertools
import math
import random
import re
import time
from bisect import bisect_right
from fractions import Fraction

import pytest

from cloudvault import anonymize, homomorphic, integrity, shamir, simcloud
from cloudvault.config import default_settings
from cloudvault.entropy_split import (
    block_boundaries,
    pairwise_chunk_divergence,
    plan_split,
    recovery_probability,
)
from cloudvault.persistence import (
    KeyStore,
    ManifestStore,
    RecordLog,
    scan_for_bytes,
)
from cloudvault.ranking import (
    ProviderProfile,
    Weights,
    breach_probability,
    normalize_fleet,
    rank_providers,
    rank_score,
)
from cloudvault.router import (
    DataObject,
    DispersalPolicy,
    OperationClass,
    Pipeline,
    Router,
    SecretLevel,
)
from cloudvault.shamir import InsufficientShares, ShareScheme


_opened: list[Router] = []


@pytest.fixture(autouse=True)
def _close_routers():
    """Every router a test opens closes at its teardown, pass or fail."""
    yield
    while _opened:
        _opened.pop().close()


def _fresh_router(tmp_path, name, **policy_kw):
    settings = default_settings()
    cloud = simcloud.SimCloud.build(settings.topology)
    router = Router(
        cloud=cloud,
        manifest=ManifestStore(str(tmp_path / f"{name}-manifest.cmf")),
        keystore=KeyStore(str(tmp_path / f"{name}-keystore.cmf")),
        policy=DispersalPolicy(**policy_kw),
        profiles=settings.profiles,
        rng=random.Random(name),
    )
    _opened.append(router)
    return router


def test_01_any_threshold_subset_reconstructs_and_below_threshold_fails():
    rng = random.Random(101)
    started = time.monotonic()
    for n in range(1, 7):
        for k in range(1, n + 1):
            secret = rng.randbytes(64)
            shares = shamir.split(secret, ShareScheme(k, n), rng)
            for subset in itertools.combinations(shares, k):
                assert shamir.reconstruct(subset) == secret
            for subset in itertools.combinations(shares, k - 1):
                with pytest.raises(InsufficientShares):
                    shamir.reconstruct(subset)
    assert time.monotonic() - started < 10.0


def test_02_single_share_is_consistent_with_every_secret_exactly_once():
    # k=2 of n=5 over GF(2^8): enumerating all 256 x 256 (secret, top
    # coefficient) pairs, the value observed at any one point x = 1..5 must
    # admit each candidate secret the same number of times, i.e. exactly once.
    class _OneCoefficient(random.Random):
        def __init__(self, value):
            super().__init__()
            self._value = value

        def randrange(self, *args, **kwargs):
            return self._value

    secrets = bytes(range(256))  # byte s of the secret is the candidate s
    seen = set()
    for coeff in range(256):
        shares = shamir.split(secrets, ShareScheme(2, 5), _OneCoefficient(coeff))
        assert [share.x for share in shares] == [1, 2, 3, 4, 5]
        for share in shares:
            seen.update((share.x, y, s) for s, y in enumerate(share.payload))
    # 5 * 256 * 256 draws, all distinct: each (x, observed value, secret)
    # occurs exactly once.
    assert len(seen) == 5 * 256 * 256


def test_03_reads_survive_every_two_provider_outage(tmp_path):
    router = _fresh_router(tmp_path, "outage")
    payload = random.Random(303).randbytes(12288)
    router.put(
        DataObject(
            object_id="outage-object",
            payload=payload,
            secret_level=SecretLevel.SECRET,
            operation_class=OperationClass.NO_OPERATIONS,
        )
    )
    topology = default_settings().topology
    pairs = list(itertools.combinations(sorted(topology), 2))
    assert len(pairs) == 10
    for down in pairs:
        for pid in down:
            for node in topology[pid]:
                router.cloud.inject(simcloud.NodeUnavailable(provider=pid, node=node))
        assert router.get("outage-object") == payload
        for provider in router.cloud.providers.values():
            provider.clear_all()


def _biased_blocks(rng, block_count, block_size):
    out = bytearray()
    for _ in range(block_count):
        bias = rng.randrange(256)
        out += bytes(
            bias if rng.random() < 0.7 else rng.randrange(256)
            for _ in range(block_size)
        )
    return bytes(out)


def _best_cut_by_enumeration(data, chunk_count, block_size):
    """Exhaustive max-min over every block-aligned cut placement."""
    bounds = block_boundaries(len(data), block_size)
    nb = len(bounds) - 1
    table = pairwise_chunk_divergence(data, block_size)
    best = float("-inf")
    for cuts in itertools.combinations(range(1, nb), chunk_count - 1):
        edges = (0, *cuts, nb)
        low = min(float(table[a, b]) for a, b in zip(edges, edges[1:]))
        if low > best:
            best = low
    return best


def test_04_planned_cuts_match_exhaustive_enumeration_exactly():
    block_size = 32
    for i in range(200):
        rng = random.Random(4000 + i)
        chunk_count = rng.choice([2, 3, 4])
        blocks = rng.randrange(chunk_count, 65)
        data = _biased_blocks(rng, blocks, block_size)
        if blocks > chunk_count and rng.random() < 0.5:
            data = data[: len(data) - rng.randrange(1, block_size)]
        plan = plan_split(data, chunk_count, block_size)
        assert plan.objective == _best_cut_by_enumeration(data, chunk_count, block_size)


def test_05_audit_detection_rate_tracks_sample_size():
    master = b"acceptance-audit-master"
    m, parity, length = 4, 2, 64
    payload = random.Random(505).randbytes((m + parity) * length)
    enc = integrity.encode(payload, m + parity)
    assert enc.column_length == length
    bad_column, bad_row = 1, 37
    corrupted = bytearray(enc.columns[bad_column])
    corrupted[bad_row] ^= 0x5A

    trials = 10_000
    for sample_size in (8, 16, 32):
        table = integrity.precompute_tokens(
            enc, rounds=trials, sample_size=sample_size, master_key=master
        )
        assert sum(len(col) for col in table.tokens) == (m + parity) * trials
        detected = 0
        for round_index in range(trials):
            msg = integrity.challenge(table, round_index, bad_column)
            response = integrity.respond(bytes(corrupted), msg)
            if not integrity.verify(table, round_index, bad_column, response).intact:
                detected += 1
        expected = sample_size / length
        stderr = math.sqrt(expected * (1 - expected) / trials)
        assert abs(detected / trials - expected) <= 3 * stderr

    # Sampling every row makes detection certain and names the column.
    full = integrity.precompute_tokens(enc, rounds=1, sample_size=length, master_key=master)
    failing = []
    for column in range(m + parity):
        stored = bytes(corrupted) if column == bad_column else enc.columns[column]
        msg = integrity.challenge(full, 0, column)
        result = integrity.verify(full, 0, column, integrity.respond(stored, msg))
        if not result.intact:
            failing.append(result.column)
    assert failing == [bad_column]


def test_06_ciphertext_arithmetic_matches_modular_oracle():
    rng = random.Random(606)
    keypair = homomorphic.keygen(128, rng)
    n = keypair.public.n
    failures = 0
    for _ in range(1_000):
        m1, m2 = rng.randrange(n), rng.randrange(n)
        scalar = rng.randrange(1, 1_000)
        c1 = homomorphic.encrypt(keypair.public, m1, rng)
        c2 = homomorphic.encrypt(keypair.public, m2, rng)
        checks = (
            (homomorphic.he_add(c1, c2), (m1 + m2) % n),
            (homomorphic.he_sub(c1, c2), (m1 - m2) % n),
            (homomorphic.he_scale(c1, scalar), (m1 * scalar) % n),
        )
        for ciphertext, want in checks:
            if homomorphic.decrypt(keypair, ciphertext) != want:
                failures += 1
    assert failures == 0


def test_07_every_level_and_operation_combination_routes_as_mandated(tmp_path):
    golden = {
        (SecretLevel.TOP_SECRET, OperationClass.NO_OPERATIONS): Pipeline.LOCAL_ONLY,
        (SecretLevel.TOP_SECRET, OperationClass.BASIC_OPERATIONS): Pipeline.LOCAL_ONLY,
        (SecretLevel.TOP_SECRET, OperationClass.ADVANCED_ANALYTICS): Pipeline.LOCAL_ONLY,
        (SecretLevel.SECRET, OperationClass.NO_OPERATIONS): Pipeline.SPLIT_SHARE_DISPERSE,
        (SecretLevel.SECRET, OperationClass.BASIC_OPERATIONS): Pipeline.HOMOMORPHIC_STORE,
        (SecretLevel.SECRET, OperationClass.ADVANCED_ANALYTICS): Pipeline.REJECTED,
        (SecretLevel.UNCLASSIFIED, OperationClass.NO_OPERATIONS): Pipeline.PLAIN_SINGLE_CLOUD,
        (SecretLevel.UNCLASSIFIED, OperationClass.BASIC_OPERATIONS): Pipeline.PLAIN_SINGLE_CLOUD,
        (SecretLevel.UNCLASSIFIED, OperationClass.ADVANCED_ANALYTICS): Pipeline.PLAIN_SINGLE_CLOUD,
    }
    router = _fresh_router(tmp_path, "golden")
    for (level, ops), want in golden.items():
        decision = router.route(
            DataObject(
                object_id=f"{level.value}-{ops.value}",
                payload=b"routing probe",
                secret_level=level,
                operation_class=ops,
            )
        )
        assert decision.pipeline is want, (level, ops)
        if want is Pipeline.REJECTED:
            assert decision.reason


def _slot_recoverable(share_count, parity_count, threshold, data_columns):
    # Direct reconstruction needs `threshold` share columns; the erasure
    # route needs `data_columns` of the share+parity columns first.
    return share_count >= threshold or share_count + parity_count >= data_columns


def test_08_no_single_provider_dump_can_rebuild_or_order_the_chunks(tmp_path):
    router = _fresh_router(tmp_path, "insider")
    payload = random.Random(808).randbytes(22000)
    record = router.put(
        DataObject(
            object_id="ins",
            payload=payload,
            secret_level=SecretLevel.SECRET,
            operation_class=OperationClass.NO_OPERATIONS,
        )
    )
    scheme = record.details["scheme"]
    k, n = scheme["threshold"], scheme["share_count"]
    chunk_count = record.details["chunk_count"]
    true_order = tuple(record.details["sequence_permutation"])
    assert (k, n, chunk_count) == (3, 5, 5)

    blob_pattern = re.compile(r"^ins\.s(\d+)\.(c|p)(\d+)$")
    bound = recovery_probability(chunk_count)
    assert bound == Fraction(1, math.factorial(chunk_count))

    rng = random.Random("ordering-harness")
    for pid in sorted(router.cloud.providers):
        shares_held = {slot: set() for slot in range(chunk_count)}
        parity_held = {slot: set() for slot in range(chunk_count)}
        for entry in router.cloud.insider_dump(pid):
            match = blob_pattern.match(entry.blob_id)
            if match is None:
                continue
            slot, kind, index = int(match[1]), match[2], int(match[3])
            (shares_held if kind == "c" else parity_held)[slot].add(index)
        for slot in range(chunk_count):
            assert len(shares_held[slot]) < k
            assert not _slot_recoverable(
                len(shares_held[slot]), len(parity_held[slot]), k, n
            )

        wins = correct_order_guesses = 0
        for _ in range(10_000):
            guess = tuple(rng.sample(range(chunk_count), chunk_count))
            if guess == true_order:
                correct_order_guesses += 1
                # Even the right order wins nothing without enough shares.
                if all(
                    _slot_recoverable(
                        len(shares_held[s]), len(parity_held[s]), k, n
                    )
                    for s in range(chunk_count)
                ):
                    wins += 1
        assert correct_order_guesses > 0
        assert Fraction(wins, 10_000) <= bound
        assert wins == 0


def test_09_rank_scores_match_direct_arithmetic_and_survive_scaling():
    rng = random.Random(909)
    for _ in range(1_000):
        scores = [rng.random() for _ in range(4)]
        raw_weights = [rng.uniform(0.01, 5.0) for _ in range(4)]
        profile = ProviderProfile(
            provider_id="p",
            time_score=scores[0],
            cost_score=scores[1],
            security_score=scores[2],
            privacy_score=scores[3],
            auth_bypass=rng.random(),
            hierarchy_access=(1.0, *sorted((rng.random(), rng.random()), reverse=True)),
            info_fraction=rng.random(),
        )
        total = sum(raw_weights)
        oracle = sum(w * s for w, s in zip(raw_weights, scores)) / total
        assert abs(rank_score(profile, Weights(*raw_weights)) - oracle) <= 1e-12
        for depth in range(3):
            assert breach_probability(profile, depth) == (
                profile.auth_bypass
                * profile.hierarchy_access[depth]
                * profile.info_fraction
            )

    def _order(measured):
        scored = normalize_fleet(measured)
        profiles = [
            ProviderProfile(
                provider_id=pid,
                time_score=t,
                cost_score=c,
                security_score=s,
                privacy_score=p,
                auth_bypass=0.1,
                hierarchy_access=(1.0,),
                info_fraction=0.2,
            )
            for pid, (t, c, s, p) in scored.items()
        ]
        ranked = rank_providers(profiles, Weights(1, 2, 3, 4))
        return [p.provider_id for p in ranked]

    for trial in range(20):
        rng = random.Random(9090 + trial)
        fleet = {
            f"p{i}": tuple(rng.uniform(0.1, 100.0) for _ in range(4)) for i in range(8)
        }
        baseline = _order(fleet)
        for scale in (0.25, 3.0, 1e6):
            scaled = {
                pid: tuple(scale * v for v in metrics)
                for pid, metrics in fleet.items()
            }
            assert _order(scaled) == baseline


def test_10_identifiers_never_reach_providers_and_tables_round_trip(tmp_path):
    router = _fresh_router(tmp_path, "tables")
    words = ("north", "south", "east", "west", "inland", "coastal")
    all_tables = {}
    all_identifiers = []
    for i in range(100):
        rng = random.Random(1000 + i)
        payload_cols = [f"col{j}" for j in range(rng.randrange(2, 6))]
        rows = []
        for r in range(rng.randrange(3, 13)):
            row = {"ident": f"person-{i:03d}-{r:03d}-{rng.randrange(16**6):06x}"}
            for col in payload_cols:
                row[col] = (
                    rng.choice(words) if rng.random() < 0.5 else rng.randrange(1_000_000)
                )
            rows.append(row)
        object_id = f"table-{i:03d}"
        router.put(
            DataObject(
                object_id=object_id,
                payload=rows,
                secret_level=SecretLevel.SECRET,
                operation_class=OperationClass.NO_OPERATIONS,
                id_columns=("ident",),
            )
        )
        all_tables[object_id] = rows
        all_identifiers.extend(row["ident"] for row in rows)

    stored = b"\x00".join(
        entry.data
        for pid in router.cloud.providers
        for entry in router.cloud.insider_dump(pid)
    )
    for ident in all_identifiers:
        assert not scan_for_bytes(stored, ident.encode("utf-8"))

    for object_id, rows in all_tables.items():
        assert router.get(object_id) == rows

    twice = [
        {"ident": "dup", "col0": 1},
        {"ident": "dup", "col0": 2},
    ]
    with pytest.raises(anonymize.DuplicateIdentifier):
        router.put(
            DataObject(
                object_id="table-dup",
                payload=twice,
                secret_level=SecretLevel.SECRET,
                operation_class=OperationClass.NO_OPERATIONS,
                id_columns=("ident",),
            )
        )


def test_11_every_truncation_point_yields_only_complete_records(tmp_path):
    base = tmp_path / "store.cmf"
    originals = [{"seq": i, "body": "x" * (10 + 7 * i)} for i in range(3)]
    log = RecordLog(base)
    ends = [base.stat().st_size]  # just the magic
    for payload in originals:
        log.append(payload)
        ends.append(base.stat().st_size)
    log.close()
    blob = base.read_bytes()
    assert ends[-1] == len(blob)

    for cut in range(len(blob) + 1):
        path = tmp_path / f"cut-{cut}.cmf"
        path.write_bytes(blob[:cut])
        complete = bisect_right(ends[1:], cut)
        with RecordLog(path) as log:
            assert log.tail_torn == (cut not in ends)
            assert log.records() == originals[:complete]
        # The torn bytes are cut off: the file is the clean prefix.
        assert path.read_bytes() == blob[: ends[complete]]
        with RecordLog(path) as log:
            assert not log.tail_torn
            assert log.records() == originals[:complete]
