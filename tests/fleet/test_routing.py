"""Rendezvous routing: placement stability and digest semantics."""

from collections import Counter

import pytest

from repro.fleet import FleetConfig, rendezvous_order, routing_digest
from repro.fleet.supervisor import Replica


class _Proc:
    pid = 0

    def poll(self):
        return None


def _replicas(n):
    return [Replica(index=i, host="127.0.0.1", port=9000 + i,
                    proc=_Proc(), cache_dir=f"/tmp/r{i}",
                    log_path=f"/tmp/r{i}.log") for i in range(n)]


def test_digest_depends_on_content_not_names():
    a = routing_digest([("a.c", "int main(){}")])
    b = routing_digest([("totally-different.c", "int main(){}")])
    assert a == b
    assert a != routing_digest([("a.c", "int main(){ return 1; }")])


def test_digest_is_boundary_safe():
    # Length-prefixed hashing: moving bytes across source boundaries
    # must change the digest.
    left = routing_digest([("a.c", "ab"), ("b.c", "c")])
    right = routing_digest([("a.c", "a"), ("b.c", "bc")])
    assert left != right


def test_order_is_deterministic_and_total():
    replicas = _replicas(4)
    digest = routing_digest([("x.c", "source")])
    order1 = rendezvous_order(digest, replicas)
    order2 = rendezvous_order(digest, replicas)
    assert [r.index for r in order1] == [r.index for r in order2]
    assert sorted(r.index for r in order1) == [0, 1, 2, 3]


def test_minimal_disruption_on_replica_death():
    """Removing one replica only moves the keys it owned; every other
    key keeps its owner — the property plain modulo hashing lacks."""
    replicas = _replicas(4)
    digests = [routing_digest([(f"s{i}.c", f"source {i}")])
               for i in range(64)]
    owner_before = {d: rendezvous_order(d, replicas)[0].index
                    for d in digests}
    dead = 2
    survivors = [r for r in replicas if r.index != dead]
    for digest in digests:
        after = rendezvous_order(digest, survivors)[0].index
        if owner_before[digest] != dead:
            assert after == owner_before[digest]
        else:
            assert after != dead


def test_keys_spread_across_replicas():
    replicas = _replicas(3)
    owners = Counter(
        rendezvous_order(routing_digest([(f"s{i}.c", f"src {i}")]),
                         replicas)[0].index
        for i in range(90))
    # Every replica owns a meaningful share (not a sharpness test —
    # just that routing is not degenerate).
    assert set(owners) == {0, 1, 2}
    assert min(owners.values()) >= 10


def test_failover_successor_is_second_in_order():
    replicas = _replicas(3)
    digest = routing_digest([("x.c", "src")])
    order = rendezvous_order(digest, replicas)
    survivors = [r for r in replicas if r is not order[0]]
    assert rendezvous_order(digest, survivors)[0] is order[1]


def test_fleet_config_validation():
    assert FleetConfig(port=0).port == 0
    with pytest.raises(ValueError):
        FleetConfig(replicas=0)
