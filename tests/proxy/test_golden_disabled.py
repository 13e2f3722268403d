"""A disabled ProxySpec is invisible: bit-identical to the pre-proxy
build.

Row ``midsize`` of ``tests/pins.json`` was recorded before the proxy
tier existed.  A config that spells out ``proxy=ProxySpec()``
explicitly must reproduce it exactly — same config digest (the inert
spec is omitted from the cache form), same behaviour digest, same event
count — standalone and as a 1-node cluster, under direct execution and
both executors.
"""

from repro.cluster import ClusterConfig
from repro.proxy import ProxySpec
from tests import pins
from tests.sim.test_golden_digest import midsize_config


def explicit_disabled():
    return midsize_config().replace(proxy=ProxySpec())


def one_node_cluster():
    return ClusterConfig(node=midsize_config(), proxy=ProxySpec())


def test_config_digest_matches_the_pre_proxy_golden():
    pins.check_config("midsize", explicit_disabled())


def test_standalone_identity_direct():
    pins.check("midsize", pins.run(explicit_disabled()))


def test_standalone_identity_jobs_1():
    pins.check("midsize", pins.run(explicit_disabled(), "jobs_1"))


def test_standalone_identity_jobs_4():
    pins.check("midsize", pins.run(explicit_disabled(), "jobs_4"))


def test_cluster_identity_direct():
    pins.check("midsize", pins.run(one_node_cluster()))


def test_cluster_identity_jobs_1():
    pins.check("midsize", pins.run(one_node_cluster(), "jobs_1"))


def test_cluster_identity_jobs_4():
    pins.check("midsize", pins.run(one_node_cluster(), "jobs_4"))
