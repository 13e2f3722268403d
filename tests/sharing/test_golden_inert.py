"""An inert SharingSpec is invisible: bit-identical to the
pre-sharing build.

Row ``midsize`` of ``tests/pins.json`` was recorded before the
stream-sharing subsystem existed.  A config that spells out
``sharing=SharingSpec()`` explicitly must reproduce it exactly — same
config digest (the inert spec is omitted from the cache form), same
behaviour digest, same event count — standalone and as a 1-node
cluster, under direct execution and both executors.
"""

from repro.cluster import ClusterConfig
from repro.sharing import SharingSpec
from tests import pins
from tests.sim.test_golden_digest import midsize_config


def explicit_inert():
    return midsize_config().replace(sharing=SharingSpec())


def one_node_cluster():
    return ClusterConfig(node=explicit_inert())


def test_config_digest_matches_the_pre_sharing_golden():
    pins.check_config("midsize", explicit_inert())


def test_standalone_identity_direct():
    pins.check("midsize", pins.run(explicit_inert()))


def test_standalone_identity_jobs_1():
    pins.check("midsize", pins.run(explicit_inert(), "jobs_1"))


def test_standalone_identity_jobs_4():
    pins.check("midsize", pins.run(explicit_inert(), "jobs_4"))


def test_cluster_identity_direct():
    pins.check("midsize", pins.run(one_node_cluster()))


def test_cluster_identity_jobs_4():
    pins.check("midsize", pins.run(one_node_cluster(), "jobs_4"))
