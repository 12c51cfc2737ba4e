"""Queries at the space budget's edge, k**n = 2**26, run with too little
memory: each must end with exit 0 or 4 and a one-line message, not a
traceback.

Each query runs in a child process that lowers its own address-space
limit (RLIMIT_AS) to 2 GiB before it starts, so numpy's large requests
fail there as they would on a small machine; the limit acts on that
child alone.  stdout goes to /dev/null, since a dump at the edge is
gigabytes of text, except for the queries in ANSWERS, which must answer
(exit 0) with stdout ending as given.
"""

import os
import subprocess
import sys

import pytest

from tests.conftest import corpus_path

# Elsewhere RLIMIT_AS is missing (Windows) or not enforced on allocations
# (macOS), so the children would really try the multi-GiB requests.
pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced only on Linux")
resource = pytest.importorskip("resource")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ADDRESS_SPACE = 2 << 30

QUERIES = {
    "switchable min2": ("switchable", corpus_path("min2"), "--r", "25", "--n", "26"),
    "dump switch min2": ("dump", "switch", corpus_path("min2"), "--r", "25", "--n", "26"),
    "dump d egp3": ("dump", "d", corpus_path("egp3"), "--m", "8"),
    "d-check egp3": ("d-check", corpus_path("egp3"), "--m", "8"),
}
# The switch tuples with r >= n - 1 are all of A^n, which is closed.
ANSWERS = {"switchable min2": "full: yes\n"}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("query", QUERIES)
def test_edge_query_exits_cleanly_under_a_memory_limit(query):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    answer = ANSWERS.get(query)
    proc = subprocess.run(
        [sys.executable, "-m", "genpow", *map(str, QUERIES[query])],
        stdout=subprocess.DEVNULL if answer is None else subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert proc.returncode in ((0, 4) if answer is None else (0,)), proc.stderr
    assert "Traceback" not in proc.stderr
    if answer is not None:
        assert proc.stdout.endswith(answer), proc.stdout[-200:]
