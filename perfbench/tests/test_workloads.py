import filecmp
import os
import time

import pytest

from gen import write_homophily_inputs
from workloads import WORKLOADS, Context, input_digest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_generator_repeats_for_a_seed_and_changes_with_it(tmp_path):
    first = write_homophily_inputs(str(tmp_path / "a"), seed=3)
    again = write_homophily_inputs(str(tmp_path / "b"), seed=3)
    other = write_homophily_inputs(str(tmp_path / "c"), seed=4)
    for x, y, z in zip(first, again, other):
        assert filecmp.cmp(x, y, shallow=False)
        assert not filecmp.cmp(x, z, shallow=False)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_setup_inputs_depend_only_on_the_seed(tmp_path, name):
    workload = WORKLOADS[name]
    digests = []
    for run, seed in enumerate((5, 5, 6)):
        ctx = Context(ROOT, str(tmp_path / str(run)), seed, deadline=time.perf_counter() + 120)
        os.makedirs(ctx.work)
        assert all(r.exit_code == 0 for r in workload.setup(ctx))
        digests.append(input_digest(ctx.out))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]
