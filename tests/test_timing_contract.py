"""An analytic timing contract: simple programs match a closed form.

DESIGN §2 keeps the first-order timing structure of a GPU: core work
takes cycles of the core clock, and memory latency does not scale with
it. Wang & Chu (arXiv:1701.05308) model kernel time the same way, as a
part that scales with core frequency plus a memory part. For one wave
alone on one CU, with every load's hit or miss decided (hit rates of 0
or 1, no pattern jitter), both timing engines must match that model
exactly, at every frequency of the V/f grid.
"""

from hypothesis import given, settings, strategies as st

from repro.config import default_frequency_grid

from helpers import memory_loop, one_wave_commits, valu_loop

ENGINES = ("event", "reference")
GRID = default_frequency_grid()
EPOCHS_NS = st.sampled_from((200.0, 1000.0, 2000.0, 5000.0))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(f_ghz=st.sampled_from(GRID), epoch_ns=EPOCHS_NS)
def test_a_valu_loop_commits_in_proportion_to_the_clock(f_ghz, epoch_ns):
    """Five core cycles per two commits: ``2·T·f/5`` to within one."""
    for engine in ENGINES:
        commits = one_wave_commits(valu_loop(), engine, f_ghz, epoch_ns)
        assert abs(commits - 2 * epoch_ns * f_ghz / 5) <= 1, (engine, commits)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    f_ghz=st.sampled_from(GRID),
    epoch_ns=EPOCHS_NS,
    l2_hit_rate=st.sampled_from((0.0, 1.0)),
)
def test_a_memory_bound_loop_commits_the_same_at_every_clock(f_ghz, epoch_ns, l2_hit_rate):
    """A loop that waits on an L2 hit or a DRAM miss every trip commits
    what it commits at the lowest grid frequency."""
    program = memory_loop(l2_hit_rate)
    for engine in ENGINES:
        assert one_wave_commits(program, engine, f_ghz, epoch_ns) == one_wave_commits(
            program, engine, GRID[0], epoch_ns
        ), engine
