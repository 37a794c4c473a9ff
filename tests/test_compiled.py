"""Compiled decode tables: lossless, bit-identical, shared, cache-stable.

The event engine executes :class:`~repro.gpu.isa.CompiledProgram` flat
arrays while the reference engine keeps dataclass decode, so the
engine-equivalence suite already proves the two decode paths agree on
timing. These tests pin the table itself: round-tripping back to the
exact instruction list for arbitrary programs, structural sharing
across clone/snapshot, and stable cache keys.
"""

import pickle

from hypothesis import given, settings

from repro.config import small_config
from repro.gpu.gpu import Gpu
from repro.gpu.isa import InstructionKind, Program
from repro.gpu.kernel import Kernel, WorkgroupGeometry
from repro.runtime.cache import canonicalize

from helpers import decompile, make_loop_program, programs

DETERMINISTIC = settings(derandomize=True, database=None, max_examples=60)


class TestRoundTrip:
    @DETERMINISTIC
    @given(program=programs())
    def test_decompile_is_lossless(self, program):
        assert decompile(program.compiled) == program.instructions

    @DETERMINISTIC
    @given(program=programs())
    def test_flat_arrays_mirror_instructions(self, program):
        cp = program.compiled
        assert len(cp) == len(program)
        for pc, instr in enumerate(program.instructions):
            assert cp.kinds[pc] == int(instr.kind)
            assert cp.cycles[pc] == instr.cycles
            assert cp.batchable[pc] == (
                instr.kind in (InstructionKind.VALU, InstructionKind.SALU,
                               InstructionKind.BRANCH)
            )


class TestIdentityAndSharing:
    def test_compiled_is_cached_on_the_program(self):
        p = make_loop_program()
        assert p.compiled is p.compiled
        assert p.compiled.source is p

    def test_equal_programs_compare_equal_compiled(self):
        a = make_loop_program()
        b = make_loop_program()
        assert a is not b
        assert a.compiled == b.compiled
        assert hash(a.compiled) == hash(b.compiled)

    def test_waves_share_one_table_across_clone_and_snapshot(self):
        cfg = small_config(n_cus=2, waves_per_cu=4)
        gpu = Gpu(cfg.gpu)
        kern = Kernel.homogeneous(make_loop_program(trips=500), WorkgroupGeometry(4, 2))
        gpu.load_kernel(kern)
        gpu.run_epoch(500.0)
        tables = {id(wf.code) for cu in gpu.cus for wf in cu.waves}
        assert len(tables) == 1
        clone = gpu.clone()
        assert {id(wf.code) for cu in clone.cus for wf in cu.waves} == tables
        snap = gpu.snapshot()
        gpu.run_epoch(500.0)
        before = [wf for cu in gpu.cus for wf in cu.waves]
        gpu.restore(snap)
        after = [wf for cu in gpu.cus for wf in cu.waves]
        # Restore reuses resident wavefront objects (table identity match).
        assert {id(w) for w in after} <= {id(w) for w in before}
        assert {id(wf.code) for wf in after} == tables

    def test_compiled_pickle_rebuilds_through_the_cache(self):
        cp = make_loop_program().compiled
        cp2 = pickle.loads(pickle.dumps(cp))
        assert cp2 == cp
        assert cp2.source.compiled is cp2

    def test_gpu_with_loaded_kernel_pickles(self):
        cfg = small_config(n_cus=1, waves_per_cu=2)
        gpu = Gpu(cfg.gpu)
        gpu.load_kernel(Kernel.homogeneous(make_loop_program(), WorkgroupGeometry(2, 2)))
        gpu.run_epoch(200.0)
        gpu2 = pickle.loads(pickle.dumps(gpu))
        gpu.run_epoch(300.0)
        gpu2.run_epoch(300.0)
        assert [cu.stats.capture() for cu in gpu.cus] == [
            cu.stats.capture() for cu in gpu2.cus
        ]


class TestCacheKeys:
    def test_compiled_canonicalises_as_its_source(self):
        p = make_loop_program()
        assert canonicalize(p.compiled) == canonicalize(p)

    @DETERMINISTIC
    @given(program=programs())
    def test_canonical_equivalence_for_arbitrary_programs(self, program):
        assert canonicalize(program.compiled) == canonicalize(program)


class TestDecompiledEquivalence:
    def test_decompiled_program_runs_bit_identical(self):
        """A program rebuilt from the flat arrays drives the simulator to
        exactly the same state as the original."""
        cfg = small_config(n_cus=2, waves_per_cu=4)
        prog = make_loop_program(trips=800)
        rebuilt = Program(decompile(prog.compiled), name=prog.name)
        states = []
        for p in (prog, rebuilt):
            gpu = Gpu(cfg.gpu)
            gpu.load_kernel(Kernel.homogeneous(p, WorkgroupGeometry(4, 2)))
            for _ in range(10):
                gpu.run_epoch(1000.0)
            states.append([
                (cu.now, cu.stats.capture(),
                 tuple((wf.wf_id, wf.pc_idx, wf.ready_at) for wf in cu.waves))
                for cu in gpu.cus
            ])
        assert states[0] == states[1]
