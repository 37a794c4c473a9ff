"""ISA: instruction validation, program structure, the builder."""

import pytest

from repro.gpu.isa import (
    Instruction,
    InstructionKind,
    Program,
    ProgramBuilder,
    barrier,
    branch,
    endpgm,
    load,
    salu,
    store,
    valu,
    waitcnt,
)


class TestInstructionFactories:
    def test_valu_is_compute(self):
        assert valu().kind is InstructionKind.VALU

    def test_load_store_are_memory(self):
        assert load().kind is InstructionKind.LOAD
        assert store().kind is InstructionKind.STORE

    def test_default_valu_cost(self):
        assert valu().cycles == 4
        assert salu().cycles == 1

    def test_waitcnt_target(self):
        assert waitcnt(3).wait_target == 3
        assert waitcnt().wait_target == 0

    def test_branch_fields(self):
        b = branch(5, 10)
        assert b.branch_target == 5
        assert b.trip_count == 10


class TestInstructionValidation:
    def test_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            Instruction(InstructionKind.VALU, cycles=0)

    def test_rejects_bad_hit_rates(self):
        with pytest.raises(ValueError):
            load(l1_hit_rate=1.5)
        with pytest.raises(ValueError):
            load(l2_hit_rate=-0.1)

    def test_rejects_bad_jitter(self):
        with pytest.raises(ValueError):
            load(pattern_jitter=2.0)

    def test_rejects_negative_trip_count(self):
        with pytest.raises(ValueError):
            branch(0, -1)


class TestProgram:
    def test_must_end_with_endpgm(self):
        with pytest.raises(ValueError):
            Program((valu(),))

    def test_must_not_be_empty(self):
        with pytest.raises(ValueError):
            Program(())

    def test_endpgm_only_at_end(self):
        with pytest.raises(ValueError):
            Program((endpgm(), valu(), endpgm()))

    def test_branch_must_be_backwards(self):
        with pytest.raises(ValueError):
            Program((branch(1, 3), valu(), endpgm()))

    def test_valid_loop(self):
        p = Program((valu(), valu(), branch(0, 3), endpgm()))
        assert len(p) == 4

    def test_pc_of_uses_instruction_bytes(self):
        p = Program((valu(), endpgm()))
        assert p.pc_of(1) == 4
        assert p.pc_of(1, instruction_bytes=8) == 8

    def test_indexing(self):
        p = Program((valu(), salu(), endpgm()))
        assert p[1].kind is InstructionKind.SALU


class TestProgramBuilder:
    def test_builds_loop(self):
        b = ProgramBuilder()
        top = b.label()
        b.emit(valu(), valu())
        b.loop_back(top, trips=5)
        p = b.build("t")
        assert p[2].kind is InstructionKind.BRANCH
        assert p[2].trip_count == 5
        assert p[-1].kind is InstructionKind.ENDPGM

    def test_label_tracks_position(self):
        b = ProgramBuilder()
        assert b.label() == 0
        b.emit(valu())
        assert b.label() == 1

    def test_builder_resets_after_build(self):
        b = ProgramBuilder()
        b.emit(valu())
        p1 = b.build("a")
        b.emit(valu(), valu())
        p2 = b.build("b")
        assert len(p1) == 2
        assert len(p2) == 3

    def test_mixed_program(self):
        b = ProgramBuilder()
        top = b.label()
        b.emit(valu(), load(0.5, 0.5), waitcnt(0), barrier())
        b.loop_back(top, trips=2)
        p = b.build()
        kinds = [i.kind for i in p.instructions]
        assert InstructionKind.BARRIER in kinds
        assert InstructionKind.WAITCNT in kinds
