"""Fork-and-pre-execute oracle: shuffling, fits, validation accuracy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import small_config
from repro.dvfs.oracle import OracleSampler
from repro.gpu.gpu import Gpu
from repro.gpu.kernel import Kernel, WorkgroupGeometry
from repro.workloads import build_workload, workload

from helpers import make_loop_program


def make_gpu(config, trips=2000):
    gpu = Gpu(config.gpu, initial_freq_ghz=config.dvfs.reference_freq_ghz)
    gpu.load_kernel(
        Kernel.homogeneous(make_loop_program(trips=trips), WorkgroupGeometry(4, 2))
    )
    gpu.run_epoch(1000.0)  # warm up
    return gpu


class TestShuffling:
    def test_every_domain_sees_every_frequency(self, tiny_config):
        sampler = OracleSampler(tiny_config)
        n = len(tiny_config.dvfs.frequencies_ghz)
        seen = [set() for _ in range(2)]
        for s in range(n):
            freqs = sampler._sample_freqs(s, 2)
            for d, f in enumerate(freqs):
                seen[d].add(f)
        for d in range(2):
            assert seen[d] == set(tiny_config.dvfs.frequencies_ghz)

    def test_domains_decorrelated(self, tiny_config):
        sampler = OracleSampler(tiny_config)
        freqs = sampler._sample_freqs(0, 2)
        assert freqs[0] != freqs[1]

    def test_stride_multiple_adjusted(self, tiny_config):
        # stride 10 == grid size would alias; constructor bumps it.
        sampler = OracleSampler(tiny_config, shuffle_stride=10)
        assert sampler.shuffle_stride != 10

    @pytest.mark.parametrize("n, aliased", [(6, (0, 2)), (9, (0, 3))])
    def test_stride_sharing_a_factor_adjusted(self, tiny_config, n, aliased):
        # The default stride 3 divides neither 6 nor 9, yet shares a
        # factor with both: two domains would always run together.
        sampler = OracleSampler(tiny_config, n_sample_freqs=n)
        a, b = aliased
        for freqs in sampler.sample_plan(n):
            assert freqs[a] != freqs[b]

    @pytest.mark.parametrize("n", [4, 10])
    def test_benchmark_grids_keep_stride_3(self, tiny_config, n):
        assert OracleSampler(tiny_config, n_sample_freqs=n).shuffle_stride == 3

    @settings(derandomize=True, database=None, max_examples=150)
    @given(
        n=st.integers(2, 10),
        data=st.data(),
        stride=st.integers(1, 30),
    )
    def test_plan_is_a_latin_square(self, n, data, stride):
        """Every domain runs every sample frequency exactly once, and no
        two domains share a frequency within one sample."""
        n_domains = data.draw(st.integers(1, n), label="n_domains")
        sampler = OracleSampler(small_config(), shuffle_stride=stride, n_sample_freqs=n)
        plan = sampler.sample_plan(n_domains)
        grid = sorted(sampler.sample_grid)
        assert len(grid) == n
        for d in range(n_domains):
            assert sorted(freqs[d] for freqs in plan) == grid
        for freqs in plan:
            assert len(set(freqs)) == n_domains


class TestSampleSubset:
    def test_subset_spans_range(self, tiny_config):
        sampler = OracleSampler(tiny_config, n_sample_freqs=4)
        assert len(sampler.sample_grid) == 4
        assert sampler.sample_grid[0] == tiny_config.dvfs.f_min
        assert sampler.sample_grid[-1] == tiny_config.dvfs.f_max

    def test_subset_too_small_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            OracleSampler(tiny_config, n_sample_freqs=1)

    def test_full_grid_default(self, tiny_config):
        sampler = OracleSampler(tiny_config)
        assert sampler.sample_grid == tuple(tiny_config.dvfs.frequencies_ghz)


class TestSampling:
    def test_sample_produces_fit_per_domain(self, tiny_config):
        gpu = make_gpu(tiny_config)
        sample = OracleSampler(tiny_config, n_sample_freqs=4).sample(gpu)
        assert len(sample.fits) == 2
        assert len(sample.points[0]) == 4

    def test_sampling_does_not_disturb_parent(self, tiny_config):
        gpu = make_gpu(tiny_config)
        fresh = make_gpu(tiny_config)  # the same run, never forked
        OracleSampler(tiny_config, n_sample_freqs=4).sample(gpu)
        assert gpu.run_epoch(1000.0) == fresh.run_epoch(1000.0)

    @pytest.mark.parametrize("engine", ["event", "reference"])
    def test_pre_execute_forks_without_moving_the_parent(self, tiny_config, engine):
        """Each row's result is the epoch a fresh replay of the run
        makes at that row's frequencies, and the parent's next real
        epoch is the one it would have run unforked."""
        from dataclasses import replace as dc_replace

        cfg = dc_replace(tiny_config, gpu=dc_replace(tiny_config.gpu, engine=engine))
        gpu = make_gpu(cfg)
        rows = [[1.3, 2.2], [2.2, 1.3], [1.7, 1.7]]
        results = OracleSampler(cfg).pre_execute(gpu, rows, 1000.0, collect_waves=True)
        for freqs, result in zip(rows, results):
            replay = make_gpu(cfg)
            replay.set_domain_frequencies(freqs, transition_latency_ns=0.0)
            assert result == replay.run_epoch(1000.0)
        assert results[0].wave_records  # the profiler reads these
        assert gpu.run_epoch(1000.0) == make_gpu(cfg).run_epoch(1000.0)

    def test_commits_at_returns_exact_point(self, tiny_config):
        gpu = make_gpu(tiny_config)
        sampler = OracleSampler(tiny_config, n_sample_freqs=4)
        sample = sampler.sample(gpu)
        for f, commits in sample.points[0]:
            assert sample.commits_at(0, f) == commits
        assert sample.commits_at(0, 9.99) is None

    def test_commits_at_tolerates_float_noise(self, tiny_config):
        # A round-trip through unit conversion (GHz -> MHz -> GHz) must
        # still match the sampled grid point (math.isclose, not ==).
        gpu = make_gpu(tiny_config)
        sample = OracleSampler(tiny_config, n_sample_freqs=4).sample(gpu)
        for f, commits in sample.points[0]:
            noisy = (f * 1000.0) / 1000.0 + 1e-12
            assert sample.commits_at(0, noisy) == commits
        # ...but must not bridge two adjacent 100 MHz grid points.
        f0 = sample.points[0][0][0]
        assert sample.commits_at(0, f0 + 0.05) is None

    def test_lines_predict_commits_reasonably(self, tiny_config):
        gpu = make_gpu(tiny_config)
        sample = OracleSampler(tiny_config, n_sample_freqs=4).sample(gpu)
        for d in range(2):
            line = sample.lines[d]
            for f, commits in sample.points[d]:
                if commits > 0:
                    assert line.predict(f) == pytest.approx(commits, rel=0.5)


class TestSnapshotProtocol:
    def test_round_trip_replays_identically(self, tiny_config):
        """snapshot -> run -> restore -> run must repeat the exact run."""
        gpu = make_gpu(tiny_config)
        snap = gpu.snapshot()
        first = [s.committed for s in gpu.run_epoch(1000.0).cu_stats]
        after_first = [cu.now for cu in gpu.cus]
        gpu.restore(snap)
        second = [s.committed for s in gpu.run_epoch(1000.0).cu_stats]
        assert second == first
        assert [cu.now for cu in gpu.cus] == after_first

    def test_from_snapshot_matches_clone(self, tiny_config):
        from repro.gpu.gpu import Gpu

        gpu = make_gpu(tiny_config)
        snap = gpu.snapshot()
        twin = Gpu(snap.config)
        twin.restore(snap)
        a = [s.committed for s in gpu.run_epoch(1000.0).cu_stats]
        b = [s.committed for s in twin.run_epoch(1000.0).cu_stats]
        assert a == b

    def test_restore_rejects_foreign_config(self, tiny_config):
        from dataclasses import replace

        from repro.gpu.gpu import Gpu

        gpu = make_gpu(tiny_config)
        other = Gpu(replace(tiny_config.gpu))  # equal but distinct config
        with pytest.raises(ValueError):
            other.restore(gpu.snapshot())

    def test_snapshot_is_immutable_record(self, tiny_config):
        gpu = make_gpu(tiny_config)
        snap = gpu.snapshot()
        before = snap.cus
        gpu.run_epoch(1000.0)
        assert snap.cus is before  # frozen capture, not live references
        assert snap.nbytes > 0

    def test_snapshot_sampling_matches_clone_sampling(self, tiny_config):
        """Both engines fork by snapshot and restore; their sample
        points must agree (the engines' own equivalence, forked)."""
        from dataclasses import replace as dc_replace

        points = {}
        for engine in ("event", "reference"):
            cfg = dc_replace(
                tiny_config, gpu=dc_replace(tiny_config.gpu, engine=engine)
            )
            gpu = make_gpu(cfg)
            points[engine] = OracleSampler(cfg, n_sample_freqs=3).sample(gpu).points
        assert points["event"] == points["reference"]

    def test_sampling_counters(self, tiny_config):
        gpu = make_gpu(tiny_config)
        sampler = OracleSampler(tiny_config, n_sample_freqs=3)
        sampler.sample(gpu)
        sampler.sample(gpu)
        assert sampler.ctr_samples == 2
        # One snapshot of the parent per sample, one restore per row.
        assert gpu.ctr_snapshots == 2
        assert gpu.ctr_restores == 0
        assert sampler._scratch is not None
        assert sampler._scratch.ctr_restores == 6

    def test_scratch_gpu_reused_across_samples(self, tiny_config):
        gpu = make_gpu(tiny_config)
        sampler = OracleSampler(tiny_config, n_sample_freqs=3)
        sampler.sample(gpu)
        scratch = sampler._scratch
        sampler.sample(gpu)
        assert sampler._scratch is scratch


class TestValidation:
    def test_validation_accuracy_high(self, tiny_config):
        """The paper reports 97.6% for shuffled pre-execution vs
        coherent re-execution; our substrate should be comparable."""
        gpu = make_gpu(tiny_config, trips=3000)
        sampler = OracleSampler(tiny_config)
        acc = sampler.validation_accuracy(gpu, [1.7, 1.5])
        assert acc > 0.9

    def test_nothing_scorable_is_none(self, tiny_config):
        # No kernel: every domain commits nothing, so there is no
        # evidence either way (not a perfect score).
        gpu = Gpu(tiny_config.gpu, initial_freq_ghz=tiny_config.dvfs.reference_freq_ghz)
        assert OracleSampler(tiny_config).validation_accuracy(gpu, [1.7, 1.5]) is None

    def test_frequency_off_the_sample_grid_rejected(self, tiny_config):
        # 1.7 GHz is not among the 4 pre-executed frequencies.
        gpu = make_gpu(tiny_config)
        sampler = OracleSampler(tiny_config, n_sample_freqs=4)
        assert 1.7 not in sampler.sample_grid
        with pytest.raises(ValueError, match="sample grid"):
            sampler.validation_accuracy(gpu, [1.7, 1.7])
        assert gpu.ctr_snapshots == 0  # refused before anything ran

    @pytest.mark.parametrize("chosen,accuracy", [
        ([2.2, 2.2], 0.981283422459893),
        ([1.7, 1.3], 0.9973118279569892),
    ])
    def test_one_capture_per_validated_epoch(self, chosen, accuracy):
        """The sample rows and the coherent row fork from one capture,
        and score what a capture per fork scored."""
        cfg = small_config(n_cus=2, waves_per_cu=4)
        (kern,) = build_workload(workload("comd"), scale=0.05)
        gpu = Gpu(cfg.gpu, cfg.dvfs.reference_freq_ghz)
        gpu.load_kernel(kern)
        gpu.run_epoch(cfg.dvfs.epoch_ns)  # warm up
        sampler = OracleSampler(cfg, n_sample_freqs=3)
        assert sampler.validation_accuracy(gpu, chosen) == accuracy
        assert gpu.ctr_snapshots == sampler.ctr_samples == 1
