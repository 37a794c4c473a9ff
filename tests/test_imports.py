"""Import hygiene: a process loads only what it runs, and loads it before
it reports ready, so no import lands inside a timed sweep pass or on the
service's event loop. Each check runs in a fresh interpreter."""

import ast

from helpers import SRC, run_fresh


def test_import_repro_loads_no_subsystem():
    run_fresh(
        "import sys\n"
        "import repro\n"
        "assert repro.__version__\n"
        "heavy = ('asyncio', 'numpy', 'repro.runtime.distributed', 'repro.analysis',\n"
        "         'repro.service', 'repro.learn')\n"
        "loaded = [m for m in sys.modules if m.startswith(heavy)]\n"
        "assert not loaded, loaded\n"
    )


def test_serial_sweep_imports_nothing_after_its_task_list():
    run_fresh(
        "import sys\n"
        "from repro.config import small_config\n"
        "from repro.runtime.executor import SweepExecutor, SweepTask\n"
        "config = small_config(n_cus=2, waves_per_cu=4)\n"
        "tasks = [SweepTask(w, d, config, scale=0.05, max_epochs=400, oracle_sample_freqs=3)\n"
        "         for w in ('xsbench', 'dgemm')\n"
        "         for d in ('STATIC@1.7', 'STALL', 'CRISP', 'PCSTALL', 'ORACLE')]\n"
        "ready = {m for m in sys.modules if m.startswith('repro')}\n"
        "assert 'repro.runtime.distributed' not in ready\n"
        "results = SweepExecutor().run(tasks)\n"
        "assert all(r.epochs > 0 for r in results)\n"
        "added = {m for m in sys.modules if m.startswith('repro')} - ready\n"
        "assert not added, sorted(added)\n"
    )


def test_parallel_sweep_imports_nothing_after_its_executor_is_built():
    run_fresh(
        "import sys\n"
        "from repro.config import small_config\n"
        "from repro.runtime.executor import SweepExecutor, SweepTask\n"
        "config = small_config(n_cus=2, waves_per_cu=4)\n"
        "tasks = [SweepTask(w, d, config, scale=0.05, max_epochs=400)\n"
        "         for w in ('xsbench', 'dgemm') for d in ('STATIC@1.7', 'PCSTALL')]\n"
        "executor = SweepExecutor(max_workers=2)\n"
        "ready = {m for m in sys.modules if m.startswith('repro')}\n"
        "assert 'repro.runtime.distributed' in ready\n"
        "results = executor.run(tasks)\n"
        "assert all(r.epochs > 0 for r in results)\n"
        "added = {m for m in sys.modules if m.startswith('repro')} - ready\n"
        "assert not added, sorted(added)\n"
    )


def test_serve_loads_the_learned_path_before_listening():
    # The server is drained as soon as it listens, so every module loaded
    # by the time cli.main returns was loaded by start-up.
    run_fresh(
        "import asyncio, sys\n"
        "from repro import cli\n"
        "from repro.service.server import DecisionService\n"
        "start = DecisionService.start\n"
        "async def start_then_drain(self):\n"
        "    await start(self)\n"
        "    self.drainer = asyncio.get_running_loop().create_task(self.shutdown())\n"
        "DecisionService.start = start_then_drain\n"
        "assert cli.main(['serve', '--port', '0', '--health-port', '-1']) == 0\n"
        "assert 'repro.learn.models' in sys.modules and 'numpy' in sys.modules\n"
        "sweep_stack = ('repro.analysis', 'repro.dvfs.hierarchy', 'repro.dvfs.oracle',\n"
        "               'repro.dvfs.simulation', 'repro.runtime.executor',\n"
        "               'repro.runtime.faults', 'repro.runtime.profiling',\n"
        "               'repro.runtime.progress', 'repro.workloads')\n"
        "unused = [m for m in sys.modules\n"
        "          if m in ('repro.learn.dataset', 'repro.runtime.distributed')\n"
        "          or m.startswith(sweep_stack)]\n"
        "assert not unused, sorted(unused)\n"
    )


def test_no_module_imports_a_code_running_serialiser():
    """Results and cache entries are JSON: nothing under ``src/repro``
    imports ``pickle``, ``marshal`` or ``shelve``, whose loaders run
    whatever code the bytes name."""
    banned = {"pickle", "marshal", "shelve"}
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [
                f"{path.relative_to(SRC)}:{node.lineno} {name}"
                for name in names if name.split(".")[0] in banned
            ]
    assert not found, found
