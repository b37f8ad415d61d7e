"""The modules that ``mapit run``, serve and the stress fold load.

Each path runs in a fresh interpreter that then lists ``sys.modules``.
The dataset layer (``repro.io``) imports no simulator, and the
``sim``, ``perf`` and ``dns`` packages re-export nothing, so none of
these paths loads the simulator, the evaluation harness, the oracle or
the baselines; they read only the chaos switch (``repro.robust.hooks``),
never the fault injectors or the chaos schedules (docs/ARCHITECTURE.md,
"Layering rules").  The differential sweep loads the chaos schedules
only when ``--chaos`` asks for them.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: packages that running, serving and folding never need
UNNEEDED = (
    "repro.sim",
    "repro.eval",
    "repro.baselines",
    "repro.diff",
    "repro.analysis",
    "repro.sweep",
    "repro.dns.verification",
    "repro.robust.faults",
    "repro.oracle",
)


def loaded_after(code):
    """The ``repro`` modules a fresh interpreter holds after *code*."""
    probe = (
        f"{code}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        check=True,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src")},
    )
    return json.loads(done.stdout.splitlines()[-1])


def unneeded(modules):
    return [
        name
        for name in modules
        if any(name == package or name.startswith(package + ".") for package in UNNEEDED)
    ]


def test_run_loads_no_simulator_or_evaluation(tmp_bundle, tmp_path):
    argv = ["run", str(tmp_bundle()), "--json", "--output", str(tmp_path / "out.json")]
    modules = loaded_after(f"from repro.cli import main\nassert main({argv!r}) == 0")
    assert "repro.core.mapit" in modules
    assert unneeded(modules) == []


def test_serve_loads_no_simulator_or_evaluation(tmp_bundle):
    dataset = tmp_bundle()
    modules = loaded_after(
        "from repro.io.bundle import load_bundle\n"
        "from repro.serve.daemon import ServeDaemon\n"
        "from repro.serve.incremental import IncrementalIndex\n"
        f"bundle = load_bundle({str(dataset)!r}, skip_traces=True)\n"
        "index = IncrementalIndex(bundle.ip2as, org=bundle.as2org, rel=bundle.relationships)\n"
        "daemon = ServeDaemon(index, format='text', quiesce_every=0)\n"
        f"for line in open({str(dataset / 'traces.txt')!r}):\n"
        "    daemon.ingest_entry(line, 'traces.txt')\n"
        "assert daemon.quiesce().result.inferences\n"
    )
    assert unneeded(modules) == []


def test_stress_generator_loads_no_other_simulator_module():
    modules = loaded_after("import repro.sim.stress")
    assert [name for name in modules if name.startswith("repro.sim.")] == ["repro.sim.stress"]
    assert [name for name in modules if name.split(".")[:2] == ["repro", "io"]] == []


def test_diff_sweep_loads_no_chaos_schedules():
    modules = loaded_after(
        "from repro.diff.cli import main\n"
        "assert main(['--preset', 'tiny', '--worlds', '1', '--no-metamorphic']) == 0\n"
    )
    assert "repro.diff.harness" in modules
    assert [name for name in modules if name in ("repro.diff.chaos", "repro.robust.faults")] == []
