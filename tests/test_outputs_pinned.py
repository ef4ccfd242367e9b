"""Digests of what the command line prints and writes on the bundled models
(every command on grid, the headline workload) and on the 20,010-state
chain `fixtures.fig1_extended_text(20000)`, and of `distill` and `compare`
on fig1 with every state truncated (`--delta 2`), which miss their quality
budget and exit 1, and of `distill` at a fixed leaf size on grid and at a
zero budget on mutex, where decisions fall back to the exact value; every
command whose output depends on `--seed` (all but `solve --engine vi`)
also runs at seed 3.

Each case runs one command in-process, from a fresh directory holding a
copy of its model, which it names by a relative path, so that `compare`'s
`model:` line reads the same in every checkout. It stores the sha256 of
stdout, of stderr and of every output file, and the exit code.

The digests hold for numpy 2.4.6 and scipy 1.17.1, the versions CI pins;
other versions may round a printed value differently. When a change alters
an output on purpose, regenerate the file and check that only the
commands it meant to change moved:

    PYTHONPATH=src python tests/test_outputs_pinned.py
    git diff tests/outputs_pinned.json
"""

import hashlib
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from io import StringIO
from pathlib import Path

import pytest

from mdpdistill.cli import main
from mdpdistill.fixtures import fig1_extended_text

DIGESTS = Path(__file__).with_name("outputs_pinned.json")

# the output files each command writes, as its options
OUTPUTS = {
    "solve": ("--strategy-out", "strategy.tsv"),
    "distill": ("--out", "tree.json", "--dot", "tree.dot", "--strategy-out", "strategy.tsv"),
    "compare": ("--csv", "table.csv"),
}

COMMANDS = [f"{command} --model {model} --engine {engine}"
            for model in ("fig1.mdp", "fig1.flat", "mutex.mdp", "sync2.mdp")
            for engine in ("vi", "brtdp")
            for command in OUTPUTS] + \
    [f"{command} --model grid.mdp --engine vi" for command in OUTPUTS] + \
    [f"{command} --model chain.mdp --engine brtdp" for command in ("distill", "compare")] + \
    [f"{command} --model fig1.mdp --engine vi --delta 2" for command in ("distill", "compare")] + \
    ["distill --model grid.mdp --engine vi --min-leaf 50",
     "distill --model mutex.mdp --engine vi --budget 0"]
# the commands whose output depends on --seed (all but `solve --engine vi`), again at seed 3
COMMANDS += [f"{command} --seed 3" for command in COMMANDS
             if not command.startswith("solve") or command.endswith("brtdp")]

# models that are generated rather than bundled
GENERATED = {"chain.mdp": lambda: fig1_extended_text(20000)}


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def run(command: str, workdir: Path) -> dict:
    """Run `command` in `workdir` and digest everything it produced."""
    argv = command.split()
    model = argv[argv.index("--model") + 1]
    text = GENERATED[model]() if model in GENERATED else \
        resources.files("mdpdistill.models").joinpath(model).read_text()
    (workdir / model).write_text(text)
    written = OUTPUTS[argv[0]][1::2]
    out, err = StringIO(), StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + list(OUTPUTS[argv[0]]))
    finally:
        os.chdir(cwd)
    return {"stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue()), "exit": code,
            "files": {name: _sha((workdir / name).read_text())
                      for name in written if (workdir / name).exists()}}


@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_digest(command, tmp_path):
    assert run(command, tmp_path) == json.loads(DIGESTS.read_text())[command]


def test_digest_file_covers_the_commands():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(COMMANDS)


if __name__ == "__main__":
    digests = {}
    for command in COMMANDS:
        with tempfile.TemporaryDirectory() as workdir:
            digests[command] = run(command, Path(workdir))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
