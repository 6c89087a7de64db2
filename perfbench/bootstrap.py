"""Fresh-interpreter entry for one CLI job or one set-up sample.

    python perfbench/bootstrap.py job --spans FILE -- <torsiongeo CLI args>
    python perfbench/bootstrap.py setup CONFIG [CONFIG ...]

``job`` imports the modules the command loads (span ``cli.import``), installs
the tracing wrappers, calls ``torsiongeo.cli.main`` and writes the spans to
FILE; it exits with the CLI's exit code.  ``setup`` imports every module the
configs' commands load and validates each config, which is the set-up a CLI
user pays before any work starts.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import sys

# modules each command imports before it computes anything; a module that a
# later refactor removes is skipped
COMMAND_MODULES = {
    "defect": ("cli", "catalog", "io", "defects"),
    "propagate": ("cli", "catalog", "io", "slicing", "propagator", "spectrum"),
    "compare-measures": ("cli", "catalog", "io", "slicing", "propagator", "spectrum"),
}


def import_command_modules(commands):
    for command in commands:
        for name in COMMAND_MODULES[command]:
            full = f"torsiongeo.{name}"
            if importlib.util.find_spec(full) is not None:
                importlib.import_module(full)


def _setup(configs) -> int:
    commands = set()
    for path in configs:
        with open(path) as fh:
            commands.add(json.load(fh)["command"])
    import_command_modules(sorted(commands))
    from torsiongeo.cli import load_config

    for path in configs:
        load_config(path)
    return 0


def _job(spans_path, cli_args) -> int:
    from tracer import Patcher, Tracer

    tracer = Tracer()
    tracer.job = 0
    tracer.begin("job")
    tracer.begin("cli.import")
    import_command_modules([cli_args[0]])
    tracer.end()
    Patcher(tracer).install()
    from torsiongeo import cli

    tracer.begin("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.end()
        tracer.end()
        tracer.write(spans_path)
    return code


def main(argv) -> int:
    if argv[0] == "setup":
        return _setup(argv[1:])
    if argv[0] == "job" and argv[1] == "--spans" and argv[3] == "--":
        return _job(argv[2], argv[4:])
    print("usage: bootstrap.py job --spans FILE -- ARGS | bootstrap.py setup CONFIG...", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
