"""One benchmark pass in a fresh interpreter (spawned by bench/run.py).

    python3 bench/worker.py <library workload> <seed> <trace 0|1>
    python3 bench/worker.py cli <trace 0|1> <narayana cli argv...>
    python3 bench/worker.py <library workload or cli> setup

The script stays small, and it times narayana's set-up before importing
anything of the harness: `import narayana`, plus `narayana.cli` and
`build_parser()` for `cli`, as the `narayana` console script does.
"""

import sys
from time import perf_counter

if __name__ == "__main__":
    t0 = perf_counter()
    mode = sys.argv[1]
    import narayana  # noqa: F401  (set-up: the package import)

    if mode == "cli":
        from narayana import cli

        cli.build_parser()
    setup_s = perf_counter() - t0
    if sys.argv[2] == "setup":  # a set-up probe: report and stop
        sys.stderr.write(f'bench-report {{"setup_s": {setup_s!r}}}\n')
        sys.exit(0)

    import passes

    if mode == "cli":
        sys.exit(passes.cli_pass(sys.argv[3:], sys.argv[2] == "1", setup_s))
    sys.exit(passes.library_pass(mode, int(sys.argv[2]), sys.argv[3] == "1", setup_s))
