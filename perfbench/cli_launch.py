"""Run `opwords` in a fresh process and time it: cli_launch.py OUT TRACE ARGS...

Starts a host-speed calibration (speed.py) before anything else, calls
opwords.cli.main(ARGS), and writes to OUT the process's CPU time at the
reference speed. With TRACE 1 it installs the layer tracer first, runs main
inside a `cli.main` span and adds the aggregated spans to OUT. Exits with
main's code.
"""

import json
import sys

import speed


def main() -> int:
    speedo = speed.Speedometer()
    speedo.start()
    out_file, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import opwords.cli
    tracer, run = None, opwords.cli.main
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        run = tracer.span("cli.main", run)
    try:
        return run(argv)
    finally:
        speedo.stop()
        if tracer:
            tracer.pause()
        with open(out_file, "w", encoding="utf-8") as fh:
            json.dump({"cpu_s": speedo.scaled_total(),
                       "trace": tracer.snapshot() if tracer else None}, fh)


if __name__ == "__main__":
    sys.exit(main())
