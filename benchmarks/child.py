"""Child-process entry points of the benchmark.

    python child.py probe -- <pemplate cli args>
        Runs ``pemplate.cli.main`` until the run's config is loaded and
        validated, then prints ``time.monotonic()`` and exits 0. The parent
        subtracts its spawn instant (the clock is system-wide) to get the
        set-up time.

    python child.py trace <spans.json> <run id> -- <pemplate cli args>
        Runs ``pemplate.cli.main`` with timing wrappers at every layer call
        and writes the spans to ``spans.json``; exits with main's code.
"""

import sys
import time


class _ConfigLoaded(Exception):
    pass


def probe(argv):
    import pemplate.cli as cli

    load_config = cli.load_config

    def load_then_stop(path):
        load_config(path)
        raise _ConfigLoaded(time.monotonic())

    cli.load_config = load_then_stop
    try:
        cli.main(argv)
    except _ConfigLoaded as done:
        print(repr(done.args[0]))
        return 0
    print("probe: the run finished without loading a config", file=sys.stderr)
    return 1


def trace(spans_path, run_id, argv):
    from tracer import Tracer, install

    tracer = Tracer(run_id)
    try:
        return install(tracer)(argv)
    finally:
        tracer.dump(spans_path)


def main(args):
    split = args.index("--")
    head, argv = args[:split], args[split + 1:]
    if head == ["probe"]:
        return probe(argv)
    if len(head) == 3 and head[0] == "trace":
        return trace(head[1], head[2], argv)
    print(f"usage: see {__file__}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
