"""Cloud endpoint of the serve workloads: ``spo serve`` in its own process.

Usage: python3 serve_child.py SPANS_PATH|- SPO_SERVE_ARGS...

With a spans path, the layer wrappers are installed before the server
starts. The process serves until its standard input reaches end of file,
then writes its spans (if traced) and exits.
"""

import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = None
    if spans_path != "-":
        import tracing

        tracer = tracing.Tracer()
        tracing.install_layer_wrappers(tracer)

    def serve_until_stdin_closes():
        sys.stdin.buffer.read()
        if tracer is not None:
            tracing.save_spans(spans_path, tracer.spans())
        sys.stdout.flush()
        os._exit(0)

    threading.Thread(target=serve_until_stdin_closes, daemon=True).start()
    from spo import cli

    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
