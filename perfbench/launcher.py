"""Start ``mrmc-impulse serve`` from the benchmark, optionally traced.

    python perfbench/launcher.py [--spans FILE] SERVE-ARGS...

Without ``--spans`` this is ``mrmc-impulse serve SERVE-ARGS``.  With it,
the layer wrappers of :mod:`tracing` (plus one around
``CheckerService.execute`` that carries the daemon's request id) are
installed before ``serve_main`` runs, every ``ServerMetrics.observe_request``
call is recorded, and the spans are written to FILE once the daemon
has drained and returned.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402


def _record_observations(observed):
    from repro.server.metrics import ServerMetrics

    original = ServerMetrics.observe_request

    def observe_request(self, method, outcome, **stages):
        observed.append({"at": time.perf_counter(), "method": method,
                         "outcome": outcome, **stages})
        return original(self, method, outcome, **stages)

    ServerMetrics.observe_request = observe_request


def main(argv):
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    tracer = None
    observed = []
    if spans_path is not None:
        from repro.server.service import CheckerService

        tracer = tracing.Tracer()
        tracing.install(tracer, extra=[
            (CheckerService, "execute", "server", None, None, (3, "request_id")),
        ])
        _record_observations(observed)

    from repro.server.daemon import serve_main

    code = serve_main(argv)
    if tracer is not None:
        tracer.write(spans_path, {"observed": observed})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
