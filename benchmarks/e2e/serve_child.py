"""Server process of the ``serve-grid-burst`` workload.

Started by ``run.py``; not meant to be run by hand.  Builds the grid,
times the service's cold starts, then serves ``SolverService()`` with
its defaults behind ``make_tcp_server`` until a client sends
``shutdown``.  Prints ``{"port": N}`` once listening, and at exit one
JSON line with its set-up times, its own peak RSS and, when traced, its
spans.
"""

from __future__ import annotations

import argparse
import json
import resource

import bootstrap


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    bootstrap.prepare()

    import tracing
    import workloads as wk
    from repro.serve import SolverService, make_tcp_server

    wl = wk.WORKLOADS["serve-grid-burst"]
    graph, _ = wk.build_graph(wl.graph, args.smoke)
    k = wl.smoke_k if args.smoke else wl.k
    sets = wk.seed_sets(args.seed, wk.terminal_pool(graph), k, wk.SETUP)
    setup_s = wk.service_setup(graph, sets, wk.N_SETUP)

    service = SolverService()
    service.add_graph(wk.GRAPH_NAME, graph)
    recorder = tracing.Recorder() if args.trace else None
    hooks = tracing.install(recorder) if recorder else None
    server = make_tcp_server(service)
    try:
        print(json.dumps({"port": server.server_address[1]}), flush=True)
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
        service.close()
        if hooks is not None:
            hooks.uninstall()

    report = {
        "setup_s": setup_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder is not None:
        tracing.finalize(recorder.spans)
        report["hooks"] = hooks.status
        report["spans"] = tracing.span_records(recorder.spans)
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
