"""Span recording inside ``python -m cbopt bench`` subprocesses.

The benchmark puts this directory on PYTHONPATH, so the interpreter imports
this file at start-up; the command line stays ``python -m cbopt bench``.
Nothing happens unless PERFBENCH_SPAN_FILE is set. Then cbopt's functions
are wrapped (per-run, per-campaign and per-command spans when
PERFBENCH_SPANS is ``timing``, every layer when it is ``full``) and the
spans, including those shipped back from campaign workers, are written to
that file as ``cmd_bench`` returns. With PERFBENCH_REFERENCE=1 the workers
also time the reference kernel before runs (see spans.py).
"""

import os

if os.environ.get("PERFBENCH_SPAN_FILE"):
    import importlib.util
    from pathlib import Path

    import numpy as np

    _path = Path(__file__).resolve().parents[1] / "spans.py"
    _spec = importlib.util.spec_from_file_location("perfbench_spans", _path)
    spans = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(spans)

    import cbopt.cli

    _tracer = spans.Tracer(reference=os.environ.get("PERFBENCH_REFERENCE") == "1")
    _which = spans.SPAN_NAMES if os.environ.get("PERFBENCH_SPANS") == "full" else spans.TIMING_SPANS
    spans.install(_tracer, _which, spans.WITH_CLI)
    _cmd_bench = cbopt.cli.cmd_bench

    def _dumping_cmd_bench(args):
        try:
            return _cmd_bench(args)
        finally:
            np.savez(
                os.environ["PERFBENCH_SPAN_FILE"],
                run_walls=np.asarray(_tracer.run_walls, dtype=float),
                reference_times=np.asarray(_tracer.reference_times, dtype=float),
                run_reference=np.asarray(_tracer.run_reference, dtype=float),
                **_tracer.columns(),
            )

    cbopt.cli.cmd_bench = _dumping_cmd_bench
