"""Run one superkdv CLI request in this fresh interpreter and report timings.

    python perfbench/child.py REPORT JOB TRACE CLI-ARGS...

Imports `superkdv.cli`, times every `fetch_or_compute` call (the job call
until the payload is ready), runs the command as `python -m superkdv.cli`
would, and writes a JSON report to REPORT.  With TRACE = 1 the layer
wrappers of `tracer.install` are in place before the command runs, and
the spans go to REPORT.spans as JSON lines.  The exit code is the
command's.
"""

import json
import sys
import time


def main() -> int:
    report_path, job, trace, args = sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4:]
    start = time.perf_counter()
    import superkdv.cli as cli

    imported = time.perf_counter()
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer(job)
        tracer.record("cli.import", start, imported)
        tracing.install(tracer)

    fetch_seconds = []
    fetch = cli.fetch_or_compute

    def timed_fetch(*a, **kw):
        t0 = time.perf_counter()
        try:
            return fetch(*a, **kw)
        finally:
            fetch_seconds.append(time.perf_counter() - t0)

    cli.fetch_or_compute = timed_fetch

    def run():
        cli.main(args, prog_name="superkdv", standalone_mode=False)

    if tracer:
        run = tracer.wrap("cli.main", run)
    code = 0
    try:
        run()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.stdout.flush()
        report = {"fetch_s": sum(fetch_seconds)}
        if tracer:
            tracer.close()
            tracer.write_spans(report_path + ".spans")
            report["counters"] = dict(tracer.counters)
        with open(report_path, "w") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
