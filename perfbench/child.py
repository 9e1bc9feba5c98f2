"""One measured invocation of the cascade CLI, in a fresh process.

    python3 child.py RESULT_JSON [--spans SPANS_JSON] [--import-only] -- ARGV...

Times the import of continuum_cascade.cli (setup), then cli.main(ARGV)
(wall, CPU and peak RSS), runs calibrate.py's fixed work just before and
just after cli.main, and writes all of it to RESULT_JSON.  With --spans the
layer wrappers from spans.py are installed after the import is timed and the
recorded spans are written to SPANS_JSON once main has returned.  Only the
standard library is imported before the timed import.
"""

import json
import resource
import sys
import time


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main() -> int:
    sep = sys.argv.index("--")
    opts, argv = sys.argv[1:sep], sys.argv[sep + 1:]
    result_path = opts[0]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    t0 = time.perf_counter()
    import continuum_cascade.cli as cli
    setup_s = time.perf_counter() - t0
    import continuum_cascade  # already loaded by the timed import

    result = {"setup_s": setup_s, "kernel_backend": continuum_cascade.KERNEL_BACKEND}
    if "--import-only" not in opts:
        from calibrate import calibrate

        cal_before = calibrate()
        recorder = None
        if spans_path is not None:
            from spans import Recorder

            recorder = Recorder()
            recorder.install(continuum_cascade)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        rc = cli.main(argv)
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = _cpu_s() - cpu0
        result["exit_code"] = rc
        peak_kb = max(resource.getrusage(w).ru_maxrss
                      for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        result["peak_rss_mb"] = peak_kb / 1024.0
        result["cal_s"] = [cal_before, calibrate()]
        if recorder is not None:
            recorder.dump(spans_path)

    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
