"""Child processes of the benchmark.

``probe.py setup CALLS``
    Time ``import demeterlint.cli`` plus ``load_stubs`` and ``load_config``
    of the first call in CALLS, from after interpreter start-up, and print
    one JSON object.  Nothing else is imported first, so the standard
    library modules the program needs are charged to it.
``probe.py serve CALLS OUT [--trace]``
    For each ``pass`` line read from standard input, run ``cli.run`` over
    every call in CALLS and print one JSON line; the first pass writes each
    call's report to OUT.  At end of input print the peak resident memory
    after the first pass and, with ``--trace``, the summary of the tracer of
    ``spans.py``.
"""

import sys
import time

START = time.perf_counter()


def setup(calls_path: str) -> dict:
    import demeterlint.cli  # noqa: F401

    imported = time.perf_counter()
    import json
    from pathlib import Path

    from demeterlint.adapt import load_config
    from demeterlint.codemodel import load_stubs

    with open(calls_path, encoding="utf-8") as fh:
        call = json.load(fh)[0]
    parsed = time.perf_counter()
    for p in call["stubs"]:
        load_stubs(Path(p))
    load_config([Path(p) for p in call["configs"]])
    done = time.perf_counter()
    return {"setup_s": done - START - (parsed - imported), "import_s": imported - START}


def serve(calls_path: str, out_dir: str, traced: bool) -> None:
    import hashlib
    import io
    import json
    import resource
    import traceback
    from pathlib import Path

    from demeterlint import cli

    calls = json.loads(Path(calls_path).read_text(encoding="utf-8"))
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    options = [
        cli.RunOptions(
            source_paths=tuple(Path(p) for p in c["sources"]),
            stub_paths=tuple(Path(p) for p in c["stubs"]),
            config_paths=tuple(Path(p) for p in c["configs"]),
            format="json",
        )
        for c in calls
    ]
    passes = 0
    op_index = 0
    for line in sys.stdin:
        if line.strip() != "pass":
            break
        ops = []
        for i, opts in enumerate(options):
            out, err = io.BytesIO(), io.StringIO()
            if tracer is not None:
                tracer.run = op_index
            error = ""
            t0 = time.perf_counter()
            try:
                code = cli.run(opts, out, err)
            except Exception:
                code, error = None, traceback.format_exc()
            elapsed = time.perf_counter() - t0
            data = out.getvalue()
            if not passes:
                (Path(out_dir) / f"report-{i}.json").write_bytes(data)
            if "Traceback" in err.getvalue():
                error = err.getvalue()
            ops.append({
                "index": op_index,
                "call": i,
                "seconds": elapsed,
                "code": code,
                "sha": hashlib.sha256(data).hexdigest(),
                "error": error,
            })
            op_index += 1
        passes += 1
        if passes == 1:
            # Later passes only add allocator fragmentation, which varies.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(ops), flush=True)
    final = {"peak_rss_mb": peak_rss_mb if passes else 0.0}
    if tracer is not None:
        tracer.dump(Path(out_dir) / "spans.jsonl")
        final["trace"] = tracer.summary()
    print(json.dumps(final), flush=True)


def main() -> int:
    if sys.argv[1] == "setup":
        result = setup(sys.argv[2])
        import json

        print(json.dumps(result))
    else:
        serve(sys.argv[2], sys.argv[3], "--trace" in sys.argv)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
