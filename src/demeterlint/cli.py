"""Command line front end: the only process boundary.

Exit codes: 0 when remaining candidate true positives fit under the
threshold, 1 when they exceed it, 2 when anything failed to load or the
artifact could not be written (each such failure printed to standard error
as one greppable ``E-XXX:`` line).  Standard output carries nothing but the
requested artifact.
"""

from __future__ import annotations

import gc
import os
import sys
from pathlib import Path
from typing import NoReturn, Optional, Sequence

from . import __version__
from .adapt import Adapter, load_config, config_warnings
from .codemodel import Document, LoadError, ResolutionMode, TypeTable, load_stubs, read_document
from .demeter import FriendSet, base_friend_set, detect
from .javafront import SourceError, bind_and_extract, build_type_table, parse_unit
from .records import Struct
from .report import build_report, render, render_chain, render_stats

__all__ = ["RunOptions", "entry", "main", "read_source", "run"]


class RunOptions(Struct):
    __slots__ = (
        "source_paths",
        "stub_paths",
        "config_paths",
        "mode",
        "site",
        "format",
        "resolution",
        "fail_threshold",
    )

    def __init__(
        self,
        source_paths: tuple[Path, ...],
        stub_paths: tuple[Path, ...] = (),
        config_paths: tuple[Path, ...] = (),
        mode: str = "analyze",
        site: str = "",
        format: str = "text",
        resolution: ResolutionMode = ResolutionMode.STRICT,
        fail_threshold: int = 0,
    ) -> None:
        self.source_paths = source_paths
        self.stub_paths = stub_paths
        self.config_paths = config_paths
        self.mode = mode  # analyze | explain | stats
        self.site = site  # explain target
        self.format = format  # json | text | table
        self.resolution = resolution
        self.fail_threshold = fail_threshold


def _collect_sources(paths: Sequence[Path]) -> list[Path]:
    """The source files named or found under directories, each once: a
    file named again, by any path to it, keeps its first place and path.

    A file is known by its device and inode, which one ``stat`` gives;
    resolving every path costs ten times as much.
    """
    files: dict[object, Path] = {}
    for p in paths:
        for f in sorted(p.rglob("*.java")) if p.is_dir() else (p,):
            try:
                st = f.stat()
            except OSError:  # read_source reports it
                files.setdefault(f, f)
            else:
                files.setdefault((st.st_dev, st.st_ino), f)
    return list(files.values())


def read_source(path: Path) -> str:
    """A source file's text; unreadable or non-UTF-8 files are E-PARSE errors."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LoadError("E-PARSE", f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise LoadError("E-PARSE", f"cannot decode {path} as UTF-8") from None


#: The characters ``str.splitlines`` breaks at.
_LINE_BREAKS = str.maketrans(
    {c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}
)


def _line(text: str) -> str:
    """One stderr line.  Diagnostics echo source text, paths and config
    strings, so line-break characters in them are shown escaped."""
    return text.translate(_LINE_BREAKS) + "\n"


def _diag(err_stream, exc: SourceError | LoadError) -> None:
    text = str(exc) if isinstance(exc, SourceError) else f"{exc.code}: {exc.message}"
    err_stream.write(_line(text))


class _Loaded:
    """Everything run() needs after the load phase succeeded."""

    def __init__(self, table, executables, config, inputs):
        self.table = table
        self.executables = executables
        self.config = config
        self.inputs = inputs


def _read(path: Path) -> Document | Path:
    """A stub or config file, read once for its loader and for the digest.
    A file that cannot be read stays a path, for its loader to report in
    document order."""
    try:
        return read_document(Path(path))
    except (OSError, UnicodeDecodeError):
        return path


def _load(options: RunOptions, err) -> _Loaded:
    inputs: list[tuple[str, str, str]] = []

    stubs = TypeTable()
    for p in options.stub_paths:
        doc = _read(p)
        stubs = stubs.merge(load_stubs(doc))
        inputs.append(("stub", str(p), doc.text))

    docs = [_read(p) for p in options.config_paths]
    config = load_config(docs)
    inputs.extend(("config", str(p), doc.text) for p, doc in zip(options.config_paths, docs))

    units = []
    for path in _collect_sources(options.source_paths):
        text = read_source(path)
        inputs.append(("source", str(path), text))
        units.append(parse_unit(text, str(path)))

    table = build_type_table(units, stubs, options.resolution)
    for warning in config_warnings(config, table):
        err.write(_line(f"W-CONFIG: {warning}"))
    executables = bind_and_extract(units, table, options.resolution)
    return _Loaded(table, executables, config, inputs)


def _seed_lines(fs: FriendSet) -> list[str]:
    return [f"  {t.name}  [{', '.join(roles)}]" for t, roles in fs.seeds]


def _explain(loaded: _Loaded, adapter: Adapter, verdicts, site_id: str) -> bytes:
    by_site = {v.violation.site.site_id: v for v in verdicts}
    site = None
    owner = None
    for ex in loaded.executables:
        for s in ex.body_accesses:
            if s.site_id == site_id:
                site, owner = s, ex
    if site is None:
        raise LoadError("E-CONFIG", f"unknown site id '{site_id}'")

    lines = [
        f"site: {site_id}",
        f"access: {site.access_kind} .{site.member.name}",
        f"receiver: {site.receiver.static_type.name} ({site.receiver.form})",
        f"chain: {render_chain(site)}",
        f"executable: {owner.id}",
        "base seeds:",
    ]
    base = adapter.base[owner.id]
    lines.extend(_seed_lines(base))

    prev = base
    for k in loaded.config.layer_indices:
        eff = adapter.effective(owner.id, k)
        prev_map = dict(prev.seeds)
        added = []
        for t, roles in eff.seeds:
            new_roles = [r for r in roles if r not in prev_map.get(t, ())]
            if new_roles:
                added.append(f"    +{t.name}  [{', '.join(new_roles)}]")
        new_exemptions = [
            e for e in eff.member_exemptions if e not in prev.member_exemptions
        ]
        added.extend(
            f"    +exempt {e.predicate}"
            + (f" {e.type_name}.{e.name_glob}" if e.predicate == "pattern" else "")
            + f"  [{e.rule_id}]"
            for e in new_exemptions
        )
        header = f"layer {k} ({loaded.config.name_of(k)}):"
        lines.append(header if added else f"{header} no change")
        lines.extend(added)
        prev = eff

    verdict = by_site.get(site_id)
    if verdict is None:
        lines.append("verdict: no violation (receiver is never checked or is a friend)")
    elif verdict.outcome == "silenced":
        also = f" (also: {', '.join(verdict.also_matched)})" if verdict.also_matched else ""
        lines.append(f"verdict: silenced at layer {verdict.layer} by {verdict.rule_id}{also}")
    else:
        hint = f" (hint: {verdict.hint})" if verdict.hint else ""
        lines.append(f"verdict: remaining: {verdict.status}{hint}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _cannot_write(err, exc: OSError, out) -> int:
    """Report that ``out`` cannot be written and give exit code 2.

    When ``out`` is None, this process's standard output, its descriptor is
    then pointed at ``os.devnull``; otherwise the interpreter's flush at
    exit would fail again and print a traceback.
    """
    err.write(_line(f"E-OUTPUT: cannot write standard output: {exc}"))
    if out is None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
    return 2


def _emit(out, err, artifact: bytes, code: int) -> int:
    """Write the artifact to ``out``, or to standard output when ``out`` is
    None, and return ``code``; a stream that cannot be written, such as a
    pipe whose reader has gone, gives exit 2."""
    try:
        if out is not None:
            out.write(artifact)
        elif hasattr(sys.stdout, "buffer"):
            sys.stdout.buffer.write(artifact)
        else:
            # A text stream, as contextlib.redirect_stdout(io.StringIO()) installs.
            sys.stdout.write(artifact.decode("utf-8"))
    except OSError as exc:
        return _cannot_write(err, exc, out)
    return code


def run(options: RunOptions, out=None, err=None) -> int:
    """Execute one invocation; returns the process exit code.

    A pass creates no reference cycles: every object it makes is freed by
    reference counting, so the cyclic garbage collector is paused for the
    pass and re-enabled on the way out if it was enabled on the way in.
    Recursive walks are written as loops or module-level functions, never
    as nested functions that call themselves (``tests/test_no_cycles.py``).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(options, out, err)
    finally:
        if enabled:
            gc.enable()


def _run(options: RunOptions, out, err) -> int:
    err = err if err is not None else sys.stderr
    try:
        loaded = _load(options, err)
    except (SourceError, LoadError) as exc:
        _diag(err, exc)
        return 2

    adapter = Adapter(loaded.executables, loaded.table, loaded.config)
    # Each base set is built for its detect call and not kept; classify and
    # explain build the sets they read in ``adapter.base``.
    violations = [
        v
        for ex in loaded.executables
        if ex.body_accesses
        for v in detect(ex, base_friend_set(ex, loaded.table))
    ]
    verdicts = adapter.classify(violations)

    if options.mode == "explain":
        try:
            artifact = _explain(loaded, adapter, verdicts, options.site)
        except LoadError as exc:
            _diag(err, exc)
            return 2
        return _emit(out, err, artifact, 0)

    # The report reads neither the adapter's caches nor the type table, so
    # both are freed before it is built.
    del adapter
    loaded.table = None
    report = build_report(
        loaded.executables, verdicts, loaded.config, inputs=loaded.inputs
    )
    if options.mode == "stats":
        return _emit(out, err, render_stats(report, options.format), 0)

    tp = sum(r.tp_candidates for r in report.rows)
    code = 0 if tp <= options.fail_threshold else 1
    return _emit(out, err, render(report, options.format), code)


def _build_parser():
    """The argv parser.  ``argparse`` is imported here, not at module level:
    only ``main`` parses argv, and a caller of ``run`` should not pay for
    it (nor for the ``gettext`` it loads)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="demeterlint",
        description="Strict class-form Law of Demeter checker with layered, "
        "attributable adaptation rules.",
    )
    parser.add_argument("sources", nargs="+", type=Path, help="source files or directories")
    parser.add_argument("--stubs", action="append", default=[], type=Path,
                        help="stub document (repeatable)")
    parser.add_argument("--config", action="append", default=[], type=Path,
                        help="rule document; repetition order defines layer order")
    parser.add_argument("--format", choices=("json", "text", "table"), default="text")
    parser.add_argument("--mode", choices=("analyze", "explain", "stats"),
                        default="analyze")
    parser.add_argument("--site", default="", help="site id to explain")
    strictness = parser.add_mutually_exclusive_group()
    strictness.add_argument("--strict", dest="resolution", action="store_const",
                            const=ResolutionMode.STRICT, default=ResolutionMode.STRICT,
                            help="unresolved names are errors (default)")
    strictness.add_argument("--lenient", dest="resolution", action="store_const",
                            const=ResolutionMode.LENIENT,
                            help="unresolved names become unknown types")
    parser.add_argument("--fail-threshold", type=int, default=0, metavar="N",
                        help="max candidate true positives before exit 1")
    parser.add_argument("--version", action="version", version=f"demeterlint {__version__}")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """The command line's exit code for ``argv``, with standard output
    flushed; output that cannot be written is an ``E-OUTPUT`` line and 2."""
    args = _build_parser().parse_args(argv)
    if args.mode == "explain" and not args.site:
        print("E-CONFIG: --mode explain requires --site", file=sys.stderr)
        return 2
    options = RunOptions(
        source_paths=tuple(args.sources),
        stub_paths=tuple(args.stubs),
        config_paths=tuple(args.config),
        mode=args.mode,
        site=args.site,
        format=args.format,
        resolution=args.resolution,
        fail_threshold=args.fail_threshold,
    )
    code = run(options)
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = _cannot_write(sys.stderr, exc, None)
    return code


def entry() -> NoReturn:
    """The process: ``main``, which flushes stdout, then flush stderr and
    end at once.

    ``os._exit`` skips interpreter finalization, which would free every
    object and module one by one after the work is done.  Nothing else
    needs it: a pass leaves no file open (sources, stubs and configs are
    read whole), starts no thread or process and registers no ``atexit``
    handler.  An exception out of ``main``, argparse's ``SystemExit``
    included, takes the interpreter's usual exit.
    """
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
