"""Command-line interface: generate terms, query parities, verify relations,
and cross-check against OEIS b-files.

`main` sets every exit code; README's CLI section states them, with the
contract on stdout and stderr.
"""

from __future__ import annotations

import argparse
import errno
import io
import os
import sys
from pathlib import Path

from . import __version__, catalogue, oeis
from .verify import verify_sequences

DEFAULT_N_MAX_CHEAP = 4096
DEFAULT_N_MAX_HEAVY = 512


def _emit_terms(seq_id: str, start: int, values: list[int], fmt: str) -> None:
    if fmt == "plain":
        sys.stdout.write(("%d\n" * len(values)) % tuple(values))
    elif fmt == "bfile":
        sys.stdout.write(oeis.serialize_bfile(oeis.BFileTable(seq_id, start, tuple(values))))
    else:
        import json

        record = {"id": seq_id, "from": start, "count": len(values), "terms": values}
        sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


def cmd_gen(args: argparse.Namespace) -> int:
    """Terms of one window of a sequence; their parity bits for `parity`."""
    seq = catalogue.get(args.id)
    start = seq.offset if args.start is None else args.start
    if start < seq.offset:
        raise ValueError(f"{seq.id} starts at index {seq.offset}, --from {start} is below it")
    if args.count < 1:
        raise ValueError(f"--count must be positive, got {args.count}")
    values = seq.terms(start, start + args.count)
    if args.command == "parity":
        values = [v & 1 for v in values]
    _emit_terms(args.id, start, values, args.format)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    sequences = (catalogue.parity_catalogue() if args.target == "all"
                 else [catalogue.get(args.target)])
    report = verify_sequences(sequences, args.n_max, args.n_max_heavy)
    if args.format == "json":
        import json

        payload = {
            "meta": {
                "version": __version__,
                "n_max_cheap": report.n_max_cheap,
                "n_max_heavy": report.n_max_heavy,
            },
            "sequences": report.to_records(),
        }
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(report.to_text())
    if args.timings and not _write_stderr(report.to_timings()):
        return 2
    return 0 if report.all_fitted() else 1


def cmd_check_bfile(args: argparse.Namespace) -> int:
    seq = catalogue.get(args.id)
    if args.limit < 0:
        raise ValueError(f"--limit must be non-negative, got {args.limit}")
    if args.file is None:
        table = oeis.fixture_table(args.id)
    elif args.file == "fetch":
        table = oeis.fetch_bfile(args.id, args.cache_dir, offline=args.offline)
    else:
        table = oeis.read_bfile(Path(args.file), args.id)
    mismatches = oeis.cross_check(seq, table, args.limit)
    checked = min(args.limit, len(table))
    for index, expected, actual in mismatches:
        print(f"{index} expected {expected} got {actual}")
    print(f"{seq.id}: checked {checked} terms, {len(mismatches)} mismatches")
    return 0 if not mismatches else 1


def cmd_fetch_bfile(args: argparse.Namespace) -> int:
    table = oeis.fetch_bfile(args.id, args.cache_dir, offline=args.offline)
    sys.stdout.write(oeis.serialize_bfile(table))
    return 0


def _add_generation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("id", help="sequence id (e.g. A061297, or 'm' for the master sequence)")
    parser.add_argument("--from", dest="start", type=int, default=None,
                        help="first index to emit (default: the sequence offset)")
    parser.add_argument("--count", type=int, default=20, help="number of terms")
    parser.add_argument("--format", choices=["plain", "bfile", "json"],
                        default="plain", help="output format")


def _add_network_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=None,
                        help="b-file cache directory (default: $SEQPARITY_CACHE_DIR "
                             "or ~/.cache/seqparity)")
    parser.add_argument("--offline", dest="offline", action="store_true", default=True,
                        help="never touch the network (default)")
    parser.add_argument("--online", dest="offline", action="store_false",
                        help="allow fetching b-files from oeis.org")


def _add_verify_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("target", help="sequence id or 'all'")
    parser.add_argument("--n-max", type=int, default=DEFAULT_N_MAX_CHEAP,
                        help=f"range bound for cheap sequences (default {DEFAULT_N_MAX_CHEAP})")
    parser.add_argument("--n-max-heavy", type=int, default=DEFAULT_N_MAX_HEAVY,
                        help=f"range bound for big-integer sequences "
                             f"(default {DEFAULT_N_MAX_HEAVY})")
    parser.add_argument("--format", choices=["plain", "json"], default="plain")
    parser.add_argument("--timings", action="store_true",
                        help="write each sequence's generation and fit/check seconds "
                             "to stderr")


def _add_check_bfile_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("id", help="OEIS sequence id")
    parser.add_argument("--file", default=None,
                        help="b-file path, or 'fetch' to retrieve; default: bundled fixture")
    parser.add_argument("--limit", type=int, default=10_000,
                        help="maximum number of rows to compare")
    _add_network_flags(parser)


def _add_fetch_bfile_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("id", help="OEIS sequence id")
    _add_network_flags(parser)


# name, help, the function adding the subcommand's arguments, and the command
_SUBCOMMANDS = (
    ("gen", "print terms of a catalogued sequence", _add_generation_flags, cmd_gen),
    ("parity", "print the parity bits of a sequence's terms", _add_generation_flags, cmd_gen),
    ("verify", "check claimed parity relations and fit the true ones",
     _add_verify_args, cmd_verify),
    ("check-bfile", "cross-check a generator against b-file data",
     _add_check_bfile_args, cmd_check_bfile),
    ("fetch-bfile", "print a sequence's b-file, caching it locally",
     _add_fetch_bfile_args, cmd_fetch_bfile),
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's full parser: the top-level parser and every subcommand's."""
    parser = argparse.ArgumentParser(
        prog="seqparity",
        description="Generate integer sequences and verify their parity relations "
                    "against the master sequence.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments, func in _SUBCOMMANDS:
        subparser = sub.add_parser(name, help=help_text)
        subparser.set_defaults(func=func)
        add_arguments(subparser)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The namespace `build_parser().parse_args(argv)` gives, from the one
    parser of the subcommand argv opens with where that is enough.

    That parser is the subparser the full parser would hand the rest of
    argv to, so it prints the same help and errors. The full parser still
    parses every other argv, because their error lines need its usage and
    prog: an argv that does not open with a subcommand, one whose words the
    subparser leaves over ("unrecognized arguments"), and one with a word
    opening with "--=" before any "--": that abbreviates both --help and
    --version, and the full parser of Python 3.10 to 3.13.0 rejects it as
    ambiguous before any subparser sees it.
    """
    head = argv[:argv.index("--")] if "--" in argv else argv
    for name, _, add_arguments, func in _SUBCOMMANDS:
        if argv[:1] == [name] and not any(word.startswith("--=") for word in head):
            parser = argparse.ArgumentParser(prog=f"seqparity {name}")
            add_arguments(parser)
            parser.set_defaults(command=name, func=func)
            args, extras = parser.parse_known_args(argv[1:])
            if not extras:
                return args
    return build_parser().parse_args(argv)


class _ClosedStderr(io.TextIOBase):
    """Stands in for a stderr whose descriptor was closed when the interpreter
    started, which leaves sys.stderr None: its writes fail as an unwritable
    stderr's do, where argparse would write its usage to stdout instead."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, "stderr is closed")


def _write_stderr(text: str) -> bool:
    """Write text to stderr; False where stderr refuses it."""
    try:
        sys.stderr.write(text)
    except OSError:
        return False
    return True


def _drop_unwritable_stdout() -> None:
    """Point stdout at the null device if it still cannot be flushed, so the
    flush at interpreter exit does not fail again; a sink without a descriptor
    (an in-process caller's) is left as it is."""
    try:
        sys.stdout.flush()
    except OSError:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def _completing_stdout():
    """A text stream on stdout's descriptor that writes all it is given or
    raises, if stdout is unbuffered, else None.

    Unbuffered stdio (python -u, PYTHONUNBUFFERED) puts stdout's text layer
    straight on the raw file, and the text layer ignores the count a short
    write returns, so the rest of the text is dropped without an error: a
    pipe its reader closes mid-write, a disk that fills.  A buffered writer
    repeats a short write until all of it is written or the write fails.  The
    stream flushes at every line feed, as unbuffered output goes out at once,
    and never closes the descriptor.
    """
    raw = getattr(sys.stdout, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        return None
    return open(raw.fileno(), "w", buffering=1, encoding=sys.stdout.encoding,
                errors=sys.stdout.errors, closefd=False)


def main(argv: list[str] | None = None) -> int:
    stdout, stderr = sys.stdout, sys.stderr
    sys.stderr = stderr or _ClosedStderr()
    # exact terms outgrow the interpreter's int/str conversion limit (4300
    # digits since 3.11): lift it while the command runs, for reading numbers
    # on the command line and in b-file rows and for writing values, and give
    # the caller's limit back after
    int_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    try:
        if stdout is None:  # its descriptor was closed when the interpreter started
            _write_stderr("error: stdout is closed\n")
            return 2
        sys.stdout = _completing_stdout() or stdout
        if int_digits:
            sys.set_int_max_str_digits(0)
        try:
            args = parse_args(sys.argv[1:] if argv is None else argv)
        except SystemExit:  # help, version, a usage error: a refused flush is caught below
            sys.stdout.flush()
            raise
        code = args.func(args)
        sys.stdout.flush()
        return code
    except oeis.OffsetMismatchError as exc:  # a ValueError, but a failed check
        _write_stderr(f"offset mismatch: {exc}\n")
        return 1
    except (KeyError, ValueError, OSError, oeis.BFileUnavailableError) as exc:
        _drop_unwritable_stdout()
        _write_stderr(f"error: {exc}\n")
        return 2
    except (MemoryError, OverflowError):  # a --count too large to allocate or index
        _write_stderr("error: out of memory\n")
        return 2
    finally:
        sys.stdout, sys.stderr = stdout, stderr
        if int_digits:
            sys.set_int_max_str_digits(int_digits)


if __name__ == "__main__":
    sys.exit(main())
