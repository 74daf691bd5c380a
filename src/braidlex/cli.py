"""Command-line surface.

Exit codes: 0 success, 1 stdout closed by its reader (a broken pipe, as in
``braidlex export 7 | head -3``; no traceback), 2 state-count mismatch,
3 matrix mismatch, 4 non-convergence, 5 verification failure or a violated
proved bound, 6 bad input, such as an n past 14 or an output path that
cannot be written, or a run out of memory (one error line, no traceback).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import automaton as am
from . import configs as cf
from . import matrixgen as mg
from . import oracle
from . import spectral as sp
from .errors import BoundViolationError, BraidLexError, BuildLimitError, ConvergenceError

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_COUNT_MISMATCH = 2
EXIT_MATRIX_MISMATCH = 3
EXIT_NO_CONVERGENCE = 4
EXIT_VERIFY_FAILED = 5
EXIT_BAD_INPUT = 6

# dense CSV peaks at about 3.8 bytes per cell (the text, then its encoding
# on output; `matrix 9 --which M`): 2^27 cells is about 0.5 GB
CSV_CELL_BUDGET = 1 << 27


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)


def _stream(write, obj, out, end: str = "") -> None:
    """write(obj, fh) into the file ``out``, or into stdout, left open, then ``end``."""
    if out is None:
        write(obj, sys.stdout)
        sys.stdout.write(end)
    else:
        with open(out, "w") as fh:
            write(obj, fh)


def parse_config_spec(spec: str, n: int) -> cf.SegmentConfig:
    """Grammar: ``i,j,k,[p1-q1;p2-q2;...]`` with an empty last field for S = {}."""
    parts = spec.split(",", 3)
    if len(parts) != 4:
        raise ValueError(f"config spec needs four comma-separated fields: {spec!r}")
    try:
        i, j, k = (int(p) for p in parts[:3])
    except ValueError as exc:
        raise ValueError(f"bad integer in config spec {spec!r}") from exc
    seg_part = parts[3].strip()
    segments: list[tuple[int, int]] = []
    if seg_part:
        if not (seg_part.startswith("[") and seg_part.endswith("]")):
            raise ValueError(f"segment field must look like [p-q;p-q]: {seg_part!r}")
        body = seg_part[1:-1].strip()
        if body:
            for chunk in body.split(";"):
                p, _, q = chunk.partition("-")
                try:
                    segments.append((int(p), int(q)))
                except ValueError as exc:
                    raise ValueError(f"bad segment {chunk!r} in config spec {spec!r}") from exc
    c = cf.SegmentConfig(i, j, k, tuple(sorted(segments)))
    if not cf.validate(c, n):
        raise ValueError(f"{c} is not a valid segment configuration for n={n}")
    return c


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_states(args) -> int:
    n = args.n
    formula = am.state_count_formula(n)
    recurrence = am.state_count_recurrence(n)
    values = [formula, recurrence]
    labels = ["formula", "recurrence"]
    try:
        bfs = len(am.build(n))
        values.append(bfs)
        labels.append("bfs")
    except BuildLimitError:
        pass
    print(" ".join(str(v) for v in values), f"({', '.join(labels)})")
    if len(set(values)) != 1:
        print("state-count disagreement", file=sys.stderr)
        return EXIT_COUNT_MISMATCH
    return EXIT_OK


def cmd_matrix(args) -> int:
    n = args.n
    # refuse an n the guard refuses before the CSV budget counts its states
    am.check_build_limit(n)
    if args.format == "csv":
        dim = am.state_count_formula(n) if args.which == "M" else am.state_counts(n).s_star[n]
        if dim * dim > CSV_CELL_BUDGET:
            raise ValueError(f"--format csv of a {dim}x{dim} matrix is past the "
                             f"budget of {CSV_CELL_BUDGET} cells; use --format mm")
    m = mg.build_M_direct(n) if args.which == "M" else mg.build_R_direct(n)
    if args.check:
        a = am.build(n)
        a = am.relabel(a, mg.canonical_full_ordering(a))
        bfs = am.incidence_matrix(a) if args.which == "M" else am.recurrent_matrix(a)
        del a  # free the automaton before the diff
        diffs = mg.diff_matrices(m, bfs)
        if diffs:
            p, q, side = diffs[0]
            print(f"mismatch at ({p}, {q}): {side}", file=sys.stderr)
            return EXIT_MATRIX_MISMATCH
        print(f"generated and BFS matrices agree for n={n} ({m.dim}x{m.dim})")
    _stream(mg.to_csv if args.format == "csv" else mg.to_matrix_market, m, args.out)
    return EXIT_OK


def cmd_count(args) -> int:
    am.check_build_limit(args.n)
    a = am.build(args.n)
    a = am.relabel(a, mg.canonical_full_ordering(a))
    counts, total = am.count_words(a, args.k)
    print(f"total {total}")
    print("per-state", " ".join(map(str, counts)))
    if args.by_letter:
        per = am.ending_letter_counts(a, args.k, counts)
        for r in range(1, args.n + 1):
            print(f"ending-with a{r} {per[r]}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    am.check_build_limit(args.n)
    an = sp.analyze(am.build(args.n), tol=args.tol)
    row = an.row
    print(f"n {args.n}")
    print(f"lambda {row.lam:.17f}")
    print(f"P_a1 {row.p_a1:.18f}")
    print(f"P_1 {row.p_1:.10f}")
    print(f"residual {an.result.residual:.3e}")
    print(f"iterations {an.result.iterations}")
    return EXIT_OK


def cmd_table(args) -> int:
    # refuse bad input before the header, and before any build
    if args.start > args.stop:
        raise ValueError(f"--from {args.start} is past --to {args.stop}")
    am.check_build_limit(args.start)
    am.check_build_limit(args.stop)
    rows = []
    print(f"{'n':>2}  {'lambda':<20} {'P_a1':<21} {'P_1':<12}")
    for n in range(args.start, args.stop + 1):
        an = sp.analyze(am.build(n), tol=args.tol)
        rows.append(an.row)
        print(f"{n:>2}  {an.row.lam:<20.17f} {an.row.p_a1:<21.18f} {an.row.p_1:<12.10f}")
    sp.bound_report(rows)
    for name in sp.BOUNDS:
        print(f"bound {name}: ok")
    return EXIT_OK


def cmd_verify(args) -> int:
    """Check the automaton that build makes against the brute-force oracle:
    the language up to --max-len, the forbidden-prefix set of each state
    reached by a word up to --max-forbidden-len, and psi injective on the
    states.  The walk reads the rows of the transition table, and each
    state's psi image is computed once from its key for both checks."""
    n = args.n
    am.check_build_limit(n)
    cap = min(args.max_len, 6) if args.max_forbidden_len is None else args.max_forbidden_len
    if args.max_len < 0:
        raise ValueError(f"--max-len {args.max_len} is negative")
    if not 0 <= cap <= args.max_len:
        raise ValueError(f"--max-forbidden-len {cap} is outside 0..{args.max_len}")
    a = am.build(n)
    rows = a.transitions.reshape(len(a), n).tolist()
    keys = a.keys.tolist()
    failures: list[str] = []

    # the accepted words of length k, each with the state it reaches
    frontier = [((), 0)]
    pairs = []  # verified (word, state) pairs up to length cap, by length then word
    for k in range(args.max_len + 1):
        if k:
            frontier = [
                (w + (r,), t) for w, s in frontier for r, t in enumerate(rows[s], 1) if t >= 0
            ]
        expected = oracle.enumerate_language(n, k)
        got = {w for w, _ in frontier}
        ok = got == expected
        print(f"language k={k}: {'pass' if ok else 'FAIL'} ({len(expected)} words)")
        if not ok:
            bad = sorted(got.symmetric_difference(expected))[0]
            failures.append(f"language mismatch at k={k}: {bad}")
            break
        if k <= cap:
            pairs.extend(sorted(frontier))

    images = [cf.psi(cf.unpack(key), n) for key in keys]
    if not failures:
        checked = 0
        for w, s in pairs:
            if oracle.minimal_forbidden_prefixes(w, n) != images[s]:
                failures.append(f"forbidden-prefix mismatch after {w}")
                break
            checked += 1
        print(
            f"forbidden-prefix sets: {'FAIL' if failures else 'pass'} ({checked} words)"
        )

    # Minimality needs psi injective on the automaton's own states, and
    # build has already counted them to s_n; psi validates each one.
    # Injectivity over every valid configuration, and their count, are
    # tier-1 tests of configs (criterion 09).
    state_of = {}
    for s, im in enumerate(images):
        t = state_of.setdefault(im, s)
        if t != s:
            failures.append(f"psi collision: {cf.unpack(keys[s])} and {cf.unpack(keys[t])}")
            break
    inj_ok = len(state_of) == len(images)
    print(f"psi injectivity: {'pass' if inj_ok else 'FAIL'} ({len(state_of)} configs)")

    if failures:
        print(failures[0], file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_show_state(args) -> int:
    c = parse_config_spec(args.config, args.n)
    print(cf.render_diagram(c, args.n))
    words = sorted(cf.psi(c, args.n))
    body = ", ".join("a" + " a".join(str(x) for x in w) for w in words)
    print(f"psi = {{{body}}}")
    return EXIT_OK


def cmd_export(args) -> int:
    """Stream the automaton into --out, or into stdout and one newline."""
    am.check_build_limit(args.n)
    a = am.build(args.n)
    write = am.write_json if args.format == "json" else am.write_dot
    _stream(write, a, args.out, end="\n")
    return EXIT_OK


def cmd_seed_docs(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, m in (("m2.csv", mg.build_M_direct(2)), ("r2.csv", mg.build_R_direct(2))):
        _stream(mg.to_csv, m, outdir / name)
    a = am.build(2)
    a = am.relabel(a, mg.canonical_full_ordering(a))
    counts, total = am.count_words(a, 50)
    (outdir / "m2_pow50_first_row.txt").write_text(" ".join(map(str, counts)) + f"\ntotal {total}\n")
    print(f"wrote m2.csv, r2.csv, m2_pow50_first_row.txt to {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _checked(convert, ok, message: str):
    """An argparse type: ``convert`` the text, then refuse a value that
    fails ``ok`` with ``message``.  It takes the name of ``convert``, so
    text that does not convert still reads "invalid float value: ..."."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message.format(value))
        return value

    parse.__name__ = convert.__name__
    return parse


# refused at parse time, before any build; ``not tol > 0`` refuses NaN too,
# and an infinite tol would stop perron after one step
_TOL = _checked(
    _checked(float, lambda tol: tol > 0, "tol must be positive, got {}"),
    math.isfinite, "tol must be finite, got {}",
)
_LENGTH = _checked(int, lambda k: k >= 0, "k must be nonnegative, got {}")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="braidlex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("states", help="state counts by formula, recurrence, and BFS")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_states)

    p = sub.add_parser("matrix", help="emit incidence matrices")
    p.add_argument("n", type=int)
    # perfbench's scale workload still spells R as R-appendix
    p.add_argument("--which", choices=["M", "R", "R-appendix"], default="R",
                   help="M: the whole automaton; R: its recurrent block; both "
                        "from the direct generator; R-appendix: an older "
                        "spelling of R")
    p.add_argument("--format", choices=["mm", "csv"], default="mm")
    p.add_argument("--check", action="store_true",
                   help="diff the generated matrix against the BFS one")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("count", help="exact number of length-k representatives")
    p.add_argument("n", type=int)
    p.add_argument("k", type=_LENGTH)
    p.add_argument("--by-letter", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("spectrum", help="growth rate and ending proportions")
    p.add_argument("n", type=int)
    p.add_argument("--tol", type=_TOL, default=sp.DEFAULT_TOL)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("table", help="growth-rate table with bound checks")
    p.add_argument("--from", dest="start", type=int, default=2)
    p.add_argument("--to", dest="stop", type=int, default=9)
    p.add_argument("--tol", type=_TOL, default=sp.DEFAULT_TOL)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="cross-check the automaton against brute force")
    p.add_argument("n", type=int)
    p.add_argument("--max-len", type=int, default=5)
    p.add_argument("--max-forbidden-len", type=int, default=None,
                   help="length cap for the forbidden-prefix comparison "
                        "(default: min(max-len, 6))")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("show-state", help="render one configuration")
    p.add_argument("n", type=int)
    p.add_argument("config", help='spec: "i,j,k,[p-q;p-q]" (empty last field for no segments)')
    p.set_defaults(func=cmd_show_state)

    p = sub.add_parser("export", help="whole automaton as JSON or DOT")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("seed-docs", help="regenerate the worked n=2 artifacts")
    p.add_argument("--outdir", default="docs")
    p.set_defaults(func=cmd_seed_docs)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Exact counts run to thousands of digits, past the int -> str cap.
    digit_cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # the reader of stdout has gone: entry's exit 1
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.history:  # the restarts, then the failing step
            it, lam, residual = exc.history[-1]
            print(f"history: restarts {len(exc.history) - 1}, last step {it}, "
                  f"lambda {lam!r}, residual {residual!r}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except BoundViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (BraidLexError, ValueError, OSError) as exc:  # OSError: an unwritable --out or --outdir
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    finally:
        sys.set_int_max_str_digits(digit_cap)


def entry() -> int:
    """Process entry: main, then the flush of stdout.  If the reader of
    stdout has gone, stdout is pointed at os.devnull so the interpreter's
    final flush cannot raise either."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(entry())
