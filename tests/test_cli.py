"""Command-line surface: outputs, formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_automaton import canonical
from test_matrixgen import to_csv, to_matrix_market

from braidlex import automaton as am
from braidlex import cli
from braidlex import configs as cf
from braidlex import matrixgen as mg
from braidlex import oracle
from braidlex import spectral as sp
from braidlex.configs import SegmentConfig
from braidlex.errors import ConvergenceError


ROOT = Path(__file__).resolve().parent.parent
PAST_THE_GUARD = (
    "n=15 exceeds the build limit 14, the largest n a 64-bit configuration key holds"
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _probe(code):
    """Run code in a fresh interpreter that imports braidlex from src/."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_csgraph_unloaded():
    # every command's start-up time pays for what `import braidlex.cli` loads;
    # nothing in braidlex imports csgraph
    probe = "import sys, braidlex.cli; print('scipy.sparse.csgraph' in sys.modules)"
    assert _probe(probe) == "False\n"


def test_table_leaves_csgraph_and_linalg_unloaded():
    # the recurrent split reads the transition table and the primitivity
    # check the recurrent edge pairs, with no csgraph, which would pull in
    # scipy.sparse.linalg and scipy.linalg, about 0.1 s on the first call
    # of a process
    probe = (
        "import contextlib, io, sys\n"
        "from braidlex import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['table', '--from', '2', '--to', '4']) == 0\n"
        "print(any(m in sys.modules for m in ('scipy.sparse.csgraph', 'scipy.linalg')))"
    )
    assert _probe(probe) == "False\n"


def test_closed_pipe_stops_without_a_traceback():
    # like `braidlex export 7 | head -c 64`: the 440 kB of JSON overflow the
    # pipe buffer, so the command is still writing when the reader goes
    proc = subprocess.Popen(
        [sys.executable, "-m", "braidlex.cli", "export", "7"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    try:
        assert len(proc.stdout.read(64)) == 64
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert proc.returncode == cli.EXIT_BROKEN_PIPE
    assert "Traceback" not in err.decode()


class TestStates:
    def test_small(self, capsys):
        code, out, _ = run(capsys, "states", "5")
        assert code == 0
        assert out.split(" (")[0] == "161 161 161"

    def test_beyond_build_limit_uses_formulas_only(self, capsys):
        code, out, _ = run(capsys, "states", "19")
        assert code == 0
        assert out.startswith("126491780 126491780")

    def test_past_the_key_width_uses_formulas_only(self, capsys):
        # a configuration key holds n <= 14
        code, out, _ = run(capsys, "states", "15")
        assert code == 0
        assert out == "2692416 2692416 (formula, recurrence)\n"

    def test_deterministic(self, capsys):
        first = run(capsys, "states", "4")
        second = run(capsys, "states", "4")
        assert first == second


class TestMatrix:
    def test_m2_csv(self, capsys):
        code, out, _ = run(capsys, "matrix", "2", "--which", "M", "--format", "csv")
        assert code == 0
        assert out == "1,1,0,0,0\n0,1,0,1,0\n0,1,0,0,0\n0,0,0,0,1\n0,0,1,0,1\n"

    def test_r2_matrix_market(self, capsys):
        code, out, _ = run(capsys, "matrix", "2", "--which", "R", "--format", "mm")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("%%MatrixMarket")
        assert lines[1] == "4 4 6"

    def test_appendix_variant_and_check(self, capsys):
        code, out, _ = run(capsys, "matrix", "4", "--which", "R-appendix", "--check")
        assert code == 0
        assert "agree" in out

    @pytest.mark.parametrize("which", ["M", "R", "R-appendix"])
    def test_check_builds_the_automaton_once(self, capsys, monkeypatch, which):
        # ... and each matrix of the diff once: --check reuses the one it emits
        calls = {"build": 0, "recurrent_states": 0, "build_R_direct": 0}
        for module, name in ((am, "build"), (am, "recurrent_states"), (mg, "build_R_direct")):
            fn = getattr(module, name)

            def counted(*args, fn=fn, name=name):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)
        code, out, _ = run(capsys, "matrix", "6", "--which", which, "--check")
        assert code == 0
        assert "agree" in out
        if which == "M":  # generated from R_1 .. R_6, checked with no recurrent split
            assert calls == {"build": 1, "recurrent_states": 0, "build_R_direct": 6}
        else:
            assert calls == {"build": 1, "recurrent_states": 1, "build_R_direct": 1}

    @pytest.mark.parametrize("fmt", ["mm", "csv"])
    @pytest.mark.parametrize("which", ["M", "R", "R-appendix"])
    def test_r_prints_the_generated_matrix_without_the_bfs(self, capsys, monkeypatch, which, fmt):
        # the same bytes as the BFS matrix gives, with no BFS behind them
        a = canonical(am.build(6))
        write = to_csv if fmt == "csv" else to_matrix_market
        expected = write(am.incidence_matrix(a) if which == "M" else am.recurrent_matrix(a))

        def never(*args, **kwargs):
            raise AssertionError(f"built the automaton for {which} without --check")

        monkeypatch.setattr(am, "build", never)
        code, out, err = run(capsys, "matrix", "6", "--which", which, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == expected

    def test_m_check_reports_the_compared_size(self, capsys):
        # --check compares the M it prints, 18x18 at n = 3, not R's 13x13
        code, out, _ = run(capsys, "matrix", "3", "--which", "M", "--check")
        assert code == 0
        assert out.split("\n")[0] == "generated and BFS matrices agree for n=3 (18x18)"

    def test_appendix_past_the_build_limit_refuses(self, capsys):
        code, out, err = run(capsys, "matrix", "15", "--which", "R-appendix")
        assert code == 6
        assert out == ""
        assert "n=15 exceeds the build limit" in err

    @pytest.mark.parametrize(
        "n, which, message",
        [
            ("-5", "R", "n must be positive"),
            ("0", "R-appendix", "n must be positive"),
            ("40000", "M", "n=40000 exceeds the build limit"),
            ("15", "R-appendix", "n=15 exceeds the build limit"),
        ],
    )
    def test_csv_runs_the_build_guard_first(self, capsys, monkeypatch, n, which, message):
        # the guard refuses before the CSV budget counts the states of n
        def never(*args, **kwargs):
            raise AssertionError("counted the states of an n the guard refuses")

        monkeypatch.setattr(am, "state_count_formula", never)
        monkeypatch.setattr(am, "state_counts", never)
        code, out, err = run(capsys, "matrix", n, "--which", which, "--format", "csv")
        assert code == 6
        assert out == ""
        assert message in err

    def test_check_guards_as_the_build_does(self, capsys):
        # --check builds the automaton, so it refuses past the largest key n
        # before the CSV budget
        code, out, err = run(
            capsys, "matrix", "15", "--which", "R-appendix", "--check", "--format", "csv"
        )
        assert code == 6
        assert out == ""
        assert f"error: {PAST_THE_GUARD}" in err

    @pytest.mark.parametrize("n, which", [("11", "R"), ("10", "M"), ("10", "R-appendix")])
    def test_dense_csv_past_the_cell_budget_refuses_before_building(
        self, capsys, monkeypatch, n, which
    ):
        def never(*args, **kwargs):
            raise AssertionError("built a matrix past the CSV cell budget")

        monkeypatch.setattr(am, "build", never)
        monkeypatch.setattr(mg, "build_R_direct", never)
        code, out, err = run(capsys, "matrix", n, "--which", which, "--format", "csv")
        assert code == 6
        assert out == ""
        assert f"budget of {cli.CSV_CELL_BUDGET} cells" in err

    def test_m8_csv_is_pinned(self, capsys):
        # 3,156 x 3,156 cells, as the per-cell join of the dense rows gave them
        code, out, err = run(capsys, "matrix", "8", "--which", "M", "--format", "csv")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "52a739fe5e62394c69116121e92703bd9784b0fe6d1c83a494291c607976ee3c"
        )

    def test_write_to_file(self, capsys, tmp_path):
        target = tmp_path / "m.mm"
        code, _, _ = run(capsys, "matrix", "2", "--out", str(target))
        assert code == 0
        assert target.read_text().startswith("%%MatrixMarket")

    def test_stdout_is_the_out_file(self, capsys, tmp_path):
        # both destinations take the same streamed Matrix Market text
        target = tmp_path / "m7.mtx"
        code, out, err = run(capsys, "matrix", "7", "--which", "M")
        assert (code, err) == (0, "")
        assert run(capsys, "matrix", "7", "--which", "M", "--out", str(target)) == (0, "", "")
        assert out.encode() == target.read_bytes()
        assert out.startswith("%%MatrixMarket matrix coordinate integer general\n1190 1190 ")

    @pytest.mark.parametrize("which", ["R", "R-appendix"])
    def test_r12_appendix_file_is_pinned(self, capsys, tmp_path, which):
        # the scale benchmark's Matrix Market file: 92,724 x 92,724 with
        # 568,120 entries, as the per-entry format and put-loop generator gave it
        target = tmp_path / "R12.mtx"
        code, out, err = run(capsys, "matrix", "12", "--which", which, "--out", str(target))
        assert (code, out, err) == (0, "", "")
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "cded9240b96860e716b3e2c72324b0f19869c95fbcee2767ed85f9fb19acd484"
        )


class TestCount:
    def test_k50_row(self, capsys):
        code, out, _ = run(capsys, "count", "2", "50")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "total 53316291172"
        assert lines[1] == (
            "per-state 1 16475640050 10182505536 10182505537 16475640048"
        )

    def test_simple_counts(self, capsys):
        assert run(capsys, "count", "3", "1")[1].startswith("total 3")
        assert run(capsys, "count", "2", "0")[1].startswith("total 1")

    def test_by_letter(self, capsys):
        code, out, _ = run(capsys, "count", "2", "2", "--by-letter")
        assert code == 0
        assert "ending-with a1 2" in out
        assert "ending-with a2 2" in out

    def test_by_letter_of_the_empty_word(self, capsys):
        code, out, _ = run(capsys, "count", "2", "0", "--by-letter")
        assert code == 0
        assert out.split("\n") == [
            "total 1",
            "per-state 1 0 0 0 0",
            "ending-with a1 0",
            "ending-with a2 0",
            "",
        ]

    @pytest.mark.parametrize("argv, digest", [
        (("count", "9", "400", "--by-letter"),
         "75e62989b9fc494a971200e72c53b58da862c1077948783269e2e795ec0760f0"),
        (("count", "3", "14000"),
         "7f66ff8f92a075cd4956abfc9c96a7583d7692ca609e46637b553010f92d121b"),
    ])
    def test_output_is_pinned(self, capsys, argv, digest):
        # sha256 of the output when counting ran on Python ints
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_total_past_the_int_str_digit_cap(self, capsys):
        cap = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "count", "3", "14000")
        assert code == 0
        assert sys.get_int_max_str_digits() == cap  # main restores the cap
        _, total = am.count_words(am.build(3), 14000)
        sys.set_int_max_str_digits(0)
        try:
            expected = str(total)
        finally:
            sys.set_int_max_str_digits(cap)
        assert len(expected) == 4474
        assert out.split("\n")[0] == f"total {expected}"


class TestSpectrum:
    def test_n2(self, capsys):
        code, out, _ = run(capsys, "spectrum", "2")
        assert code == 0
        fields = dict(line.split(" ", 1) for line in out.strip().split("\n"))
        assert abs(float(fields["lambda"]) - 1.618033988749895) < 1e-12
        assert fields["P_1"] == "0.5000000000"

    def test_n1_trivial(self, capsys):
        code, out, _ = run(capsys, "spectrum", "1")
        assert code == 0
        fields = dict(line.split(" ", 1) for line in out.strip().split("\n"))
        assert float(fields["lambda"]) == pytest.approx(1.0)
        assert float(fields["P_1"]) == pytest.approx(1.0)

    def test_non_convergence_exit_code(self, capsys):
        code, out, err = run(capsys, "spectrum", "5", "--tol", "1e-30")
        assert code == 4
        assert out == ""
        # the error, then the restarts and the failing step of its history
        with pytest.raises(ConvergenceError) as caught:
            sp.perron(am.recurrent_matrix(am.build(5)), tol=1e-30)
        *restarts, (it, lam, residual) = caught.value.history
        assert len(restarts) > 0
        assert err == (
            f"error: {caught.value}\n"
            f"history: restarts {len(restarts)}, last step {it}, "
            f"lambda {lam!r}, residual {residual!r}\n"
        )

    def test_non_convergence_without_a_history(self, capsys, monkeypatch):
        # a ConvergenceError with no history prints its error line alone
        def fail(*args, **kwargs):
            raise ConvergenceError("no history")

        monkeypatch.setattr(sp, "perron", fail)
        code, out, err = run(capsys, "spectrum", "3")
        assert (code, out, err) == (4, "", "error: no history\n")

    def test_digits_do_not_depend_on_the_openblas_thread_count(self):
        # perron calls no BLAS routine, so the printed digits are the same
        # whatever pool OpenBLAS starts
        outs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "braidlex.cli", "spectrum", "9"],
                capture_output=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                         OPENBLAS_NUM_THREADS=threads),
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert outs[0].startswith(b"n 9\nlambda 2.96648976449")

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tol_exit_code(self, capsys, tol):
        code, out, err = run(capsys, "spectrum", "3", "--tol", tol)
        assert code == 6
        assert out == ""
        assert "tol must be positive" in err


class TestTable:
    def test_short_table(self, capsys):
        code, out, _ = run(capsys, "table", "--to", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1].split()[0] == "2"
        assert abs(float(lines[1].split()[1]) - 1.618033988749895) < 1e-12
        assert sum(1 for line in lines if line.startswith("bound")) == 6
        assert all(line.endswith("ok") for line in lines if line.startswith("bound"))

    def test_output_is_pinned(self, capsys):
        # sha256 of the output of Perron with RRE restarts. Against plain
        # power iteration the printed lambda and P_a1 move in the 14th-17th
        # decimal (n = 2: 1.61803398874990867 became 1.61803398874989490)
        # and P_1 not at all; every change of these digits must be recorded
        code, out, _ = run(capsys, "table", "--from", "2", "--to", "10")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "24d4eab4c7e877ea857d8f9af584a3d846947551b1ceb5fd8264e67405b8caef"
        )

    def test_empty_range_refuses_before_printing(self, capsys):
        code, out, err = run(capsys, "table", "--from", "5", "--to", "2")
        assert code == 6
        assert out == ""
        assert "--from 5 is past --to 2" in err

    @pytest.mark.parametrize("argv, message", [
        (("--to", "3", "--tol", "-1"), "tol must be positive"),
        (("--to", "3", "--tol", "nan"), "tol must be positive"),
        (("--from", "0", "--to", "2"), "n must be positive"),
    ])
    def test_bad_input_refuses_before_printing(self, capsys, argv, message):
        code, out, err = run(capsys, "table", *argv)
        assert code == 6
        assert out == ""
        assert message in err

    def test_build_limit_refuses_before_building(self, capsys, monkeypatch):
        def no_build(n):
            raise AssertionError(f"built n={n}")

        monkeypatch.setattr(am, "build", no_build)
        code, out, err = run(capsys, "table", "--to", "15")
        assert code == 6
        assert out == ""
        assert "n=15 exceeds the build limit 14" in err

    def test_key_width_refuses_before_building(self, capsys, monkeypatch):
        def no_build(n):
            raise AssertionError(f"built n={n}")

        monkeypatch.setattr(am, "build", no_build)
        code, out, err = run(capsys, "table", "--from", "14", "--to", "15")
        assert code == 6
        assert out == ""
        assert PAST_THE_GUARD in err

    def test_bound_violation_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(sp, "GROWTH_RATE_CEILING", 2.0)
        code, out, err = run(capsys, "table", "--from", "2", "--to", "3")
        assert code == 5
        assert "bound lambda < " in err and "violated at n=3" in err
        assert "bound" not in out


class TestVerify:
    def test_n2(self, capsys):
        code, out, _ = run(capsys, "verify", "2", "--max-len", "6")
        assert code == 0
        assert "language k=6: pass" in out
        assert "forbidden-prefix sets: pass" in out
        assert "psi injectivity: pass (5 configs)" in out

    def test_n1_free_monoid(self, capsys):
        code, out, _ = run(capsys, "verify", "1", "--max-len", "5")
        assert code == 0
        assert out.count("pass") == 8  # six language lines + two checks

    @pytest.mark.parametrize("argv", [
        ("--max-len", "-5"),
        ("--max-len", "3", "--max-forbidden-len", "-1"),
        ("--max-len", "3", "--max-forbidden-len", "4"),
    ])
    def test_bad_lengths_refuse_before_printing(self, capsys, argv):
        code, out, err = run(capsys, "verify", "3", *argv)
        assert code == 6
        assert out == ""
        assert "error" in err

    def test_n6_output_is_pinned(self, capsys):
        # as the per-word walk over the cached states and the check of psi
        # over every valid configuration printed it
        code, out, err = run(capsys, "verify", "6", "--max-len", "7", "--max-forbidden-len", "6")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "bf47885b8761f3336618b51b831cd3c21ce60e96da7611ac6898e23a6705abea"
        )

    def test_language_mismatch(self, capsys, monkeypatch):
        language = oracle.enumerate_language

        def short(n, k):
            words = set(language(n, k))
            if k == 2:
                words.discard((2, 2))
            return words

        monkeypatch.setattr(oracle, "enumerate_language", short)
        code, out, err = run(capsys, "verify", "2", "--max-len", "4")
        assert code == 5
        assert out.splitlines() == [
            "language k=0: pass (1 words)",
            "language k=1: pass (2 words)",
            "language k=2: FAIL (3 words)",
            "psi injectivity: pass (5 configs)",
        ]
        assert err == "language mismatch at k=2: (2, 2)\n"

    def test_forbidden_prefix_mismatch(self, capsys, monkeypatch):
        # the empty word's set is empty, so the first mismatch is after a1
        monkeypatch.setattr(oracle, "minimal_forbidden_prefixes", lambda w, n: frozenset())
        code, out, err = run(capsys, "verify", "2", "--max-len", "3")
        assert code == 5
        assert "forbidden-prefix sets: FAIL (1 words)\n" in out
        assert "psi injectivity: pass (5 configs)\n" in out
        assert err == "forbidden-prefix mismatch after (1,)\n"

    def test_psi_collision(self, capsys, monkeypatch):
        # every state with i = 1 gets the initial state's empty image; the
        # empty word reaches only the initial state, so its set still agrees
        psi = cf.psi
        monkeypatch.setattr(cf, "psi", lambda c, n: frozenset() if c.i == 1 else psi(c, n))
        code, out, err = run(capsys, "verify", "2", "--max-len", "0")
        assert code == 5
        assert out.splitlines() == [
            "language k=0: pass (1 words)",
            "forbidden-prefix sets: pass (1 words)",
            "psi injectivity: FAIL (1 configs)",
        ]
        assert err == "psi collision: (1,1,1,{}) and (2,2,2,{})\n"


class TestShowState:
    def test_pair_state(self, capsys):
        code, out, _ = run(capsys, "show-state", "2", "1,1,1,")
        assert code == 0
        assert out == "# o\npsi = {a2 a1}\n"

    def test_initial(self, capsys):
        code, out, _ = run(capsys, "show-state", "2", "2,2,2,")
        assert code == 0
        assert out == "o #\npsi = {}\n"

    def test_segment_state(self, capsys):
        code, out, _ = run(capsys, "show-state", "2", "1,2,2,[1-2]")
        assert code == 0
        assert out == "---\no #\npsi = {a1 a2}\n"

    def test_invalid_config_exit_code(self, capsys):
        code, _, err = run(capsys, "show-state", "2", "3,1,1,")
        assert code == 6
        assert "error" in err

    def test_parse_config_spec(self):
        assert cli.parse_config_spec("1,2,2,[1-2]", 2) == SegmentConfig(1, 2, 2, ((1, 2),))
        assert cli.parse_config_spec("2,2,2,", 2) == SegmentConfig(2, 2, 2)
        with pytest.raises(ValueError):
            cli.parse_config_spec("1,2", 2)
        with pytest.raises(ValueError):
            cli.parse_config_spec("1,2,2,(1-2)", 2)

    @pytest.mark.parametrize("segments, bad", [
        ("[1-]", "1-"), ("[-2]", "-2"), ("[12]", "12"), ("[1-2;x-3]", "x-3"),
    ])
    def test_bad_segment_is_named(self, capsys, segments, bad):
        spec = f"1,1,1,{segments}"
        code, out, err = run(capsys, "show-state", "3", spec)
        assert code == 6
        assert out == ""
        assert err == f"error: bad segment {bad!r} in config spec {spec!r}\n"


class TestExport:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "export", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 2 and len(doc["states"]) == 5

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "export", "2", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_out_file_is_stdout_without_the_final_newline(self, capsys, tmp_path, fmt):
        path = tmp_path / f"a.{fmt}"
        code, out, _ = run(capsys, "export", "4", "--format", fmt)
        assert code == 0
        assert run(capsys, "export", "4", "--format", fmt, "--out", str(path)) == (0, "", "")
        assert out == path.read_text() + "\n"

    def test_stdout_stays_open_for_the_next_run(self, capsys):
        # the benchmark's worker runs main many times in one process
        first = run(capsys, "export", "2")
        assert first[0] == 0 and first[1].startswith("{")
        assert run(capsys, "export", "2") == first


class TestSeedDocs:
    def test_writes_artifacts(self, capsys, tmp_path):
        code, _, _ = run(capsys, "seed-docs", "--outdir", str(tmp_path))
        assert code == 0
        for name in ("m2.csv", "r2.csv", "m2_pow50_first_row.txt"):
            assert (tmp_path / name).read_bytes() == (ROOT / "docs" / name).read_bytes(), name


class TestBadInput:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 6

    def test_missing_argument(self, capsys):
        assert run(capsys, "states")[0] == 6

    @pytest.mark.parametrize("argv, message", [
        (("spectrum", "12", "--tol", "-1"), "argument --tol: tol must be positive, got -1.0"),
        (("spectrum", "12", "--tol", "nan"), "argument --tol: tol must be positive, got nan"),
        (("spectrum", "12", "--tol", "x"), "argument --tol: invalid float value: 'x'"),
        (("table", "--to", "12", "--tol", "0"), "argument --tol: tol must be positive, got 0.0"),
        (("count", "12", "-1"), "argument k: k must be nonnegative, got -1"),
        (("count", "12", "x"), "argument k: invalid int value: 'x'"),
        (("spectrum", "3", "--tol", "inf"), "argument --tol: tol must be finite, got inf"),
        (("table", "--tol", "inf"), "argument --tol: tol must be finite, got inf"),
    ])
    def test_refused_when_parsed_before_any_build(self, capsys, monkeypatch, argv, message):
        def no_build(n):
            raise AssertionError(f"built n={n}")

        monkeypatch.setattr(am, "build", no_build)
        code, out, err = run(capsys, *argv)
        assert code == 6
        assert out == ""
        assert err.splitlines()[-1] == f"braidlex {argv[0]}: error: {message}"

    @pytest.mark.parametrize("argv, message", [
        pytest.param(argv, message, id=" ".join(argv))
        for n, message in (("15", PAST_THE_GUARD), ("0", "n must be positive"))
        for argv in (
            ("count", n, "3"), ("spectrum", n), ("verify", n), ("export", n),
            *(("matrix", n, "--which", which, *check)
              for which in ("M", "R", "R-appendix") for check in ((), ("--check",))),
        )
    ] + [pytest.param(("table", "--from", "14", "--to", "15"), PAST_THE_GUARD,
                      id="table --from 14 --to 15")])
    def test_one_guard_refuses_before_building(self, capsys, monkeypatch, argv, message):
        def never(n):
            raise AssertionError(f"built n={n}")

        monkeypatch.setattr(am, "build", never)
        monkeypatch.setattr(mg, "build_R_direct", never)
        assert run(capsys, *argv) == (6, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("export", "3", "--out"), ("matrix", "3", "--out"), ("seed-docs", "--outdir"),
    ])
    def test_unwritable_output_path_is_bad_input(self, capsys, tmp_path, argv):
        blocker = tmp_path / "file"  # a file, so no path below it can be made
        blocker.write_text("")
        path = str(blocker / "x")
        code, out, err = run(capsys, *argv, path)
        assert code == 6
        assert out == ""
        [line] = err.splitlines()  # one line, no traceback
        assert line.startswith("error: ") and path in line

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        def exhausted(n):
            raise MemoryError("Unable to allocate 14.5 MiB")

        monkeypatch.setattr(mg, "build_M_direct", exhausted)
        assert run(capsys, "matrix", "5", "--which", "M") == (
            6, "", "error: out of memory: Unable to allocate 14.5 MiB\n"
        )
