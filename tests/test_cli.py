import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from diagmod import clifford
from diagmod.cli import main
from diagmod.series import from_term_records
from diagmod.tableaux import tableau_from_record


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_enumerate_text():
    code, out = run_cli("enumerate", "--family", "spct", "--shape", "3,3,1")
    assert code == 0
    assert out.startswith("10 tableaux")
    assert out.count("Des =") == 10


def test_enumerate_structured_round_trip():
    code, out = run_cli(
        "enumerate", "--family", "syct", "--shape", "2,4", "--format", "structured"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 4
    tabs = [tableau_from_record(rec) for rec in lines]
    from diagmod.families import build_family

    assert set(tabs) == set(build_family("syct", (2, 4)).members)


def test_characteristic_text():
    code, out = run_cli("characteristic", "--family", "syct", "--shape", "2,4")
    assert code == 0
    assert out.strip() == "F[2,4] + F[1,4,1] + F[1,3,2] + F[1,2,3]"


def test_peak_characteristic_structured_round_trip():
    code, out = run_cli(
        "peak-characteristic", "--family", "ssht", "--shape", "4,3,1",
        "--format", "structured",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    f = from_term_records(records)
    from diagmod.clifford import peak_characteristic
    from diagmod.families import build_family

    assert f == peak_characteristic(build_family("ssht", (4, 3, 1)))


def test_expand_k():
    code, out = run_cli("expand-K", "--shape", "2,1")
    assert code == 0
    assert out.strip() == "4*F[2,1] + 4*F[1,2]"


def test_theta_equals_peak_characteristic():
    code_a, out_a = run_cli("theta", "--family", "spct", "--shape", "3,3,1")
    code_b, out_b = run_cli("peak-characteristic", "--family", "spct", "--shape", "3,3,1")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_truncate():
    code, out = run_cli(
        "truncate", "--family", "syt", "--shape", "2,1", "--vars", "2"
    )
    assert code == 0
    assert "x1" in out


def test_verify_exit_zero():
    code, out = run_cli("verify", "--family", "syct", "--shape", "2,4", "--relations")
    assert code == 0
    assert "relations" in out


def test_verify_full_suite():
    code, out = run_cli("verify", "--family", "spct", "--shape", "2,2,1")
    assert code == 0
    assert "filtration quotients: pass" in out


def test_verify_sigma():
    code, out = run_cli(
        "verify", "--family", "srct", "--shape", "2,2", "--sigma", "2,1", "--relations"
    )
    assert code == 0


def test_sigma_on_a_kind_without_one_exits_two(capsys):
    code, out = run_cli("verify", "--family", "syt", "--shape", "2,1", "--sigma", "2,1")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: syt does not take a sigma permutation\n"


@pytest.mark.parametrize("argv", [
    ("dump-matrices", "--clifford", "--convention", "hat"),
    ("verify", "--clifford", "--convention", "hat"),
    ("verify", "--compatibility", "--convention", "pi"),
])
def test_convention_without_a_module_exits_two(argv, capsys):
    """--convention chooses the module's generators: with no module built it
    is an error, not ignored."""
    code, out = run_cli(*argv, "--family", "syt", "--shape", "2,1")
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: --convention applies only to the module")


def test_dump_matrices_structured():
    code, out = run_cli(
        "dump-matrices", "--family", "syct", "--shape", "2,2", "--format", "structured"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    basis_lines = [l for l in lines if "basis" in l]
    entry_lines = [l for l in lines if "gen" in l]
    assert len(basis_lines) == 2
    assert all(l["gen"] == "pi" for l in entry_lines)


def test_dump_matrices_clifford():
    code, out = run_cli(
        "dump-matrices", "--family", "syct", "--shape", "1,1", "--clifford"
    )
    assert code == 0
    assert any(line.startswith("c 1") for line in out.splitlines())


def test_dump_matrices_clifford_is_pinned():
    """The supermodule triples, emitted from the family's word graph and the
    2^n blocks, are byte-identical to those of the former eager matrix build."""
    pinned = {
        "text": "86f1782ed4dfb1f0446ddd352d9faf4cb5402370d1ac11456bba6584c890b699",
        "structured": "d39629ea62430beac38eacb571c421cdd6372f80aed01786af6013304eda529f",
    }
    for fmt, digest in pinned.items():
        code, out = run_cli(
            "dump-matrices", "--family", "syt", "--shape", "3,2", "--clifford", "--format", fmt
        )
        assert code == 0
        assert len(out.splitlines()) == 1605
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


# (arguments, format, lines, sha256 of the output)
PINNED_HECKE_DUMPS = [
    ("--family syt --shape 4,3,1", "text", 427,
     "181e8d82413768bc7ef6cbd08558b2d2ec4c56d0dda1e5a63a15b82cb14dfd25"),
    ("--family syt --shape 4,3,1", "structured", 427,
     "17ee6a690f84da2f1b352d386410f6746f3867458f0234184cbf637391173cca"),
    ("--family sit --shape 3,3 --convention hat", "text", 54,
     "a50d33526a601070579921d0f7b78b85b6f0d7cfbe4d95dc22f5dbbb763b3369"),
    ("--family sit --shape 3,3 --convention hat", "structured", 54,
     "c71e18d9ddb22332687e0f1c82344f3c6a101808b656bc48cb0a1002a6ec1ebd"),
    ("--family syct --shape 2,3,1 --sigma 2,1,3", "text", 33,
     "69869bd4baa118b1b73076f17028b4aacf77e3dd2c19bda5893c2887254e4091"),
    ("--family syct --shape 2,3,1 --sigma 2,1,3", "structured", 33,
     "471724a4de8947c8dcce32992c30beae3bc7a822f5f40ca34633831b7bcfcd68"),
]


@pytest.mark.parametrize("args, fmt, lines, digest", PINNED_HECKE_DUMPS)
def test_dump_matrices_hecke_is_pinned(args, fmt, lines, digest):
    """The module triples, emitted from the signed partial maps, are
    byte-identical to those of the former tableau-by-tableau build, in both
    conventions."""
    code, out = run_cli("dump-matrices", *args.split(), "--format", fmt)
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_harness_subcommand():
    code, out = run_cli(
        "harness", "--check", "witness", "--check", "transition", "--max-n", "3"
    )
    assert code == 0
    assert "checks passed" in out


@pytest.mark.parametrize("argv", [("--max-n", "0"), ("--max-n", "-3", "--check", "theta")])
def test_harness_with_nothing_to_check_exits_two(argv, capsys):
    code, out = run_cli("harness", *argv)
    assert code == 2 and out == ""
    assert "max_n must be at least 1" in capsys.readouterr().err


CERTIFICATES = ("reach", "local", "expansion", "suite", "quotients")


def test_certify_passes_to_n_12():
    code, out = run_cli("certify", "--max-n", "12")
    assert code == 0
    row = " ".join(f"{name} pass" for name in CERTIFICATES)
    assert out.splitlines() == [f"n={n} {row}" for n in range(1, 13)]


def _flip_swap_sign(monkeypatch, n, i):
    """Flip the sign of the first SWAP entry of pi_i of size n."""
    original = clifford._hecke_mask_blocks

    def patched(m, g):
        blocks = original(m, g)
        if (m, g) != (n, i):
            return blocks
        targets, signs = (a.copy() for a in blocks[clifford.SWAP])
        signs[0, 0] = -signs[0, 0]
        return {**blocks, clifford.SWAP: (targets, signs)}

    monkeypatch.setattr(clifford, "_hecke_mask_blocks", patched)


def test_certify_fails_under_a_swap_fault(monkeypatch, fresh_block_caches):
    """One SWAP entry of pi_2 at n = 5 with its sign flipped breaks the
    local, expansion and suite certificates of n = 5 only."""
    _flip_swap_sign(monkeypatch, 5, 2)
    code, out = run_cli("certify", "--max-n", "6")
    assert code == 1
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        "n=5 reach pass local FAIL expansion FAIL suite FAIL quotients pass"
    ]


def test_verify_reports_a_failing_certificate(monkeypatch, capsys, fresh_block_caches):
    """A certificate that fails under a SWAP fault is a verification
    failure: one error line on stderr and exit code 1, no traceback."""
    _flip_swap_sign(monkeypatch, 3, 1)
    code, out = run_cli("verify", "--family", "syt", "--shape", "2,1", "--clifford")
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        "error: the blocks of size 3 do not certify the 0-Hecke relations\n"
    )


def test_certify_needs_a_positive_bound(capsys):
    assert run_cli("certify", "--max-n", "0") == (2, "")
    assert "--max-n must be at least 1" in capsys.readouterr().err


def test_domain_error_exit_two(capsys):
    code, _ = run_cli("enumerate", "--family", "spct", "--shape", "1,3")
    assert code == 2


def test_usage_error_exit_two():
    code, _ = run_cli("enumerate", "--family", "nope", "--shape", "2")
    assert code == 2


def test_deterministic_output():
    a = run_cli("peak-characteristic", "--family", "spct", "--shape", "3,3,1")
    b = run_cli("peak-characteristic", "--family", "spct", "--shape", "3,3,1")
    assert a == b
