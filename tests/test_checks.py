from sepqn import checks


def test_invariant_suite_all_pass(capsys):
    failures = checks.run_all()
    out = capsys.readouterr().out
    assert failures == []
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == len(checks.CHECKS)
    assert all(ln.startswith("PASS") for ln in lines)


def test_check_cli_exit_status():
    from sepqn.cli import main

    assert main(["check"]) == 0
