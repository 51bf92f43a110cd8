//! The `ppr` binary's in-process subcommands, run as a user runs them:
//! one invocation each, checked by what it prints and how it exits. The
//! serving subcommands are exercised by `tests/service_e2e.rs`.

use std::process::{Command, Output};

fn ppr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ppr"))
        .args(args)
        .output()
        .expect("run ppr")
}

/// Each in-process subcommand, run as the README shows it, prints its
/// answer and exits 0.
#[test]
fn each_subcommand_prints_its_answer() {
    let dir = std::env::temp_dir().join(format!("ppr-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cnf = dir.join("unsat.cnf");
    std::fs::write(&cnf, "p cnf 1 2\n1 0\n-1 0\n").expect("write cnf");
    let cnf = cnf.to_str().expect("utf-8 path");
    let rule = "q(x) :- e(x,y), e(y,x).";
    let cases: [(&[&str], &str); 4] = [
        (
            &["query", "--rule", rule, "--rel", "e = {(1,2),(2,1)}"],
            "nonempty: true  rows: 2",
        ),
        (&["width", "--family", "ladder,5"], "treewidth (exact): 2"),
        (
            &[
                "color",
                "--family",
                "cycle,5",
                "--method",
                "straightforward",
                "--sql",
            ],
            "SELECT DISTINCT ",
        ),
        (&["sat", "--dimacs", cnf], "nonempty: false"),
    ];
    for (args, expected) in cases {
        let out = ppr(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "ppr {args:?}: {stderr}");
        assert!(stdout.contains(expected), "ppr {args:?}: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A misspelt flag, or the retired `--minimize`, exits 2 naming it and
/// runs nothing, where it used to be ignored.
#[test]
fn each_subcommand_rejects_a_flag_it_does_not_read() {
    let cases: [(&[&str], &str); 4] = [
        (
            &["color", "--family", "cycle,5", "--metod", "naive"],
            "--metod",
        ),
        (&["sat", "--random", "4,2,3", "--sead", "1"], "--sead"),
        (
            &[
                "query",
                "--rule",
                "q(x) :- e(x,y).",
                "--rel",
                "e = {(1,2)}",
                "--minimize",
            ],
            "--minimize",
        ),
        (&["width", "--family", "ladder,5", "--bogus"], "--bogus"),
    ];
    for (args, flag) in cases {
        let out = ppr(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "ppr {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "ppr {args:?}: {flag} not named: {stderr}"
        );
        assert!(out.stdout.is_empty(), "ppr {args:?} ran anyway");
    }
}
