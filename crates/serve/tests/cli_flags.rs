//! `bench_load` rejects arguments it does not understand: a mistyped
//! `--check` must exit with usage, never fall through to a re-record
//! that overwrites the committed `BENCH_serve.json`.

use std::path::PathBuf;
use std::process::Command;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn golden() -> Vec<u8> {
    std::fs::read(workspace_root().join("BENCH_serve.json")).expect("committed baseline")
}

fn run(arg: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench_load"))
        .arg(arg)
        .current_dir(workspace_root())
        .output()
        .expect("binary runs")
}

#[test]
fn help_and_unknown_flags_exit_without_running() {
    let before = golden();

    let help = run("--help");
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).starts_with("usage: "));

    for bogus in ["--bogus", "--chek"] {
        let out = run(bogus);
        assert_eq!(out.status.code(), Some(2), "{bogus}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(bogus), "{stderr}");
        assert!(stderr.contains("usage: "), "{stderr}");
        assert!(out.stdout.is_empty(), "{bogus} ran");
    }

    assert!(golden() == before, "bench_load changed BENCH_serve.json");
}
