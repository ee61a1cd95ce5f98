//! The baseline-gate binaries reject arguments they do not understand:
//! a mistyped `--check` must exit with usage, never fall through to a
//! re-record that overwrites the committed goldens.

use std::path::PathBuf;
use std::process::Command;

const GOLDENS: &[&str] = &[
    "BENCH_mapper.json",
    "BENCH_sim.json",
    "BENCH_dpqa.json",
    "CALIBRATION_portfolio.json",
];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn goldens() -> Vec<Vec<u8>> {
    GOLDENS
        .iter()
        .map(|file| std::fs::read(workspace_root().join(file)).expect(file))
        .collect()
}

fn run(bin: &str, arg: &str) -> std::process::Output {
    Command::new(bin)
        .arg(arg)
        .current_dir(workspace_root())
        .output()
        .expect("binary runs")
}

#[test]
fn help_and_unknown_flags_exit_without_running() {
    for bin in [
        env!("CARGO_BIN_EXE_bench_baseline"),
        env!("CARGO_BIN_EXE_portfolio_calibrate"),
    ] {
        let before = goldens();

        let help = run(bin, "--help");
        assert_eq!(help.status.code(), Some(0), "{bin} --help");
        assert!(String::from_utf8_lossy(&help.stdout).starts_with("usage: "));

        for bogus in ["--bogus", "--chek"] {
            let out = run(bin, bogus);
            assert_eq!(out.status.code(), Some(2), "{bin} {bogus}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(bogus), "{stderr}");
            assert!(stderr.contains("usage: "), "{stderr}");
            assert!(out.stdout.is_empty(), "{bin} {bogus} ran");
        }

        assert!(goldens() == before, "{bin} changed a committed golden");
    }
}
