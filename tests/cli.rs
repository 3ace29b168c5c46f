//! The `nvm-llc` command line end to end: it parses its flags once and
//! rejects what it does not understand, and its output depends on its
//! arguments alone — no environment variable reaches a result, and its
//! flags reach every simulating artifact.

use std::process::{Command, Output};

fn nvm_llc(args: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_nvm-llc"));
    command.args(args).env_remove("NVM_LLC_LOG");
    command
}

fn run(command: &mut Command) -> Output {
    command.output().expect("run nvm-llc")
}

#[test]
fn bad_command_lines_exit_2_with_usage() {
    for args in [
        &["fig1", "--scale", "smoke", "--bogus-flag"][..],
        &["fig1", "--scale", "smoke", "--thread", "2"],
        &["fig1", "--scale"],
        &["fig1", "--scale", "smoke", "--threads"],
        &["fig1", "--scale", "smoke", "--threads", "0"],
        &["fig1", "--scale", "smoke", "--policy", "clock"],
        &["fig1", "--scale", "smoke", "stray"],
        &["cell", "Xue", "Kang"],
        &["cell"],
        &["frobnicate"],
        &[],
    ] {
        let output = run(&mut nvm_llc(args));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: nvm-llc"), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} printed an artifact");
    }
}

#[test]
fn one_positional_name_is_accepted_where_an_artifact_takes_one() {
    for args in [
        &["cell", "Xue"][..],
        &["cell", "--scale", "smoke", "Xue"],
        &["characterize", "tonto", "--scale", "smoke"],
        &["mrc", "--scale", "smoke", "tonto"],
    ] {
        let output = run(&mut nvm_llc(args));
        assert!(
            output.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(!output.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn results_ignore_the_environment() {
    let args = ["fig1", "--scale", "smoke"];
    let plain = run(nvm_llc(&args)
        .env_remove("NVM_LLC_POLICY")
        .env_remove("NVM_LLC_THREADS")
        .env_remove("NVM_LLC_TAPE_CACHE_MB"));
    let dirty = run(nvm_llc(&args)
        .env("NVM_LLC_POLICY", "srrip")
        .env("NVM_LLC_THREADS", "abc")
        .env("NVM_LLC_TAPE_CACHE_MB", "1"));
    for output in [&plain, &dirty] {
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    assert!(
        plain.stdout == dirty.stdout,
        "environment variables changed a byte of the artifact"
    );
    let stderr = String::from_utf8_lossy(&dirty.stderr);
    assert!(!stderr.contains("ignoring invalid"), "{stderr}");
}

#[test]
fn store_dir_reaches_the_lifetime_study() {
    let dir = std::env::temp_dir().join(format!("nvm-llc-cli-lifetime-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.to_str().expect("utf-8 temp dir");
    let args = [
        "lifetime",
        "--scale",
        "smoke",
        "--store-dir",
        path,
        "--stats",
    ];
    let cold = run(&mut nvm_llc(&args));
    let records = std::fs::read_dir(&dir).map_or(0, |d| d.count());
    let warm = run(&mut nvm_llc(&args));
    let _ = std::fs::remove_dir_all(&dir);
    for output in [&cold, &warm] {
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    assert!(records > 0, "the cold run persisted nothing");
    assert!(cold.stdout == warm.stdout, "the warm run changed the study");
    let stderr = String::from_utf8_lossy(&warm.stderr);
    let hits: u64 = stderr
        .split("\"store\":\"")
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no store stats on stderr: {stderr}"));
    assert!(
        hits > 0,
        "the warm run read nothing from the store: {stderr}"
    );
}
