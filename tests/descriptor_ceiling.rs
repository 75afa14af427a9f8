//! The reactor's descriptor ceiling, seen from the CLI: every carrier
//! between two shards is a loopback socket, so a deployment of K shards
//! and P carriers holds K + 2·P + 1 file descriptors. Below that soft
//! limit bring-up fails with a typed error (exit 2) that names the need;
//! at or above it the same deployment runs.
//!
//! A 64-node ring cut into 32 shards has 32 carriers: 97 descriptors,
//! plus stdio. Each run lowers `RLIMIT_NOFILE` for the child alone with
//! the shell's `ulimit -n`.

use std::io::Read;
use std::process::{Command, Stdio};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

const RING_32_SHARDS: [&str; 9] = [
    "cluster",
    "--topology",
    "ring",
    "--servers",
    "64",
    "--shards",
    "32",
    "--max-rounds",
    "20",
];

fn collect(mut pipe: impl Read + Send + 'static) -> JoinHandle<String> {
    thread::spawn(move || {
        let mut text = String::new();
        pipe.read_to_string(&mut text)
            .expect("child output is UTF-8");
        text
    })
}

/// Runs `dpc args` under `ulimit -n limit`; returns the exit code, stdout
/// and stderr. Fails the test if the child is still running after 30 s.
fn dpc_with_nofile(limit: u32, args: &[&str]) -> (Option<i32>, String, String) {
    let mut child = Command::new("/bin/sh")
        .arg("-c")
        .arg(format!("ulimit -n {limit}; exec \"$0\" \"$@\""))
        .arg(env!("CARGO_BIN_EXE_dpc"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning /bin/sh");
    let stdout = collect(child.stdout.take().expect("piped stdout"));
    let stderr = collect(child.stderr.take().expect("piped stderr"));
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("polling the child") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("dpc {args:?} under ulimit -n {limit} still ran after 30 s");
        }
        thread::sleep(Duration::from_millis(20));
    };
    let stdout = stdout.join().expect("stdout reader");
    let stderr = stderr.join().expect("stderr reader");
    (status.code(), stdout, stderr)
}

#[test]
fn a_descriptor_shortage_fails_bring_up_naming_the_need() {
    let (code, _, stderr) = dpc_with_nofile(64, &RING_32_SHARDS);
    assert_eq!(
        code,
        Some(2),
        "a typed error, not a panic; stderr: {stderr}"
    );
    assert!(stderr.contains("Too many open files"), "stderr: {stderr}");
    assert!(
        stderr.contains("32 shards and 32 carriers, which need 97 file descriptors"),
        "the error names the need; stderr: {stderr}"
    );
}

#[test]
fn the_same_deployment_runs_once_its_descriptors_fit() {
    let (code, stdout, stderr) = dpc_with_nofile(160, &RING_32_SHARDS);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(
        stdout.contains("runtime: 32 reactor shards (pinned)"),
        "stdout: {stdout}"
    );
}
