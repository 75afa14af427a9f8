//! `benchmark` — the time-to-cap benchmark of the dpc workspace.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//!     one run of one workload; the last line of stdout is the result
//! benchmark suite [--seed N] [--seconds S] [--runs R] [--quick]
//!     every workload in its own process, untraced then traced;
//!     writes results.json and the traces to the out directory
//! benchmark compare A.json B.json
//!     applies every end-to-end bound; non-zero exit on a regression
//! benchmark spec
//!     prints BENCHMARK.json
//! ```
//!
//! The out directory is `$BENCHMARK_OUT_DIR` (`run.sh` sets it to
//! `benchmark/out`).

mod calib;
mod compare;
mod json;
mod probes;
mod run;
mod spec;
mod stats;
mod timeline;
mod trace;
mod workload;

use run::{Options, Outcome};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workload::Workload;

fn out_dir() -> PathBuf {
    std::env::var_os("BENCHMARK_OUT_DIR")
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

/// `--name value` pairs and bare `--flags` after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        match self.0.iter().position(|a| a == name) {
            Some(at) => {
                self.0.remove(at);
                true
            }
            None => false,
        }
    }

    fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(at) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("`{name}` needs a value"));
        }
        let raw = self.0.remove(at + 1);
        self.0.remove(at);
        raw.parse()
            .map(Some)
            .map_err(|_| format!("`{name} {raw}` is not a valid value"))
    }

    fn finish(self) -> Result<Vec<String>, String> {
        match self.0.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => Err(format!("unknown option `{unknown}`")),
            None => Ok(self.0),
        }
    }
}

fn positive_seconds(seconds: f64) -> Result<f64, String> {
    if seconds.is_finite() && seconds > 0.0 {
        Ok(seconds)
    } else {
        Err(format!("`--seconds {seconds}` must be positive"))
    }
}

fn single_run(mut args: Args) -> Result<ExitCode, String> {
    let name: String = args
        .value("--workload")?
        .ok_or("`--workload` is required")?;
    let workload = Workload::from_name(&name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (one of {})", known.join(", "))
    })?;
    let quick = args.flag("--quick");
    let opts = Options {
        workload,
        seed: args.value("--seed")?.unwrap_or(0),
        seconds: positive_seconds(args.value("--seconds")?.unwrap_or(spec::RUN_SECONDS as f64))?,
        trace: match args.value::<u8>("--trace")?.unwrap_or(0) {
            0 => false,
            1 => true,
            other => return Err(format!("`--trace {other}` must be 0 or 1")),
        },
        quick,
        out_dir: out_dir(),
    };
    if !args.finish()?.is_empty() {
        return Err("unexpected positional argument".to_string());
    }
    let outcome = run::run(&opts).map_err(|e| format!("writing the trace: {e}"))?;
    print_outcome(&opts, &outcome);
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_outcome(opts: &Options, outcome: &Outcome) {
    println!(
        "workload {} seed {} seconds {} trace {}{}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.quick {
            "  [QUICK: smoke only, not for claims]"
        } else {
            ""
        }
    );
    print!("{}", outcome.table());
    for note in &outcome.notes {
        println!("note: {note}");
    }
    println!("{}", outcome.result_line());
}

/// First line of `program args…`'s stdout, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the numbers were taken, as a JSON object.
fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let governor = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .map_or_else(|_| "unreadable".to_string(), |g| g.trim().to_string());
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"governor\": {}, \"rustc\": {}, \"commit\": {}}}",
        dpc_alg::exec::host_parallelism(),
        json::quote(&cpu),
        json::quote(&governor),
        json::quote(&first_line_of("rustc", &["--version"])),
        json::quote(&first_line_of("git", &["rev-parse", "HEAD"])),
    )
}

/// Runs this binary on one workload in a process of its own and returns
/// the parsed result line.
fn child_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<json::Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("starting a workload process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let last = stdout.lines().last().unwrap_or_default();
    json::parse(last).map_err(|e| {
        format!(
            "{} (trace {}) printed no result line ({e}); exit status {}",
            workload.name(),
            u8::from(trace),
            output.status
        )
    })
}

/// `{"name": value, …}` from a result line's `metrics` object.
fn flat_metrics(result: &json::Value) -> String {
    let members = result
        .get("metrics")
        .and_then(json::Value::members)
        .unwrap_or_default();
    let fields: Vec<String> = members
        .iter()
        .filter_map(|(name, m)| {
            Some(format!(
                "{}: {}",
                json::quote(name),
                m.get("value")?.as_f64()?
            ))
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn suite(mut args: Args) -> Result<ExitCode, String> {
    let quick = args.flag("--quick");
    let seed: u64 = args.value("--seed")?.unwrap_or(0);
    let default_seconds = if quick { 1.0 } else { spec::RUN_SECONDS as f64 };
    let seconds = positive_seconds(args.value("--seconds")?.unwrap_or(default_seconds))?;
    let runs: u64 = args.value("--runs")?.unwrap_or(1).max(1);
    if !args.finish()?.is_empty() {
        return Err("unexpected positional argument".to_string());
    }

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut run_objects = Vec::new();
        for r in 0..runs {
            let result = child_run(workload, seed + r, seconds, false, quick)?;
            let correct = result.get("correct") == Some(&json::Value::Bool(true));
            all_correct &= correct;
            run_objects.push(format!(
                "{{\"seed\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}}}",
                seed + r,
                result.get("attempted").and_then(json::Value::as_f64).unwrap_or(0.0),
                result.get("failed").and_then(json::Value::as_f64).unwrap_or(0.0),
                flat_metrics(&result)
            ));
        }
        let traced = child_run(workload, seed, seconds, true, quick)?;
        let traced_correct = traced.get("correct") == Some(&json::Value::Bool(true));
        all_correct &= traced_correct;
        workloads.push(format!(
            "    {}: {{\n      \"runs\": [\n        {}\n      ],\n      \"traced_correct\": {traced_correct},\n      \"per_layer\": {}\n    }}",
            json::quote(workload.name()),
            run_objects.join(",\n        "),
            flat_metrics(&traced)
        ));
    }

    let doc = format!(
        "{{\n  \"quick\": {quick},\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"runs\": {runs},\n  \"host\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        host_fingerprint(),
        workloads.join(",\n")
    );
    let dir = out_dir();
    let path = dir.join("results.json");
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, doc))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "results written to {}{}",
        path.display(),
        if quick {
            "  [QUICK: smoke only, not for claims]"
        } else {
            ""
        }
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: Args) -> Result<ExitCode, String> {
    let files = args.finish()?;
    let [a, b] = files.as_slice() else {
        return Err("usage: benchmark compare A.json B.json".to_string());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (table, ok) = compare::compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let subcommand = match argv.first().map(String::as_str) {
        Some("suite" | "compare" | "spec") => argv.remove(0),
        Some(_) => "run".to_string(),
        None => "suite".to_string(),
    };
    let result = match subcommand.as_str() {
        "run" => single_run(Args(argv)),
        "suite" => suite(Args(argv)),
        "compare" => compare_files(Args(argv)),
        _ => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
    };
    result.unwrap_or_else(|why| {
        eprintln!("error: {why}");
        ExitCode::from(2)
    })
}
