//! `asqp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--commit <label>]`
//!
//! Runs one workload once and prints the host/configuration descriptor,
//! one line per metric (name, value, unit) and, as the last line, a JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exits 1
//! when an answer check fails and 2 when the run cannot complete.

use asqp_perfbench::fixture::{RunConfig, WORKLOADS};
use asqp_perfbench::run::{nproc, run, Report};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        commit: "unknown".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => args.trace = number()? != 0,
            "--commit" => args.commit = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn json_line(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(report.metrics.len());
    for m in &report.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("asqp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(cfg) = RunConfig::for_workload(&args.workload, args.seed, args.seconds, nproc())
    else {
        eprintln!(
            "asqp-perfbench: unknown workload '{}' (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let report = match run(&cfg, args.trace, &args.commit) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("asqp-perfbench: run failed: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{}-seed{}.jsonl", cfg.workload, cfg.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, report.spans.to_json_lines()));
        if let Err(e) = written {
            eprintln!("asqp-perfbench: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", report.descriptor);
    for m in &report.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    match json_line(&report) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("asqp-perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
