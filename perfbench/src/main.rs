//! Benchmark binary: runs one workload and prints its metrics, then one
//! JSON result object as the last line of standard output.
//!
//! ```text
//! lr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!              [--spans <file>] [--size full|smoke]
//! ```
//!
//! Exit codes: 0 when every correctness gate passed, 1 when one failed
//! (the result is still printed), 2 on bad arguments or a refused
//! environment (nothing is printed on standard output).

use lr_perfbench::{bench, Config, Report, Size, Workload};
use std::fmt::Write as _;
use std::process::ExitCode;

struct Args {
    cfg: Config,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut spans, mut size) = (None, Size::Full);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside [0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
                })
            }
            "--spans" => spans = Some(value()?),
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    v => return Err(format!("--size must be full or smoke, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        cfg: Config {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            size,
        },
        spans,
    })
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn result_json(r: &Report) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct(),
        r.attempted,
        r.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lr-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let refused = bench::refused_env();
    if !refused.is_empty() {
        eprintln!(
            "lr-perfbench: refusing to run with {} set: the benchmark measures the \
             default engine only",
            refused.join(", ")
        );
        return ExitCode::from(2);
    }
    let cfg = args.cfg;
    let report = bench::run(&cfg);

    println!(
        "workload {} seed {} ({})",
        cfg.workload.name(),
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" }
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for m in &report.metrics {
        println!("  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if cfg.trace {
        println!("  span self time (s)               total (s)    count");
        for (name, t) in report.tracer.layer_times() {
            println!(
                "  {name:<30} {:>10.6} {:>12.6} {:>8}",
                t.self_s, t.total_s, t.count
            );
        }
    }
    if let (Some(path), true) = (&args.spans, cfg.trace) {
        let path = std::path::Path::new(path);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| {
                std::fs::write(path, report.tracer.to_json(cfg.workload.name(), cfg.seed))
            });
        if let Err(e) = written {
            eprintln!(
                "lr-perfbench: cannot write spans to {}: {e}",
                path.display()
            );
        }
    }
    println!("{}", result_json(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
