//! Steadiness mode: reruns each workload in fresh child processes,
//! alternating the order, and reports per metric the median, the
//! quartiles and the spread, flagging every end-to-end metric, `setup_s`
//! included, whose interquartile spread exceeds its bound in
//! `BENCHMARK.json`. Numbers
//! are only comparable on the same host, so the host is printed first.

use std::process::Command;

use burst::json::Json;

use crate::catalog::END_TO_END;
use crate::workload::Workload;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [d[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

/// Each end-to-end metric's bound from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = Json::parse(&text).map_err(|e| format!("{path}: {e:?}"))?;
    let Some(Json::Arr(items)) = spec.get("end_to_end") else {
        return Err(format!("{path}: no end_to_end list"));
    };
    Ok(items
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_num()?,
            ))
        })
        .collect())
}

fn host() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown".to_string(), |(_, v)| v.trim().to_string())
    };
    let l3 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "nproc={nproc} cpu=\"{}\" model={} l3={l3}",
        field("model name"),
        field("model\t")
    )
}

/// One child run's end-to-end metrics, read from its last output line.
fn child(w: Workload, seed: u64, seconds: f64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let (last, before) = lines.split_last().map_or(("", &[][..]), |(l, b)| (*l, b));
    // The child's outputs and raw times, for the log.
    for line in before {
        eprintln!("  {line}");
    }
    let result = Json::parse(last).map_err(|e| format!("{}: {e:?}", w.name()))?;
    if !out.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{} seed {seed} failed: {last}", w.name()));
    }
    let metrics = result.get("metrics").ok_or("no metrics")?;
    Ok(END_TO_END
        .iter()
        .filter_map(|&(name, _)| {
            let v = metrics.get(name)?.get("value")?.as_num()?;
            Some((name.to_string(), v))
        })
        .collect())
}

/// Runs `n` rounds over `workloads` and prints the report. Round `r` uses
/// seed `seed + r`, or `seed` throughout when `same_seed` is set, which
/// leaves only timing noise in the spread. Returns the process exit code:
/// 0 when every spread is within its bound.
pub fn run(workloads: &[Workload], n: usize, seed: u64, same_seed: bool, seconds: f64) -> i32 {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("brbench: {e}");
            return 2;
        }
    };
    println!("host: {}", host());
    let mut samples: Vec<Vec<Vec<(String, f64)>>> = vec![Vec::new(); workloads.len()];
    for round in 0..n {
        let order: Vec<usize> = if round % 2 == 0 {
            (0..workloads.len()).collect()
        } else {
            (0..workloads.len()).rev().collect()
        };
        for i in order {
            let w = workloads[i];
            let seed = if same_seed { seed } else { seed + round as u64 };
            match child(w, seed, seconds) {
                Ok(m) => {
                    eprintln!("round {round} {}: {m:?}", w.name());
                    samples[i].push(m);
                }
                Err(e) => {
                    eprintln!("brbench: {e}");
                    return 1;
                }
            }
        }
    }
    let mut flagged = 0;
    println!(
        "{:<14} {:<13} {:>11} {:>11} {:>11} {:>8} {:>8} {:>6}",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"
    );
    for (w, runs) in workloads.iter().zip(&samples) {
        for &(name, _) in END_TO_END.iter() {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|m| m.iter().find(|(n, _)| n == name).map(|x| x.1))
                .collect();
            let [q1, med, q3] = quartiles(&values);
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = (q3 - q1) / med.abs().max(1e-12);
            let range = (hi - lo) / med.abs().max(1e-12);
            let bound = bounds.iter().find(|(n, _)| n == name).map_or(0.0, |b| b.1);
            let flag = spread > bound;
            flagged += flag as usize;
            println!(
                "{:<14} {:<13} {med:>11.5} {q1:>11.5} {q3:>11.5} {spread:>8.4} {range:>8.4} {bound:>6.3}{}",
                w.name(),
                name,
                if flag { "  OVER BOUND" } else { "" }
            );
        }
    }
    i32::from(flagged > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([3, 9], n=4) == [1.5, 6.0, 10.5]
        assert_eq!(quartiles(&[3.0, 9.0]), [1.5, 6.0, 10.5]);
    }
}
