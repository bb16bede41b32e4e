//! Extension experiment: the Figure 9 mixed configuration played forward
//! in simulated time — periodic concurrent inputs, shared PE queues, and
//! bounded inference queues with the §4.2 oldest-frame drop rule.

use ev_bench::experiments::{multitask_runtime, RuntimeRow};
use ev_bench::report::{write_json, CommonArgs, TextTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse()?;
    args.reject_unknown(&[], &[])?;
    let rows = multitask_runtime(args.quick)?;

    println!("Extension — multi-task runtime (mixed SNN-ANN, periodic inputs)");
    println!();
    let mut table = TextTable::new([
        "policy",
        "worst mean latency",
        "dropped",
        "completed",
        "mean PE util",
    ]);
    for row in &rows {
        table.row([
            row.policy.clone(),
            format!("{:.2} ms", row.worst_mean_latency_ms),
            row.dropped.to_string(),
            row.completed.to_string(),
            format!("{:.0}%", row.mean_utilization * 100.0),
        ]);
    }
    print!("{}", table.render());
    println!();
    println!(
        "Finding: offline objectives do not transfer 1:1 to streaming execution.\n\
         Under sustainable arrival rates, RR-Network's dedicated engines avoid\n\
         cross-task interference entirely and drop nothing, while Equation 2's\n\
         one-shot joint-latency optimum shares the fastest engine across tasks\n\
         and pays for it in queueing. The schedulability (streaming) objective\n\
         {}",
        streaming_verdict(&rows)?
    );

    if let Some(path) = args.json {
        write_json(&path, &rows)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

/// The closing lines on the streaming objective, read from the rows: it
/// narrows the gap only when it drops fewer inputs than the latency
/// objective.
fn streaming_verdict(rows: &[RuntimeRow]) -> Result<String, String> {
    let dropped = |policy: &str| {
        rows.iter()
            .find(|row| row.policy == policy)
            .map(|row| row.dropped)
            .ok_or(format!("no `{policy}` row"))
    };
    let latency = dropped("NMP (latency obj.)")?;
    let streaming = dropped("NMP (streaming obj.)")?;
    Ok(if streaming < latency {
        "narrows the gap; closing it needs interference-aware fitness — a\n\
         concrete future-work direction this reproduction surfaces."
            .to_string()
    } else {
        format!(
            "does not narrow the gap here: it drops {streaming} inputs against the latency\n\
             objective's {latency}. Closing the gap needs interference-aware fitness — a\n\
             concrete future-work direction this reproduction surfaces."
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(latency: u64, streaming: u64) -> Vec<RuntimeRow> {
        [
            ("NMP (latency obj.)", latency),
            ("NMP (streaming obj.)", streaming),
        ]
        .into_iter()
        .map(|(policy, dropped)| RuntimeRow {
            policy: policy.to_string(),
            worst_mean_latency_ms: 0.0,
            dropped,
            completed: 0,
            mean_utilization: 0.0,
        })
        .collect()
    }

    #[test]
    fn the_verdict_follows_the_drop_counts() {
        // The quick budget's counts keep the sentence it always printed.
        assert!(streaming_verdict(&rows(4, 0))
            .unwrap()
            .starts_with("narrows the gap;"));
        let wider = streaming_verdict(&rows(16, 24)).unwrap();
        assert!(wider.starts_with("does not narrow the gap here"), "{wider}");
        assert!(wider.contains("drops 24 inputs against the latency\nobjective's 16."));
        assert!(streaming_verdict(&rows(5, 5))
            .unwrap()
            .contains("does not narrow"));
        assert!(streaming_verdict(&rows(5, 5)[..1]).is_err());
    }
}
