//! Table 2: accuracy for single-task execution, baseline vs Ev-Edge.

use ev_bench::experiments::figure8;
use ev_bench::report::{write_json, CommonArgs, TextTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse()?;
    args.reject_unknown(&[], &[])?;
    // Table 2 reports the accuracy of the Figure 8 Ev-Edge configurations.
    let rows = figure8(args.quick)?;

    println!("Table 2 — accuracy for single-task execution");
    println!();
    let mut table = TextTable::new(["network (metric)", "baseline", "Ev-Edge"]);
    for row in &rows {
        table.row([
            format!("{} ({})", row.network, row.metric_name),
            format!("{:.2}", row.metric_baseline),
            format!("{:.2}", row.metric_evedge),
        ]);
    }
    print!("{}", table.render());
    println!();
    println!(
        "Paper's Table 2: SpikeFlowNet 0.93→0.96, Fusion-FlowNet 0.72→0.79,\n\
         Adaptive-SpikeNet 1.27→1.36, HALSIE 66.31→64.18, E2Depth 0.61→0.63,\n\
         DOTIE 0.86→0.82 — minimal degradation under Ev-Edge."
    );

    if let Some(path) = args.json {
        write_json(&path, &rows)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
