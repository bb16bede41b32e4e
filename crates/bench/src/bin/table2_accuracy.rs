//! Table 2: accuracy for single-task execution, baseline vs Ev-Edge.

use ev_bench::experiments::figure8;
use ev_bench::report::{write_json, CommonArgs, TextTable};
use ev_nn::zoo::NetworkId;

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
    // The paper's line, from the zoo: each network's baseline and its
    // metric degraded by its full ΔA.
    let paper: Vec<String> = NetworkId::TABLE1
        .iter()
        .map(|&n| {
            let model = n.accuracy_model();
            format!(
                "{} {:.2}→{:.2}",
                n.name(),
                model.baseline(),
                model.degraded_metric(n.delta_a())
            )
        })
        .collect();
    println!(
        "Paper's Table 2: {},\n{},\n{} — minimal degradation under Ev-Edge.",
        paper[..2].join(", "),
        paper[2..5].join(", "),
        paper[5]
    );

    if let Some(path) = args.json {
        write_json(&path, &rows)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
