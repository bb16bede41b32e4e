//! Table 1: summary of the evaluated networks (task, type, layer counts).

use ev_bench::experiments::table1;
use ev_bench::report::{write_json, CommonArgs, TextTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse()?;
    args.reject_unknown(&[], &[])?;
    let rows = table1()?;

    println!("Table 1 — summary of networks");
    println!();
    let mut table = TextTable::new(["network", "task", "type", "# layers", "breakdown"]);
    for row in &rows {
        let breakdown = match (row.snn_layers, row.ann_layers) {
            (s, 0) => format!("{s} SNN"),
            (0, a) => format!("{a} ANN"),
            (s, a) => format!("{s} SNN, {a} ANN"),
        };
        table.row([
            row.network.clone(),
            row.task.clone(),
            row.kind.clone(),
            row.layers.to_string(),
            breakdown,
        ]);
    }
    print!("{}", table.render());

    if let Some(path) = args.json {
        write_json(&path, &rows)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
