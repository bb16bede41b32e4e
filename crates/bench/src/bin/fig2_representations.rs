//! Figure 2: the input representation schemes of §2, demonstrated on one
//! event stream — full accumulation, discretized bins, timestamp surfaces,
//! and sequential timestep presentation.

use ev_bench::experiments::figure2;
use ev_bench::report::{write_json, CommonArgs, TextTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse()?;
    args.reject_unknown(&[], &[])?;
    let result = figure2()?;
    println!(
        "Figure 2 — input representations for one {} ms interval ({} events)\n",
        result.interval_ms, result.events
    );
    let mut table = TextTable::new(["scheme", "frames", "channels", "nonzeros", "mean fill %"]);
    for row in &result.rows {
        table.row([
            row.scheme.clone(),
            row.frames.to_string(),
            row.channels.to_string(),
            row.nonzeros.to_string(),
            format!("{:.2}", row.mean_fill_pct),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nEv-Edge supports all of these (§2); the per-network choices are in\n\
         ev_datasets::representation."
    );
    if let Some(path) = args.json {
        write_json(&path, &result)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
