//! Figure 3: average percentage of events per event frame for different
//! networks (paper: 0.15%–28.57% across input representations).

use ev_bench::claims::FIG3_FILL_PCT;
use ev_bench::experiments::figure3;
use ev_bench::report::{write_json, CommonArgs, TextTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse()?;
    args.reject_unknown(&[], &[])?;
    let rows = figure3(args.quick)?;

    println!("Figure 3 — average event-frame fill ratio per network");
    println!();
    let mut table = TextTable::new(["network", "nB (bins/interval)", "mean fill %"]);
    for row in &rows {
        table.row([
            row.network.clone(),
            row.bins_per_interval.to_string(),
            format!("{:.2}", row.mean_fill_pct),
        ]);
    }
    print!("{}", table.render());
    let min = rows
        .iter()
        .map(|r| r.mean_fill_pct)
        .fold(f64::INFINITY, f64::min);
    let max = rows.iter().map(|r| r.mean_fill_pct).fold(0.0f64, f64::max);
    println!();
    println!(
        "Spread: {min:.2}% – {max:.2}%  (paper reports {}% – {}%)",
        FIG3_FILL_PCT.low, FIG3_FILL_PCT.high
    );

    if let Some(path) = args.json {
        write_json(&path, &rows)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
