//! Figure 5: temporal event density of the `indoor_flying2` segment.

use ev_bench::experiments::figure5;
use ev_bench::report::{write_json, CommonArgs};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse()?;
    args.reject_unknown(&[], &[])?;
    let result = figure5(args.quick)?;

    println!("Figure 5 — temporal event density (indoor_flying2, 10 ms bins)");
    println!();
    let max_rate = result.bins.iter().map(|b| b.rate).fold(0.0f64, f64::max);
    for bin in &result.bins {
        let bar_len = if max_rate > 0.0 {
            ((bin.rate / max_rate) * 60.0).round() as usize
        } else {
            0
        };
        println!(
            "{:>7.0} ms | {:<60} {:>9.0} ev/s",
            bin.t_ms,
            "#".repeat(bar_len),
            bin.rate
        );
    }
    println!();
    println!(
        "Burstiness (peak/mean): {:.2}x — the paper's figure shows pronounced bursts\n\
         during aggressive flight over a quiet baseline.",
        result.burstiness
    );

    if let Some(path) = args.json {
        write_json(&path, &result)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
