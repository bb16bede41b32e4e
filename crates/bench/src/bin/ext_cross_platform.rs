//! Extension experiment: the same multi-task workload mapped by NMP onto
//! three commodity-edge platform classes (Nano-like, Xavier AGX,
//! Orin-like), showing how the searched mapping adapts to the hardware.

use ev_bench::experiments::cross_platform;
use ev_bench::report::{write_json, CommonArgs, TextTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse()?;
    args.reject_unknown(&[], &[])?;
    let rows = cross_platform(args.quick)?;

    println!("Extension — NMP across platform classes (SpikeFlowNet + DOTIE)");
    println!();
    let mut table = TextTable::new([
        "platform",
        "all-GPU ms",
        "NMP ms",
        "speedup",
        "GPU share",
        "reduced precision",
    ]);
    for row in &rows {
        table.row([
            row.platform.clone(),
            format!("{:.2}", row.all_gpu_ms),
            format!("{:.2}", row.nmp_ms),
            format!("{:.2}x", row.speedup),
            format!("{:.0}%", row.gpu_share * 100.0),
            format!("{:.0}%", row.reduced_precision_share * 100.0),
        ]);
    }
    print!("{}", table.render());
    println!();
    println!(
        "The search adapts: with no DLA (Nano class) the GPU keeps most layers and\n\
         precision is the main lever; with strong DLAs (Orin class) more layers\n\
         migrate off the GPU."
    );

    if let Some(path) = args.json {
        write_json(&path, &rows)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
