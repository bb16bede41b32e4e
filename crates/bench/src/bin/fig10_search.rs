//! Figure 10: (a) NMP evolutionary-search convergence; (b) NMP vs random
//! search on the mixed SNN-ANN configuration (paper: 1.42× faster result).
//!
//! Both curves come from the NMP configuration-sweep engine
//! (`ev_edge::nmp::sweep`): the figure is a 2-cell sweep over the
//! algorithm axis. `--ablate` keeps the legacy GA hyper-parameter point
//! comparison; `ext_sweep_grid` runs the full ablation grid.

use ev_bench::claims::FIG10_OVER_RANDOM;
use ev_bench::experiments::{figure10, ga_ablation};
use ev_bench::report::{write_json, CommonArgs, TextTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = CommonArgs::parse()?;
    args.reject_unknown(&[], &["--ablate"])?;
    if args.rest.iter().any(|a| a == "--ablate") {
        return run_ga_ablation(&args);
    }
    let result = figure10(args.quick)?;

    println!("Figure 10a — NMP fitness convergence (mixed SNN-ANN config)");
    println!();
    let mut table = TextTable::new(["generation", "NMP best", "NMP mean", "random best-so-far"]);
    for (nmp, rnd) in result.nmp_history.iter().zip(&result.random_history) {
        table.row([
            nmp.generation.to_string(),
            format!("{:.4}", nmp.best_score),
            format!("{:.4}", nmp.mean_score),
            format!("{:.4}", rnd.best_score),
        ]);
    }
    print!("{}", table.render());
    println!();
    println!("Figure 10b — searched mapping latency:");
    println!(
        "  NMP:    {:.2} ms\n  random: {:.2} ms\n  NMP is {:.2}x faster (paper: {FIG10_OVER_RANDOM}x)",
        result.nmp_best_ms, result.random_best_ms, result.improvement_over_random
    );

    if let Some(path) = args.json {
        write_json(&path, &result)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn run_ga_ablation(args: &CommonArgs) -> Result<(), Box<dyn std::error::Error>> {
    let rows = ga_ablation(args.quick)?;
    println!("GA hyper-parameter ablation — mixed SNN-ANN mapping problem");
    println!();
    let mut table = TextTable::new([
        "population",
        "generations",
        "mutations",
        "elite",
        "best ms",
        "evals",
        "cache hits",
    ]);
    for row in &rows {
        table.row([
            row.population.to_string(),
            row.generations.to_string(),
            row.mutation_layers.to_string(),
            format!("{:.2}", row.elite_fraction),
            format!("{:.2}", row.best_ms),
            row.evaluations.to_string(),
            row.cache_hits.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!();
    println!(
        "The final row disables baseline seeding (pure random init), isolating the\n\
         contribution of the heuristic seeds."
    );
    if let Some(path) = &args.json {
        write_json(path, &rows)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
