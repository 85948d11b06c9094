//! The experiment driver: reproduces every quantitative claim of the AIMS
//! paper (CIDR 2003). See `DESIGN.md` for the claim → experiment index and
//! `EXPERIMENTS.md` for the recorded results.
//!
//! Usage:
//!   cargo run --release -p aims-bench --bin experiments            # all
//!   cargo run --release -p aims-bench --bin experiments -- e9 e13  # some

use aims_bench::{
    exp_acquisition, exp_adhd, exp_chaos, exp_durability, exp_extensions, exp_faults,
    exp_ingest_faults, exp_online, exp_propolyne, exp_service, exp_storage, exp_system, exp_tier,
    exp_trace,
};

type Experiment = (&'static str, fn());

const EXPERIMENTS: &[Experiment] = &[
    ("e1", exp_acquisition::e1_sampling_bandwidth),
    ("e2", exp_acquisition::e2_sampling_vs_compression),
    ("e3", exp_acquisition::e3_multibasis),
    ("e4", exp_storage::e4_needed_items_bound),
    ("e5", exp_storage::e5_tensor_allocation),
    ("e6", exp_storage::e6_progressive_retrieval),
    ("e7", exp_propolyne::e7_lazy_transform),
    ("e8", exp_propolyne::e8_exact_aggregates),
    ("e9", exp_propolyne::e9_progressive_accuracy),
    ("e10", exp_propolyne::e10_data_vs_query_approximation),
    ("e11", exp_propolyne::e11_hybrid),
    ("e12", exp_propolyne::e12_batch_sharing),
    ("e13", exp_adhd::e13_adhd_classification),
    ("e14", exp_adhd::e14_adhd_queries),
    ("e15", exp_online::e15_similarity_measures),
    ("e16", exp_online::e16_isolation),
    ("e17", exp_online::e17_svd_from_propolyne),
    ("e18", exp_online::e18_incremental_svd),
    ("e19", exp_system::e19_end_to_end),
    ("e20", exp_extensions::e20_batch_error_norms),
    ("e21", exp_extensions::e21_incremental_recognizer),
    ("e22", exp_extensions::e22_random_projection),
    ("e23", exp_extensions::e23_packet_basis),
    ("e25", exp_faults::e25_fault_degradation),
    ("e26", exp_ingest_faults::e26_ingest_faults),
    ("e27", exp_service::e27_service_sharing),
    ("e28", exp_trace::e28_tracing_overhead),
    ("e30", exp_durability::e30_durability),
    ("e31", exp_chaos::e31_chaos_qos),
    ("e32", exp_tier::e32_tier),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let selected: Vec<&Experiment> = if args.is_empty() || args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().collect()
    } else {
        let picks: Vec<&Experiment> = EXPERIMENTS
            .iter()
            .filter(|(id, _)| args.iter().any(|a| a == id || a.trim_start_matches("--exp=") == *id))
            .collect();
        if picks.is_empty() {
            eprintln!(
                "unknown experiment selection {:?}; available: {}",
                args,
                EXPERIMENTS.iter().map(|(id, _)| *id).collect::<Vec<_>>().join(", ")
            );
            std::process::exit(2);
        }
        picks
    };

    println!("AIMS reproduction — experiment suite ({} selected)", selected.len());
    let report = aims_bench::TelemetryReport::start();
    let (_, wall) = aims_bench::timed("bench.suite", || {
        for (_, run) in &selected {
            run();
        }
    });
    println!("\n{}", "=".repeat(78));
    println!("completed {} experiments in {wall:.1?}", selected.len());
    report.finish("experiment suite (cumulative)");
}
