//! `repro` — regenerate every table and figure of the SeqPoint paper.
//!
//! ```text
//! repro [--quick] [--out DIR] [--only LIST] [--online] [--shards N] [--checkpoint]
//!
//!   --quick      reduced dataset scale (default: paper scale)
//!   --out DIR    results directory (default: results)
//!   --only LIST  comma-separated subset of artifact keys (see --help)
//!   --online     run only the streaming online-selection comparison
//!                (shorthand for --only streaming)
//!   --shards N   worker shards for the streaming runs (default 4)
//!   --checkpoint persist the streaming runs' state under
//!                DIR/checkpoints and verify the resume path
//! ```
//!
//! Each experiment prints its table to stdout and archives it as CSV
//! under the results directory.

use std::collections::BTreeSet;
use std::time::Instant;

use seqpoint_experiments::{
    ablations, extensions, fig03, fig04, fig05, fig06, fig07, fig08, fig09, kmeans_ablation,
    larger_datasets, profiling_speedup, projection, sensitivity, speedup, streaming, table1,
    table2, Net, Workloads,
};
use sqnn_profiler::report::Table;

/// Every artifact `repro` can emit: canonical key (also the CSV file
/// stem), accepted aliases, and what it regenerates.
const ARTIFACTS: &[(&str, &[&str], &str)] = &[
    ("table2", &[], "Table II — hardware configurations"),
    ("fig03", &[], "Fig. 3 — CNN vs SQNN iteration homogeneity"),
    (
        "fig04",
        &[],
        "Fig. 4 — architectural statistics across iterations",
    ),
    ("table1", &[], "Table I — GEMM dimensions across iterations"),
    (
        "fig05",
        &[],
        "Fig. 5 — unique-kernel overlap between iterations",
    ),
    ("fig06", &[], "Fig. 6 — kernel runtime distribution by SL"),
    ("fig07", &[], "Fig. 7 — sequence-length histograms"),
    (
        "fig08",
        &[],
        "Fig. 8 — execution-profile similarity of close SLs",
    ),
    ("fig09", &[], "Fig. 9 — runtime vs SL linearity"),
    (
        "fig11",
        &[],
        "Fig. 11 — DS2 training-time projection errors",
    ),
    (
        "fig12",
        &[],
        "Fig. 12 — GNMT training-time projection errors",
    ),
    ("fig13", &[], "Fig. 13 — GNMT per-SL sensitivity"),
    ("fig14", &[], "Fig. 14 — DS2 per-SL sensitivity"),
    ("fig15", &[], "Fig. 15 — DS2 speedup projection errors"),
    ("fig16", &[], "Fig. 16 — GNMT speedup projection errors"),
    (
        "profiling_speedup",
        &["profiling"],
        "§VI-F — profiling-time reduction factors",
    ),
    (
        "larger_datasets",
        &["larger"],
        "§VI-F — larger-dataset scaling",
    ),
    (
        "kmeans_ablation",
        &["kmeans"],
        "§VII-C — k-means vs SL binning",
    ),
    (
        "ablations",
        &[],
        "Fig. 10 design choices — representative rule, binning, e, prior window",
    ),
    (
        "extensions",
        &[],
        "§VII-B/E — Transformer and inference binning",
    ),
    (
        "streaming",
        &["online"],
        "extension — sharded online selection vs full epoch",
    ),
];

fn canonical_key(key: &str) -> Option<&'static str> {
    ARTIFACTS
        .iter()
        .find(|(id, aliases, _)| *id == key || aliases.contains(&key))
        .map(|(id, _, _)| *id)
}

fn print_help() {
    println!(
        "repro [--quick] [--out DIR] [--only LIST] [--online] [--shards N] [--checkpoint]\n\n\
         --quick      reduced dataset scale (default: paper scale)\n\
         --out DIR    results directory (default: results)\n\
         --only LIST  comma-separated subset of the artifact keys below\n\
         --online     run only the streaming online-selection comparison\n\
         --shards N   worker shards for the streaming runs (default 4)\n\
         --checkpoint persist streaming-run state under DIR/checkpoints\n\
                      (atomic, resumable) and verify the resume path\n\n\
         Artifact keys:"
    );
    for (id, aliases, desc) in ARTIFACTS {
        let alias = if aliases.is_empty() {
            String::new()
        } else {
            format!(" (alias: {})", aliases.join(", "))
        };
        println!("  {id:<18}{desc}{alias}");
    }
}

struct Args {
    quick: bool,
    out: String,
    only: Option<BTreeSet<String>>,
    shards: usize,
    checkpoint: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        out: "results".to_owned(),
        only: None,
        shards: 4,
        checkpoint: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--out" => {
                args.out = it.next().unwrap_or_else(|| {
                    eprintln!("--out requires a directory");
                    std::process::exit(2);
                })
            }
            "--only" => {
                let list = it.next().unwrap_or_else(|| {
                    eprintln!("--only requires a comma-separated list");
                    std::process::exit(2);
                });
                let set = args.only.get_or_insert_with(BTreeSet::new);
                for key in list.split(',').map(|s| s.trim().to_lowercase()) {
                    match canonical_key(&key) {
                        Some(id) => {
                            set.insert(id.to_owned());
                        }
                        None => {
                            let known: Vec<&str> = ARTIFACTS.iter().map(|(id, _, _)| *id).collect();
                            eprintln!(
                                "unknown --only key `{key}`; valid keys are: {}",
                                known.join(", ")
                            );
                            std::process::exit(2);
                        }
                    }
                }
            }
            "--checkpoint" => args.checkpoint = true,
            "--online" => {
                args.only
                    .get_or_insert_with(BTreeSet::new)
                    .insert("streaming".to_owned());
            }
            "--shards" => {
                let value = it.next().unwrap_or_else(|| {
                    eprintln!("--shards requires a positive count");
                    std::process::exit(2);
                });
                args.shards = value.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                    eprintln!("--shards: cannot parse `{value}` as a positive count");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let wants = |id: &str| args.only.as_ref().is_none_or(|set| set.contains(id));
    let mut w = if args.quick {
        println!("# SeqPoint reproduction (QUICK scale)\n");
        Workloads::quick()
    } else {
        println!("# SeqPoint reproduction (paper scale)\n");
        Workloads::paper()
    };

    let emit = |id: &str, table: &Table, out: &str| {
        println!("{}", table.to_markdown());
        let path = format!("{out}/{id}.csv");
        if let Err(e) = table.write_csv(&path) {
            eprintln!("warning: {e}");
        }
    };

    let t0 = Instant::now();
    if wants("table2") {
        emit("table2", &table2::run(&w).table, &args.out);
    }
    if wants("fig03") {
        emit("fig03", &fig03::run(&mut w).table, &args.out);
    }
    if wants("fig04") {
        emit("fig04", &fig04::run(&mut w).table, &args.out);
    }
    if wants("table1") {
        emit("table1", &table1::run(&mut w).table, &args.out);
    }
    if wants("fig05") {
        emit("fig05", &fig05::run(&mut w).table, &args.out);
    }
    if wants("fig06") {
        emit("fig06", &fig06::run(&mut w).table, &args.out);
    }
    if wants("fig07") {
        emit("fig07", &fig07::run(&mut w).table, &args.out);
    }
    if wants("fig08") {
        emit("fig08", &fig08::run(&mut w).table, &args.out);
    }
    if wants("fig09") {
        emit("fig09", &fig09::run(&mut w).table, &args.out);
    }
    if wants("fig11") {
        emit("fig11", &projection::run(&mut w, Net::Ds2).table, &args.out);
    }
    if wants("fig12") {
        emit(
            "fig12",
            &projection::run(&mut w, Net::Gnmt).table,
            &args.out,
        );
    }
    if wants("fig13") {
        emit(
            "fig13",
            &sensitivity::run(&mut w, Net::Gnmt).table,
            &args.out,
        );
    }
    if wants("fig14") {
        emit(
            "fig14",
            &sensitivity::run(&mut w, Net::Ds2).table,
            &args.out,
        );
    }
    if wants("fig15") {
        emit("fig15", &speedup::run(&mut w, Net::Ds2).table, &args.out);
    }
    if wants("fig16") {
        emit("fig16", &speedup::run(&mut w, Net::Gnmt).table, &args.out);
    }
    if wants("profiling_speedup") {
        emit(
            "profiling_speedup",
            &profiling_speedup::run(&mut w).table,
            &args.out,
        );
    }
    if wants("larger_datasets") {
        // Large datasets are sampled at 1/8 scale to keep the run short;
        // the small:large ratio (and thus the speedup scaling) holds.
        let scale = if args.quick { 1.0 } else { 0.125 };
        emit(
            "larger_datasets",
            &larger_datasets::run(&mut w, scale).table,
            &args.out,
        );
    }
    if wants("kmeans_ablation") {
        emit(
            "kmeans_ablation",
            &kmeans_ablation::run(&mut w).table,
            &args.out,
        );
    }
    if wants("ablations") {
        emit("ablations", &ablations::run(&mut w), &args.out);
    }
    if wants("extensions") {
        emit("extensions", &extensions::run(&mut w).table, &args.out);
    }
    if wants("streaming") {
        let checkpoint_dir = args
            .checkpoint
            .then(|| std::path::PathBuf::from(&args.out).join("checkpoints"));
        emit(
            "streaming",
            &streaming::run(&mut w, args.shards, checkpoint_dir.as_deref()).table,
            &args.out,
        );
    }
    println!(
        "\n_All requested experiments regenerated in {:.1} s; CSVs under `{}/`._",
        t0.elapsed().as_secs_f64(),
        args.out
    );
}
