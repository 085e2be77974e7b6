//! SeqPoint-trace export for architecture-simulator hand-off (paper
//! Section VII-A).
//!
//! Detailed GPU simulators cannot run hours of SQNN training, but they
//! *can* replay a handful of representative iterations. This module
//! writes one kernel-trace file per SeqPoint (in the
//! [`gpu_sim::trace_format`] v1 format) plus a manifest recording each
//! trace's sequence length and epoch weight, so a downstream simulator
//! can reconstruct whole-training statistics with Eq. 1.

use std::fs;
use std::path::{Path, PathBuf};

use gpu_sim::{trace_format, AutotuneTable, GpuConfig};
use seqpoint_core::SeqPointSet;
use sqnn::{IterationShape, Network};

use crate::ProfileError;

/// Manifest + trace files written by [`export_seqpoint_traces`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportedBundle {
    /// Path of the manifest file.
    pub manifest: PathBuf,
    /// One trace file per SeqPoint, in SeqPoint order.
    pub traces: Vec<PathBuf>,
}

/// File name of the bundle manifest.
pub const MANIFEST_NAME: &str = "seqpoints.manifest";

/// Export one kernel-trace file per SeqPoint of `set` into `dir`.
///
/// The manifest lists, per line: `trace-file  seq_len  weight`.
///
/// # Errors
///
/// [`ProfileError::Io`] when any file cannot be written.
pub fn export_seqpoint_traces(
    dir: impl AsRef<Path>,
    network: &Network,
    batch: u32,
    set: &SeqPointSet,
    cfg: &GpuConfig,
) -> Result<ExportedBundle, ProfileError> {
    let dir = dir.as_ref();
    let io_err = |path: &Path| {
        let path = path.display().to_string();
        move |e: std::io::Error| ProfileError::Io {
            path: path.clone(),
            message: e.to_string(),
        }
    };
    fs::create_dir_all(dir).map_err(io_err(dir))?;
    let mut tuner = AutotuneTable::new();
    let mut manifest = String::new();
    let mut traces = Vec::with_capacity(set.len());
    for point in set.points() {
        let name = format!("seqpoint_sl{:05}.trace", point.seq_len);
        let file = dir.join(&name);
        let trace =
            network.iteration_trace(&IterationShape::new(batch, point.seq_len), cfg, &mut tuner);
        let mut buf = Vec::new();
        trace_format::write_trace(&mut buf, &trace).map_err(|e| ProfileError::Io {
            path: file.display().to_string(),
            message: e.to_string(),
        })?;
        fs::write(&file, buf).map_err(io_err(&file))?;
        manifest.push_str(&format!("{name}\t{}\t{}\n", point.seq_len, point.weight));
        traces.push(file);
    }
    let manifest_path = dir.join(MANIFEST_NAME);
    fs::write(&manifest_path, manifest).map_err(io_err(&manifest_path))?;
    Ok(ExportedBundle {
        manifest: manifest_path,
        traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;
    use seqpoint_core::SeqPoint;
    use sqnn::models::gnmt_with;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("seqpoint-export-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_set() -> SeqPointSet {
        SeqPointSet::from_points(vec![
            SeqPoint {
                seq_len: 8,
                stat: 0.1,
                weight: 30,
            },
            SeqPoint {
                seq_len: 32,
                stat: 0.3,
                weight: 10,
            },
        ])
    }

    #[test]
    fn bundle_contains_one_trace_per_seqpoint() {
        let dir = tmp_dir("bundle");
        let net = gnmt_with(500, 64);
        let cfg = GpuConfig::vega_fe();
        let bundle = export_seqpoint_traces(&dir, &net, 4, &small_set(), &cfg).unwrap();
        assert_eq!(bundle.traces.len(), 2);
        let manifest = fs::read_to_string(&bundle.manifest).unwrap();
        assert_eq!(manifest.lines().count(), 2);
        assert!(manifest.contains("\t8\t30"));
        assert!(manifest.contains("\t32\t10"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn exported_traces_replay_identically() {
        let dir = tmp_dir("replay");
        let net = gnmt_with(500, 64);
        let cfg = GpuConfig::vega_fe();
        let device = Device::new(cfg.clone());
        let bundle = export_seqpoint_traces(&dir, &net, 4, &small_set(), &cfg).unwrap();
        // Replaying the file reproduces the direct simulation exactly.
        let mut tuner = AutotuneTable::new();
        let direct = net.iteration_trace(&IterationShape::new(4, 8), &cfg, &mut tuner);
        let replayed =
            gpu_sim::trace_format::read_trace(fs::File::open(&bundle.traces[0]).unwrap()).unwrap();
        assert_eq!(
            device.run_trace(&direct).total_time_s(),
            device.run_trace(&replayed).total_time_s()
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
