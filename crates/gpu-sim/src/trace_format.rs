//! Kernel-trace serialization for simulator hand-off (paper
//! Section VII-A).
//!
//! SeqPoint "paves the way for network-level simulations of SQNNs": once
//! a handful of representative iterations is known, their kernel traces
//! can be exported and replayed inside a detailed architecture
//! simulator. This module defines a versioned, line-oriented text format
//! (one kernel per line, tab-separated) that round-trips every field of
//! a [`KernelDesc`].
//!
//! ```
//! use gpu_sim::trace_format::{read_trace, write_trace};
//! use gpu_sim::{KernelDesc, KernelKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let trace = vec![KernelDesc::builder("ew_relu_v1", KernelKind::Elementwise)
//!     .flops(1e6).read_bytes(4e6).write_bytes(4e6).build()];
//! let mut buf = Vec::new();
//! write_trace(&mut buf, &trace)?;
//! let back = read_trace(&buf[..])?;
//! assert_eq!(trace, back);
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

use crate::{KernelDesc, KernelKind};

/// Format magic + version written as the first line.
pub const TRACE_HEADER: &str = "#seqpoint-trace v1";

/// Errors produced when reading a serialized trace.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceFormatError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The header line was missing or of an unsupported version.
    BadHeader {
        /// The offending first line.
        found: String,
    },
    /// A kernel line could not be parsed.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
}

impl fmt::Display for TraceFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFormatError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceFormatError::BadHeader { found } => {
                write!(f, "bad trace header `{found}` (expected `{TRACE_HEADER}`)")
            }
            TraceFormatError::BadRecord { line, reason } => {
                write!(f, "bad trace record at line {line}: {reason}")
            }
        }
    }
}

impl Error for TraceFormatError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceFormatError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceFormatError {
    fn from(e: std::io::Error) -> Self {
        TraceFormatError::Io(e)
    }
}

fn kind_from_label(label: &str) -> Option<KernelKind> {
    KernelKind::all()
        .iter()
        .copied()
        .find(|k| k.label() == label)
}

/// Write `trace` to `w` in the v1 format.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_trace<W: Write>(mut w: W, trace: &[KernelDesc]) -> Result<(), TraceFormatError> {
    writeln!(w, "{TRACE_HEADER}")?;
    for k in trace {
        writeln!(
            w,
            "{}\t{}\t{:e}\t{:e}\t{:e}\t{:e}\t{:e}\t{:e}\t{:e}\t{:e}\t{:e}\t{:e}",
            k.name(),
            k.kind().label(),
            k.flops(),
            k.read_bytes(),
            k.write_bytes(),
            k.footprint_bytes(),
            k.l1_locality(),
            k.l1_working_set(),
            k.l2_locality(),
            k.l2_working_set(),
            k.workgroups(),
            k.efficiency(),
        )?;
    }
    Ok(())
}

/// Read a v1 trace from `r`.
///
/// # Errors
///
/// Returns [`TraceFormatError`] on I/O failure, a bad header, or a
/// malformed record.
pub fn read_trace<R: Read>(r: R) -> Result<Vec<KernelDesc>, TraceFormatError> {
    let mut lines = BufReader::new(r).lines();
    let header = lines.next().transpose()?.unwrap_or_default();
    if header.trim() != TRACE_HEADER {
        return Err(TraceFormatError::BadHeader { found: header });
    }
    let mut trace = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        let line_no = i + 2;
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let &[name, kind, flops, read, write, footprint, l1_loc, l1_ws, l2_loc, l2_ws, wgs, eff] =
            fields.as_slice()
        else {
            return Err(TraceFormatError::BadRecord {
                line: line_no,
                reason: format!("expected 12 tab-separated fields, got {}", fields.len()),
            });
        };
        let kind = kind_from_label(kind).ok_or_else(|| TraceFormatError::BadRecord {
            line: line_no,
            reason: format!("unknown kernel kind `{kind}`"),
        })?;
        let num = |idx: usize, field: &str| -> Result<f64, TraceFormatError> {
            field
                .parse::<f64>()
                .map_err(|e| TraceFormatError::BadRecord {
                    line: line_no,
                    reason: format!("field {idx}: {e}"),
                })
        };
        trace.push(
            KernelDesc::builder(name.to_owned(), kind)
                .flops(num(2, flops)?)
                .read_bytes(num(3, read)?)
                .write_bytes(num(4, write)?)
                .footprint_bytes(num(5, footprint)?)
                .l1_reuse(num(6, l1_loc)?, num(7, l1_ws)?)
                .l2_reuse(num(8, l2_loc)?, num(9, l2_ws)?)
                .workgroups(num(10, wgs)?)
                .efficiency(num(11, eff)?)
                .build(),
        );
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::GemmShape;
    use crate::AutotuneTable;
    use crate::GpuConfig;

    fn sample_trace() -> Vec<KernelDesc> {
        let cfg = GpuConfig::vega_fe();
        let mut tuner = AutotuneTable::new();
        vec![
            tuner.gemm(&cfg, GemmShape::new(1024, 512, 2048)),
            crate::elementwise::map("tanh", 1 << 20, 4.0, 1),
            crate::reduce::softmax(64, 36_549),
            crate::memops::gather(4096, 4096, 64 << 20),
        ]
    }

    #[test]
    fn round_trip_preserves_every_kernel() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn round_trip_preserves_timing() {
        let cfg = GpuConfig::vega_fe();
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        for (a, b) in trace.iter().zip(&back) {
            assert_eq!(
                crate::kernel_time(&cfg, a),
                crate::kernel_time(&cfg, b),
                "timing must survive serialization"
            );
        }
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_trace(&b"not a trace\n"[..]).unwrap_err();
        assert!(matches!(err, TraceFormatError::BadHeader { .. }));
    }

    #[test]
    fn rejects_malformed_records() {
        let input = format!("{TRACE_HEADER}\nonly\tthree\tfields\n");
        let err = read_trace(input.as_bytes()).unwrap_err();
        match err {
            TraceFormatError::BadRecord { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn rejects_unknown_kind() {
        let input = format!("{TRACE_HEADER}\nk\tnonsense\t0\t0\t0\t0\t0\t0\t0\t0\t1\t0.5\n");
        let err = read_trace(input.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("nonsense"));
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("\n# trailing comment\n\n");
        let back = read_trace(text.as_bytes()).unwrap();
        assert_eq!(back.len(), trace.len());
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        assert!(read_trace(&buf[..]).unwrap().is_empty());
    }
}
