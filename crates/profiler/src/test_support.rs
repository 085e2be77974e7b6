//! Helpers shared by the `stream` and `pipeline` unit tests.

use std::path::{Path, PathBuf};

use sqnn::IterationShape;

use crate::stream::{tmp_sibling, RoundExecutor, ShardChunk, ShardReport, ThreadExecutor};
use crate::{IterationProfile, ProfileError};

/// A unique, self-cleaning checkpoint path under the temp dir.
pub(crate) struct TempCheckpoint(PathBuf);

impl TempCheckpoint {
    /// A fresh path for `tag`, which must be unique within the test
    /// binary (tests share one process id).
    pub(crate) fn new(tag: &str) -> Self {
        let mut path = std::env::temp_dir();
        path.push(format!("seqpoint-ckpt-{}-{tag}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        TempCheckpoint(path)
    }

    pub(crate) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempCheckpoint {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(tmp_sibling(&self.0));
    }
}

/// Wraps the in-process executor and loses its workers on the
/// `fail_on`-th `execute_round` call (1-based; `0` never fails).
pub(crate) struct FlakyExecutor<'a> {
    inner: ThreadExecutor<'a>,
    calls: usize,
    fail_on: usize,
}

impl<'a> FlakyExecutor<'a> {
    pub(crate) fn new(inner: ThreadExecutor<'a>, fail_on: usize) -> Self {
        FlakyExecutor {
            inner,
            calls: 0,
            fail_on,
        }
    }
}

impl RoundExecutor for FlakyExecutor<'_> {
    fn execute_round(&mut self, chunks: &[ShardChunk]) -> Result<Vec<ShardReport>, ProfileError> {
        self.calls += 1;
        if self.calls == self.fail_on {
            return Err(ProfileError::Executor {
                message: "injected worker loss".to_owned(),
            });
        }
        self.inner.execute_round(chunks)
    }

    fn profile_shape(&mut self, shape: IterationShape) -> Result<IterationProfile, ProfileError> {
        self.inner.profile_shape(shape)
    }

    fn profile_shapes(
        &mut self,
        shapes: &[IterationShape],
    ) -> Result<Vec<IterationProfile>, ProfileError> {
        self.inner.profile_shapes(shapes)
    }

    fn seed_shapes(&mut self, shapes: &[IterationProfile]) {
        self.inner.seed_shapes(shapes);
    }
}
