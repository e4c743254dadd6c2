//! The synthetic GPU function the load experiments drive.

use std::sync::Arc;

use dgsf::cuda::{CudaResult, KernelDef};
use dgsf::prelude::*;

/// A synthetic function with a `mem`-byte footprint and no download:
/// `host` of host-side work (API server busy, GPU free), then `chunks`
/// timed kernels of `chunk_secs` GPU seconds, each followed by a sync —
/// an API boundary where the monitor can land a live migration.
pub(crate) struct Spin {
    pub(crate) name: &'static str,
    pub(crate) host: Dur,
    pub(crate) chunks: usize,
    pub(crate) chunk_secs: f64,
    pub(crate) mem: u64,
}

impl Spin {
    /// One `secs`-long kernel, no host work.
    pub(crate) fn new(name: &'static str, secs: f64, mem: u64) -> Spin {
        Spin {
            name,
            host: Dur::ZERO,
            chunks: 1,
            chunk_secs: secs,
            mem,
        }
    }
}

impl Workload for Spin {
    fn name(&self) -> &str {
        self.name
    }
    fn registry(&self) -> Arc<ModuleRegistry> {
        Arc::new(ModuleRegistry::new().with(KernelDef::timed("k")))
    }
    fn required_gpu_mem(&self) -> u64 {
        self.mem
    }
    fn download_bytes(&self) -> u64 {
        0
    }
    fn run(
        &self,
        p: &dgsf::sim::ProcCtx,
        api: &mut dyn CudaApi,
        rec: &mut PhaseRecorder,
    ) -> CudaResult<()> {
        rec.enter(p, dgsf::serverless::phase::PROCESSING);
        if self.host > Dur::ZERO {
            p.sleep(self.host);
        }
        for _ in 0..self.chunks {
            api.launch_kernel(
                p,
                "k",
                LaunchConfig::linear(1, 32),
                KernelArgs::timed(self.chunk_secs, 0),
            )?;
            api.device_synchronize(p)?;
        }
        rec.close(p);
        Ok(())
    }
    fn cpu_secs(&self) -> f64 {
        30.0
    }
}
