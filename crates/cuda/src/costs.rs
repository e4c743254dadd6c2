//! Calibrated cost table for the virtual CUDA stack.
//!
//! Every number below either comes straight from the paper's text (§V-C,
//! §VIII) or was calibrated so the reproduced experiments land in the same
//! regime as the published ones. `EXPERIMENTS.md` records the mapping from
//! these constants to paper-reported values.

use dgsf_gpu::MB;
use dgsf_sim::Dur;

/// Calibrated latencies, footprints and bandwidths of the CUDA stack.
#[derive(Debug, Clone)]
pub struct CostTable {
    /// CUDA runtime/context initialization. Paper §V-C: "takes on average
    /// 3.2 seconds", varying 2.8–3.6 s across machines.
    pub cuda_init: Dur,
    /// Device memory held by an initialized CUDA context (§V-C: ~303 MB).
    pub cuda_ctx_mem: u64,
    /// `cudnnCreate` latency (§V-C: ~1.2 s).
    pub cudnn_create: Dur,
    /// Device memory held by a cuDNN handle. The paper says "around 386 MB"
    /// but also that the idle worker total is 755 MB; we use 382 MB so the
    /// total matches the reported 755 MB.
    pub cudnn_mem: u64,
    /// `cublasCreate` latency (§V-C: ~0.2 s).
    pub cublas_create: Dur,
    /// Device memory held by a cuBLAS handle (§V-C: ~70 MB).
    pub cublas_mem: u64,
    /// Host-side cost of one locally executed CUDA API call.
    pub native_call_overhead: Dur,
    /// Host-side cost of creating a cuDNN descriptor (a small host
    /// allocation).
    pub descriptor_create: Dur,
    /// Host-side launch overhead of one kernel (driver work, not GPU time).
    pub kernel_launch_overhead: Dur,
    /// On-device `cudaMemset` bandwidth, bytes/s.
    pub memset_bw: f64,
    /// Device-to-device copy bandwidth per DMA channel during migration,
    /// bytes/s. Calibrated against Table V (≈7 GB/s).
    pub d2d_bw_per_channel: f64,
    /// Number of DMA channels migration can spread allocations across.
    /// With >1 allocation, copies overlap — this is why Table II's
    /// multi-allocation migrations are faster per byte than Table V's
    /// single-array worst case.
    pub d2d_channels: u32,
    /// Re-creating cuDNN/cuBLAS library state on the destination context
    /// during migration (descriptor translation, workspace re-plan).
    pub migration_lib_recreate: Dur,
    /// Fixed cost of stopping the API server's handler threads and waiting
    /// for pending operations during a *forced, mid-execution* migration.
    /// Overlaps with the D2D copy — Table V's migration times follow
    /// `max(stop, copy)`: 0.50 s at 323 MB and 0.53 s at 3514 MB, then
    /// copy-dominated above.
    pub migration_stop: Dur,
}

impl Default for CostTable {
    fn default() -> Self {
        CostTable {
            cuda_init: Dur::from_secs_f64(3.2),
            cuda_ctx_mem: 303 * MB,
            cudnn_create: Dur::from_secs_f64(1.2),
            cudnn_mem: 382 * MB,
            cublas_create: Dur::from_secs_f64(0.2),
            cublas_mem: 70 * MB,
            native_call_overhead: Dur::from_micros(2),
            descriptor_create: Dur::from_micros(1),
            kernel_launch_overhead: Dur::from_micros(5),
            memset_bw: 700.0e9,
            d2d_bw_per_channel: 7.0e9,
            d2d_channels: 2,
            migration_lib_recreate: Dur::from_secs_f64(0.4),
            migration_stop: Dur::from_secs_f64(0.45),
        }
    }
}

impl CostTable {
    /// Device memory an idle, fully warmed DGSF API worker occupies:
    /// context + one cuDNN handle + one cuBLAS handle. The paper reports
    /// 755 MB (§V-C).
    pub fn idle_worker_mem(&self) -> u64 {
        self.cuda_ctx_mem + self.cudnn_mem + self.cublas_mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_worker_footprint_matches_paper() {
        let c = CostTable::default();
        assert_eq!(c.idle_worker_mem(), 755 * MB);
    }

    #[test]
    fn init_latency_matches_paper() {
        let c = CostTable::default();
        assert!((c.cuda_init.as_secs_f64() - 3.2).abs() < 1e-9);
        assert!((c.cudnn_create.as_secs_f64() - 1.2).abs() < 1e-9);
        assert!((c.cublas_create.as_secs_f64() - 0.2).abs() < 1e-9);
    }
}
