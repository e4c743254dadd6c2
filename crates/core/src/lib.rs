//! # dgsf — Disaggregated GPUs for Serverless Functions (reproduction)
//!
//! A full Rust reproduction of *DGSF: Disaggregated GPUs for Serverless
//! Functions* (Fingler et al., IPDPS 2022), built on a deterministic
//! discrete-event simulation of the paper's testbed (V100 GPUs, CUDA
//! runtime, 10 Gb/s network).
//!
//! This facade crate re-exports the whole stack and provides the
//! [`Testbed`] used by examples and the experiment harness:
//!
//! * [`sim`] — discrete-event kernel (virtual time, processes, channels,
//!   processor-sharing resources);
//! * [`gpu`] — simulated GPUs (sparse-backed memory, driver-level VMM,
//!   compute/DMA engines, NVML-style utilization);
//! * [`cuda`] — virtual CUDA runtime (`CudaApi`, contexts, sessions with
//!   VA-preserving live migration, cuDNN/cuBLAS, calibrated costs);
//! * [`remoting`] — the wire protocol, network model, guest library with
//!   serverless-specialized optimizations, and server-side dispatcher;
//! * [`server`] — the disaggregated GPU server (manager, monitor,
//!   API servers, placement policies, migration);
//! * [`serverless`] — the platform substrate (workloads, phases, object
//!   store, invocation paths, arrival processes);
//! * [`workloads`] — the six paper workloads, the synthetic migration
//!   microbenchmark, and a functional K-means.
//!
//! ## Quickstart
//!
//! Configuration goes through one entry point, [`PlatformConfig`]: a
//! builder covering the server shape, the fleet, and the backend's
//! routing and admission policies.
//!
//! ```
//! use dgsf::{PlatformConfig, Testbed};
//! use std::sync::Arc;
//!
//! let cfg = PlatformConfig::paper_default();
//! let w = Arc::new(dgsf::workloads::kmeans());
//! let dgsf_run = Testbed::run_dgsf_once(&cfg.testbed(), w.clone());
//! let native_run = Testbed::run_native_once(1, &cfg.server.costs, w);
//! // DGSF hides the 3.2 s CUDA initialization → often faster than native.
//! assert!(dgsf_run.e2e() < native_run.e2e());
//! ```

#![warn(missing_docs)]

pub mod invariants;
mod platform;
mod testbed;

pub use invariants::{check_backend_run, check_memory_balance, check_resident_handoff};
pub use platform::{ConfigError, PlatformConfig};
pub use testbed::{BackendRunOutput, RunOutput, Testbed, TestbedConfig};

/// Discrete-event simulation substrate.
pub use dgsf_sim as sim;

/// Simulated GPU device model.
pub use dgsf_gpu as gpu;

/// Virtual CUDA runtime.
pub use dgsf_cuda as cuda;

/// API remoting (wire protocol, guest library, dispatcher).
pub use dgsf_remoting as remoting;

/// The disaggregated GPU server.
pub use dgsf_server as server;

/// Serverless platform substrate.
pub use dgsf_serverless as serverless;

/// Evaluation workloads.
pub use dgsf_workloads as workloads;

/// Convenient top-level re-exports of the most used types.
pub mod prelude {
    pub use crate::{
        BackendRunOutput, ConfigError, PlatformConfig, RunOutput, Testbed, TestbedConfig,
    };
    pub use dgsf_cuda::{CostTable, CudaApi, HostBuf, KernelArgs, LaunchConfig, ModuleRegistry};
    pub use dgsf_remoting::{NetProfile, OptConfig};
    pub use dgsf_server::{
        AutoscaleConfig, FleetPolicy, GpuServerConfig, MqfqConfig, PlacementPolicy,
        PredictiveConfig, QueuePolicy, ShedPolicy,
    };
    pub use dgsf_serverless::{
        AdmissionConfig, ArrivalPattern, ClusterBalancer, FailureClass, FairShedConfig,
        InvokeOptions, Invoker, Phase, PhaseRecorder, Schedule, StickyConfig, Tenanted, Workload,
    };
    pub use dgsf_sim::{Dur, ObsConfig, ObsPlane, ObsReport, Sim, SimTime};
}
