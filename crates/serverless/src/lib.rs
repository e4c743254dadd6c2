//! # dgsf-serverless — the serverless platform substrate
//!
//! The paper deploys DGSF under OpenFaaS and AWS Lambda; this crate is the
//! equivalent substrate: a [`Workload`] abstraction (function bodies written
//! against the interposable CUDA API), per-phase accounting
//! ([`PhaseRecorder`]), an S3-like [`ObjectStore`], the three invocation
//! paths of Table II ([`invoke_native`], [`Invoker`] for DGSF,
//! [`invoke_cpu`]), function DAGs with GPU-resident inter-stage handoff
//! ([`DagWorkload`]), and the arrival processes of the mixed-workload
//! experiments ([`Schedule`]).
//!
//! Cold-start management is out of scope exactly as in the paper (§IV):
//! every invocation assumes a warm execution context.

#![warn(missing_docs)]

mod arrivals;
mod backend;
pub mod cluster;
mod dag;
mod invoke;
mod phases;
mod store;
mod tenant;
mod workload;

pub use arrivals::{ArrivalPattern, Schedule};
pub use backend::{AdmissionConfig, Backend, MAX_ATTEMPTS};
pub use cluster::{ClusterBalancer, StickyConfig};
pub use dag::{DagStage, DagWorkload, HandoffMode};
pub use dgsf_server::{FleetPolicy, ShedPolicy};
pub use invoke::{
    invoke_cpu, invoke_native, DagResult, FailureClass, FunctionResult, InvokeFailure,
    InvokeOptions, Invoker,
};
pub use phases::{phase, Phase, PhaseRecorder};
pub use store::ObjectStore;
pub use tenant::{FairRefusal, FairShedConfig, FairShedder, Tenanted};
pub use workload::Workload;
