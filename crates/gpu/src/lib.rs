//! # dgsf-gpu — simulated GPU device model
//!
//! Substitute for the NVIDIA V100s of the paper's testbed. A [`Gpu`] owns
//!
//! * **memory**: capacity accounting plus a table of physical allocations
//!   whose bytes live in a sparse, fill-compressed [`PageStore`] (so a 13 GB
//!   `cudaMemset` costs O(1) host memory while functional kernels still read
//!   and write real data),
//! * **VMM**: the driver-level virtual-memory API ([`VaSpace`],
//!   `cuMemCreate`-style [`PhysId`] handles) that DGSF's VA-preserving live
//!   migration is built on,
//! * **engines**: a processor-sharing compute engine and PCIe/DMA engine
//!   backed by [`dgsf_sim::GpsResource`], and
//! * **telemetry**: busy timelines from which NVML-style utilization samples
//!   are produced (Figure 7/8 of the paper).

#![warn(missing_docs)]

mod device;
mod pagestore;
mod vmm;

pub use device::{DeviceProps, Gpu, GpuId, OutOfMemory, PhysAlloc, ReservationId, GB, MB};
pub use pagestore::{PageStore, PAGE_SIZE};
pub use vmm::{Mapping, PhysId, VaRange, VaSpace, VmmError, VA_BASE, VA_GRANULARITY};
