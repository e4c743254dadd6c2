//! CUDA contexts and their stream executors.
//!
//! A [`CudaContext`] is bound to one physical GPU and owns everything whose
//! *values* are context-specific in real CUDA: kernel function pointers,
//! stream/event handles, and cuDNN/cuBLAS library handles (with their device
//! memory footprints). DGSF's API servers keep one context per GPU and
//! translate client-visible handles to per-context twins on migration
//! (paper §V-D); [`crate::GpuSession`] implements that translation.
//!
//! Each context runs one **stream executor per stream** — simulated
//! processes that drain in-order queues of kernel launches, library ops and
//! memsets against the context's GPU. Launches are therefore asynchronous to
//! the caller (as in CUDA), work on different streams of the same context
//! overlaps (contending on the GPU's processor-sharing compute engine, as
//! under Hyper-Q), co-located contexts contend the same way, and
//! `cudaDeviceSynchronize` / `cudaStreamSynchronize` are real rendezvous.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dgsf_gpu::{Gpu, PhysId, ReservationId, VaSpace};
use dgsf_sim::{ProcCtx, SimHandle, SimSender};
use parking_lot::Mutex;

use crate::costs::CostTable;
use crate::error::{CudaError, CudaResult};
use crate::module::ModuleRegistry;
use crate::types::{DevPtr, KernelArgs, LaunchConfig};
use crate::view::DeviceView;

static NEXT_CTX_ID: AtomicU64 = AtomicU64::new(1);

/// Commands accepted by a context's stream executor, in order.
pub(crate) enum StreamCmd {
    /// Launch a kernel.
    Exec {
        name: String,
        cfg: LaunchConfig,
        args: KernelArgs,
        va: Arc<Mutex<VaSpace>>,
        registry: Arc<ModuleRegistry>,
    },
    /// An aggregate cuDNN/cuBLAS operation costing `work` GPU-seconds.
    LibOp { work: f64 },
    /// Asynchronous device memset.
    Memset {
        va: Arc<Mutex<VaSpace>>,
        ptr: DevPtr,
        len: u64,
        value: u8,
    },
    /// Rendezvous: reply once all prior commands have retired.
    Sync { done: SimSender<()> },
}

/// A device buffer parked in a context's resident store between DAG
/// stages: the physical allocation survives while no session maps it.
#[derive(Debug, Clone, Copy)]
pub struct ResidentBuf {
    /// Physical allocation handle on the context's GPU.
    pub phys: PhysId,
    /// Bytes the publishing session originally requested.
    pub requested: u64,
    /// Bytes actually mapped (requested rounded up to VA granularity).
    pub mapped: u64,
}

/// Audit-log entry for the resident store — the raw material of the
/// leak/exactly-once oracle: every `Published` key must later appear as
/// exactly one `Adopted` or `Reclaimed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidentEvent {
    /// A session parked a buffer under `key` without freeing its physical
    /// allocation.
    Published {
        /// Handoff key.
        key: u64,
        /// Mapped bytes parked.
        bytes: u64,
    },
    /// A (possibly different) session mapped the parked buffer into its
    /// own VA space and took ownership.
    Adopted {
        /// Handoff key.
        key: u64,
        /// Mapped bytes adopted.
        bytes: u64,
    },
    /// The buffer was freed without ever being adopted — on explicit
    /// reclaim after a DAG abort, or at context teardown.
    Reclaimed {
        /// Handoff key.
        key: u64,
        /// Mapped bytes returned to the GPU.
        bytes: u64,
    },
}

/// A CUDA context bound to one physical GPU.
pub struct CudaContext {
    /// Globally unique context id.
    pub id: u64,
    gpu: Arc<Gpu>,
    costs: Arc<CostTable>,
    handle: SimHandle,
    ctx_reservation: Mutex<Option<ReservationId>>,
    next_handle: AtomicU64,
    fptrs: Mutex<HashMap<String, u64>>,
    fptr_names: Mutex<HashMap<u64, String>>,
    streams: Mutex<HashSet<u64>>,
    events: Mutex<HashSet<u64>>,
    /// Library handles; `None` reservation for pooled handles whose memory
    /// is pre-reserved in the owning API server's idle footprint.
    cudnn: Mutex<HashMap<u64, Option<ReservationId>>>,
    cublas: Mutex<HashMap<u64, Option<ReservationId>>>,
    /// One in-order executor per stream; key 0 is the default stream.
    /// Streams of the same context contend on the GPU's processor-sharing
    /// compute engine, so independent streams genuinely overlap.
    engines: Mutex<HashMap<u64, SimSender<StreamCmd>>>,
    /// GPU-resident handoff buffers parked between DAG stages, keyed by
    /// the handoff key chosen by the publisher. The context outlives the
    /// sessions that come and go on it, so a buffer published here stays
    /// on-device across function invocations.
    resident: Mutex<HashMap<u64, ResidentBuf>>,
    /// Append-only audit log of resident-store traffic.
    resident_log: Mutex<Vec<ResidentEvent>>,
}

/// The default stream's key in the engine table.
pub const DEFAULT_STREAM: u64 = 0;

impl CudaContext {
    /// Create a context on `gpu`, reserving its ~303 MB footprint.
    ///
    /// If `pay_init` is true the calling process sleeps for the CUDA
    /// runtime initialization latency (≈3.2 s) — the cost a native
    /// application pays on its critical path, and an API-server pool pays
    /// off the critical path at provisioning time.
    pub fn create(
        proc: &ProcCtx,
        h: &SimHandle,
        gpu: Arc<Gpu>,
        costs: Arc<CostTable>,
        pay_init: bool,
    ) -> CudaResult<Arc<CudaContext>> {
        if pay_init {
            proc.sleep(costs.cuda_init);
        }
        let reservation = gpu.reserve(costs.cuda_ctx_mem)?;
        let id = NEXT_CTX_ID.fetch_add(1, Ordering::Relaxed);
        let tx = spawn_stream_engine(h, &gpu, &costs, &format!("ctx{id}-default"));
        let mut engines = HashMap::new();
        engines.insert(DEFAULT_STREAM, tx);
        let ctx = Arc::new(CudaContext {
            id,
            gpu: Arc::clone(&gpu),
            costs: Arc::clone(&costs),
            handle: h.clone(),
            ctx_reservation: Mutex::new(Some(reservation)),
            // Handle values are context-specific: embed the context id so
            // two contexts never hand out the same value (the property the
            // paper's migration translation exists to handle).
            next_handle: AtomicU64::new((id << 32) | 1),
            fptrs: Mutex::new(HashMap::new()),
            fptr_names: Mutex::new(HashMap::new()),
            streams: Mutex::new(HashSet::new()),
            events: Mutex::new(HashSet::new()),
            cudnn: Mutex::new(HashMap::new()),
            cublas: Mutex::new(HashMap::new()),
            engines: Mutex::new(engines),
            resident: Mutex::new(HashMap::new()),
            resident_log: Mutex::new(Vec::new()),
        });
        Ok(ctx)
    }

    /// The physical GPU this context is bound to.
    pub fn gpu(&self) -> &Arc<Gpu> {
        &self.gpu
    }

    /// The calibrated cost table.
    pub fn costs(&self) -> &Arc<CostTable> {
        &self.costs
    }

    /// Enqueue a command on the context's default stream.
    pub(crate) fn submit(&self, proc: &ProcCtx, cmd: StreamCmd) {
        self.submit_on(proc, DEFAULT_STREAM, cmd);
    }

    /// Enqueue a command on a specific native stream. Unknown streams fall
    /// back to the default stream (callers validate handles beforehand).
    pub(crate) fn submit_on(&self, proc: &ProcCtx, stream: u64, cmd: StreamCmd) {
        let tx = {
            let engines = self.engines.lock();
            engines
                .get(&stream)
                .or_else(|| engines.get(&DEFAULT_STREAM))
                .cloned()
                .expect("default stream engine always exists")
        };
        tx.send(proc, cmd);
    }

    /// Block until every previously submitted command on *every* stream has
    /// retired (`cudaDeviceSynchronize`).
    pub fn sync(&self, proc: &ProcCtx) {
        let senders: Vec<SimSender<StreamCmd>> = self.engines.lock().values().cloned().collect();
        let mut waits = Vec::with_capacity(senders.len());
        for tx in senders {
            let (done_tx, done_rx) = self.handle.channel::<()>();
            tx.send(proc, StreamCmd::Sync { done: done_tx });
            waits.push(done_rx);
        }
        for rx in waits {
            let _ = rx.recv(proc);
        }
    }

    /// Block until one native stream's queue has drained
    /// (`cudaStreamSynchronize`).
    pub fn sync_stream(&self, proc: &ProcCtx, stream: u64) {
        let tx = self.engines.lock().get(&stream).cloned();
        if let Some(tx) = tx {
            let (done_tx, done_rx) = self.handle.channel::<()>();
            tx.send(proc, StreamCmd::Sync { done: done_tx });
            let _ = done_rx.recv(proc);
        }
    }

    fn alloc_handle(&self) -> u64 {
        self.next_handle.fetch_add(1, Ordering::Relaxed)
    }

    /// Function pointer of kernel `name` in *this* context (assigned
    /// lazily; distinct across contexts).
    pub fn fptr_for(&self, name: &str) -> u64 {
        let mut f = self.fptrs.lock();
        if let Some(&p) = f.get(name) {
            return p;
        }
        let p = self.alloc_handle();
        f.insert(name.to_string(), p);
        self.fptr_names.lock().insert(p, name.to_string());
        p
    }

    /// Kernel name for a function pointer from this context.
    pub fn kernel_name(&self, fptr: u64) -> Option<String> {
        self.fptr_names.lock().get(&fptr).cloned()
    }

    /// Create a stream in this context with its own in-order executor;
    /// returns the context-local handle.
    pub fn create_stream(&self) -> u64 {
        let s = self.alloc_handle();
        self.streams.lock().insert(s);
        let tx = spawn_stream_engine(
            &self.handle,
            &self.gpu,
            &self.costs,
            &format!("ctx{}-stream{s:x}", self.id),
        );
        self.engines.lock().insert(s, tx);
        s
    }

    /// Destroy a context-local stream handle (its executor exits at
    /// simulation shutdown; pending work was drained by the caller).
    pub fn destroy_stream(&self, s: u64) -> bool {
        self.engines.lock().remove(&s);
        self.streams.lock().remove(&s)
    }

    /// True if `s` is a live stream of this context.
    pub fn has_stream(&self, s: u64) -> bool {
        self.streams.lock().contains(&s)
    }

    /// Create an event in this context.
    pub fn create_event(&self) -> u64 {
        let e = self.alloc_handle();
        self.events.lock().insert(e);
        e
    }

    /// Destroy a context-local event handle.
    pub fn destroy_event(&self, e: u64) -> bool {
        self.events.lock().remove(&e)
    }

    /// Create a cuDNN handle in this context. Pays the ≈1.2 s creation
    /// latency when `pay_time` (pool pre-creation at provisioning and the
    /// unoptimized cold path pass `true`; migration twin creation passes
    /// `false` — memory but no creation latency).
    pub fn create_cudnn_handle(&self, proc: &ProcCtx, pay_time: bool) -> CudaResult<u64> {
        if pay_time {
            proc.sleep(self.costs.cudnn_create);
        }
        let r = self.gpu.reserve(self.costs.cudnn_mem)?;
        let h = self.alloc_handle();
        self.cudnn.lock().insert(h, Some(r));
        Ok(h)
    }

    /// Hand out a cuDNN handle from the API server's pre-created pool: no
    /// creation latency and no *additional* memory (the pool's footprint is
    /// part of the server's idle 755 MB reservation).
    pub fn serve_pooled_cudnn_handle(&self) -> u64 {
        let h = self.alloc_handle();
        self.cudnn.lock().insert(h, None);
        h
    }

    /// Destroy a cuDNN handle, releasing its device footprint (if it owns
    /// one).
    pub fn destroy_cudnn_handle(&self, h: u64) -> CudaResult<()> {
        let r = self
            .cudnn
            .lock()
            .remove(&h)
            .ok_or_else(|| CudaError::InvalidResourceHandle(format!("cudnn {h:#x}")))?;
        if let Some(r) = r {
            self.gpu.release(r);
        }
        Ok(())
    }

    /// Create a cuBLAS handle in this context (≈0.2 s, 70 MB).
    pub fn create_cublas_handle(&self, proc: &ProcCtx, pay_time: bool) -> CudaResult<u64> {
        if pay_time {
            proc.sleep(self.costs.cublas_create);
        }
        let r = self.gpu.reserve(self.costs.cublas_mem)?;
        let h = self.alloc_handle();
        self.cublas.lock().insert(h, Some(r));
        Ok(h)
    }

    /// Pooled cuBLAS analogue of [`CudaContext::serve_pooled_cudnn_handle`].
    pub fn serve_pooled_cublas_handle(&self) -> u64 {
        let h = self.alloc_handle();
        self.cublas.lock().insert(h, None);
        h
    }

    /// Destroy a cuBLAS handle, releasing its device footprint (if it owns
    /// one).
    pub fn destroy_cublas_handle(&self, h: u64) -> CudaResult<()> {
        let r = self
            .cublas
            .lock()
            .remove(&h)
            .ok_or_else(|| CudaError::InvalidResourceHandle(format!("cublas {h:#x}")))?;
        if let Some(r) = r {
            self.gpu.release(r);
        }
        Ok(())
    }

    /// Park a buffer in the resident store under `key`. Fails if the key
    /// is already taken (handoff keys are single-use by construction).
    pub fn publish_resident(&self, key: u64, buf: ResidentBuf) -> CudaResult<()> {
        let mut map = self.resident.lock();
        if map.contains_key(&key) {
            return Err(CudaError::InvalidResourceHandle(format!(
                "resident key {key:#x} already published"
            )));
        }
        map.insert(key, buf);
        self.resident_log.lock().push(ResidentEvent::Published {
            key,
            bytes: buf.mapped,
        });
        Ok(())
    }

    /// Look at the buffer parked under `key` without taking it.
    pub fn resident_peek(&self, key: u64) -> CudaResult<ResidentBuf> {
        self.resident.lock().get(&key).copied().ok_or_else(|| {
            CudaError::InvalidResourceHandle(format!("resident key {key:#x} not published"))
        })
    }

    /// Take ownership of the buffer parked under `key`, logging the
    /// adoption. The caller is now responsible for the physical allocation.
    pub fn take_resident(&self, key: u64) -> CudaResult<ResidentBuf> {
        let buf = self.resident.lock().remove(&key).ok_or_else(|| {
            CudaError::InvalidResourceHandle(format!("resident key {key:#x} not published"))
        })?;
        self.resident_log.lock().push(ResidentEvent::Adopted {
            key,
            bytes: buf.mapped,
        });
        Ok(buf)
    }

    /// Free the buffer parked under `key` without adopting it (DAG abort
    /// path). Returns false if no such buffer is parked here.
    pub fn reclaim_resident(&self, key: u64) -> bool {
        let Some(buf) = self.resident.lock().remove(&key) else {
            return false;
        };
        self.gpu.mem_free(buf.phys);
        self.resident_log.lock().push(ResidentEvent::Reclaimed {
            key,
            bytes: buf.mapped,
        });
        true
    }

    /// Number of buffers currently parked in the resident store.
    pub fn resident_count(&self) -> usize {
        self.resident.lock().len()
    }

    /// Snapshot of the resident-store audit log, in publish/adopt order.
    pub fn resident_events(&self) -> Vec<ResidentEvent> {
        self.resident_log.lock().clone()
    }

    /// Tear the context down: release its footprint and all library handle
    /// reservations, and reclaim any resident buffers never adopted. (The
    /// stream executor exits at simulation shutdown.)
    pub fn release(&self) {
        // Sort for determinism: HashMap iteration order is seeded per
        // process, and reclaim order reaches the GPU free lists and log.
        let mut orphans: Vec<u64> = self.resident.lock().keys().copied().collect();
        orphans.sort_unstable();
        for key in orphans {
            self.reclaim_resident(key);
        }
        if let Some(r) = self.ctx_reservation.lock().take() {
            self.gpu.release(r);
        }
        for (_, r) in self.cudnn.lock().drain() {
            if let Some(r) = r {
                self.gpu.release(r);
            }
        }
        for (_, r) in self.cublas.lock().drain() {
            if let Some(r) = r {
                self.gpu.release(r);
            }
        }
    }
}

/// Spawn an in-order stream executor against `gpu`; returns its inbox.
fn spawn_stream_engine(
    h: &SimHandle,
    gpu: &Arc<Gpu>,
    costs: &Arc<CostTable>,
    label: &str,
) -> SimSender<StreamCmd> {
    let (tx, rx) = h.channel::<StreamCmd>();
    let exec_gpu = Arc::clone(gpu);
    let exec_costs = Arc::clone(costs);
    h.spawn(&format!("stream-exec-{label}"), move |pctx| {
        while let Some(cmd) = rx.recv(pctx) {
            match cmd {
                StreamCmd::Exec {
                    name,
                    cfg,
                    args,
                    va,
                    registry,
                } => {
                    let def = registry
                        .get(&name)
                        .unwrap_or_else(|| panic!("unvalidated kernel {name:?} reached executor"));
                    let work = def.cost.eval(&args);
                    exec_gpu.exec(pctx, work);
                    if let Some(f) = &def.func {
                        let vag = va.lock();
                        let mut view = DeviceView::new(&vag, &exec_gpu);
                        f(&mut view, &cfg, &args);
                    }
                }
                StreamCmd::LibOp { work } => {
                    exec_gpu.exec(pctx, work);
                }
                StreamCmd::Memset {
                    va,
                    ptr,
                    len,
                    value,
                } => {
                    exec_gpu.exec(pctx, len as f64 / exec_costs.memset_bw);
                    let vag = va.lock();
                    let mut view = DeviceView::new(&vag, &exec_gpu);
                    view.fill(ptr, len, value);
                }
                StreamCmd::Sync { done } => {
                    done.send(pctx, ());
                }
            }
        }
    });
    tx
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgsf_gpu::{GpuId, MB};
    use dgsf_sim::{Dur, Sim};

    fn setup(sim: &Sim) -> (SimHandle, Arc<Gpu>, Arc<CostTable>) {
        let h = sim.handle();
        let gpu = Gpu::v100(&h, GpuId(0));
        (h, gpu, Arc::new(CostTable::default()))
    }

    #[test]
    fn create_pays_init_and_reserves_footprint() {
        let mut sim = Sim::new(1);
        let (h, gpu, costs) = setup(&sim);
        let g2 = gpu.clone();
        sim.spawn("app", move |proc| {
            let ctx = CudaContext::create(proc, &h, g2.clone(), costs, true).unwrap();
            assert!((proc.now().as_secs_f64() - 3.2).abs() < 1e-9);
            assert_eq!(g2.used_mem(), 303 * MB);
            ctx.release();
            assert_eq!(g2.used_mem(), 0);
        });
        sim.run();
    }

    #[test]
    fn fptrs_differ_across_contexts_but_are_stable_within_one() {
        let mut sim = Sim::new(1);
        let (h, gpu, costs) = setup(&sim);
        sim.spawn("app", move |proc| {
            let a = CudaContext::create(proc, &h, gpu.clone(), costs.clone(), false).unwrap();
            let b = CudaContext::create(proc, &h, gpu.clone(), costs, false).unwrap();
            let fa = a.fptr_for("saxpy");
            let fb = b.fptr_for("saxpy");
            assert_ne!(fa, fb, "function pointers are unique per context");
            assert_eq!(a.fptr_for("saxpy"), fa, "stable within a context");
            assert_eq!(a.kernel_name(fa).as_deref(), Some("saxpy"));
            assert_eq!(b.kernel_name(fa), None, "foreign fptr does not resolve");
        });
        sim.run();
    }

    #[test]
    fn cudnn_handle_costs_time_and_memory() {
        let mut sim = Sim::new(1);
        let (h, gpu, costs) = setup(&sim);
        let g2 = gpu.clone();
        sim.spawn("app", move |proc| {
            let ctx = CudaContext::create(proc, &h, g2.clone(), costs, false).unwrap();
            let before = proc.now();
            let hdl = ctx.create_cudnn_handle(proc, true).unwrap();
            assert!((proc.now().since(before).as_secs_f64() - 1.2).abs() < 1e-9);
            assert_eq!(g2.used_mem(), (303 + 382) * MB);
            ctx.destroy_cudnn_handle(hdl).unwrap();
            assert_eq!(g2.used_mem(), 303 * MB);
            assert!(ctx.destroy_cudnn_handle(hdl).is_err());
        });
        sim.run();
    }

    #[test]
    fn stream_executor_serializes_and_sync_waits() {
        let mut sim = Sim::new(1);
        let (h, gpu, costs) = setup(&sim);
        sim.spawn("app", move |proc| {
            let ctx = CudaContext::create(proc, &h, gpu, costs, false).unwrap();
            let registry =
                Arc::new(ModuleRegistry::new().with(crate::module::KernelDef::timed("k")));
            let va = Arc::new(Mutex::new(VaSpace::new()));
            let t0 = proc.now();
            for _ in 0..3 {
                ctx.submit(
                    proc,
                    StreamCmd::Exec {
                        name: "k".into(),
                        cfg: LaunchConfig::linear(1, 32),
                        args: KernelArgs::timed(0.5, 0),
                        va: va.clone(),
                        registry: registry.clone(),
                    },
                );
            }
            // submission is asynchronous
            assert_eq!(proc.now(), t0);
            ctx.sync(proc);
            let elapsed = proc.now().since(t0).as_secs_f64();
            assert!(
                (elapsed - 1.5).abs() < 1e-6,
                "3 × 0.5 s serialized: {elapsed}"
            );
        });
        sim.run();
    }

    #[test]
    fn sleeping_does_not_block_the_stream() {
        // Kernel runs while the host sleeps — classic async overlap.
        let mut sim = Sim::new(1);
        let (h, gpu, costs) = setup(&sim);
        sim.spawn("app", move |proc| {
            let ctx = CudaContext::create(proc, &h, gpu, costs, false).unwrap();
            let registry =
                Arc::new(ModuleRegistry::new().with(crate::module::KernelDef::timed("k")));
            let va = Arc::new(Mutex::new(VaSpace::new()));
            let t0 = proc.now();
            ctx.submit(
                proc,
                StreamCmd::Exec {
                    name: "k".into(),
                    cfg: LaunchConfig::linear(1, 32),
                    args: KernelArgs::timed(1.0, 0),
                    va,
                    registry,
                },
            );
            proc.sleep(Dur::from_secs(1)); // host work overlaps the kernel
            ctx.sync(proc);
            let elapsed = proc.now().since(t0).as_secs_f64();
            assert!(elapsed < 1.1, "kernel and host sleep overlap: {elapsed}");
        });
        sim.run();
    }
}
