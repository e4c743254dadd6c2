//! A benchmark-owned [`Workload`] wrapper that decorates the
//! `&mut dyn CudaApi` its function body receives, opening one span per
//! API call. Under DGSF the API is the guest library (`remoting.guest.*`
//! spans); in the native arms it is the CUDA model itself (`cuda.*`).
//!
//! The decorator forwards every call unchanged, so the virtual-time output
//! of a decorated run must equal the undecorated run's; the traced run
//! checks exactly that through the digest.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use dgsf::cuda::{
    ApiStats, CublasHandle, CudaApi, CudaResult, CudnnDescriptor, CudnnHandle, DescriptorKind,
    DevPtr, EventHandle, HostBuf, KernelArgs, LaunchConfig, LibOp, ModuleRegistry, PtrAttributes,
    StreamHandle,
};
use dgsf::gpu::DeviceProps;
use dgsf::serverless::{PhaseRecorder, Workload};
use dgsf::sim::ProcCtx;

use crate::spans;

/// API call classes, in report order.
pub const CLASSES: [&str; 6] = ["runtime", "memory", "copy", "launch", "sync", "library"];

/// Which layer a decorated API belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The DGSF guest library (`remoting.guest`).
    Guest,
    /// The native CUDA model (`cuda`).
    Cuda,
}

impl Layer {
    /// Span names for each class, in [`CLASSES`] order.
    pub fn span_names(self) -> [&'static str; 6] {
        match self {
            Layer::Guest => [
                "remoting.guest.runtime",
                "remoting.guest.memory",
                "remoting.guest.copy",
                "remoting.guest.launch",
                "remoting.guest.sync",
                "remoting.guest.library",
            ],
            Layer::Cuda => [
                "cuda.runtime",
                "cuda.memory",
                "cuda.copy",
                "cuda.launch",
                "cuda.sync",
                "cuda.library",
            ],
        }
    }
}

/// Parent span for decorated calls: the testbed runner call in flight on
/// the benchmark thread (0 when none).
static RUNNER_SPAN: AtomicU32 = AtomicU32::new(0);
/// Request ids for decorated function bodies.
static NEXT_REQ: AtomicU64 = AtomicU64::new(1);

/// Run one testbed runner call inside a `core.testbed.run` span; decorated
/// API calls made meanwhile become its children.
pub fn runner<R>(f: impl FnOnce() -> R) -> R {
    let span = spans::open("core.testbed.run", 0, 0);
    RUNNER_SPAN.store(span.as_ref().map_or(0, |s| s.id()), Ordering::SeqCst);
    let r = f();
    RUNNER_SPAN.store(0, Ordering::SeqCst);
    if let Some(s) = span {
        s.close();
    }
    r
}

/// A workload whose API calls are timed.
pub struct Decorated {
    inner: Arc<dyn Workload>,
    layer: Layer,
}

impl Decorated {
    /// Wrap `inner`, attributing its calls to `layer`.
    pub fn wrap(inner: Arc<dyn Workload>, layer: Layer) -> Arc<dyn Workload> {
        Arc::new(Decorated { inner, layer })
    }
}

impl Workload for Decorated {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn tenant(&self) -> &str {
        self.inner.tenant()
    }
    fn registry(&self) -> Arc<ModuleRegistry> {
        self.inner.registry()
    }
    fn required_gpu_mem(&self) -> u64 {
        self.inner.required_gpu_mem()
    }
    fn download_bytes(&self) -> u64 {
        self.inner.download_bytes()
    }
    fn run(&self, p: &ProcCtx, api: &mut dyn CudaApi, rec: &mut PhaseRecorder) -> CudaResult<()> {
        let mut timed = TimedApi {
            inner: api,
            names: self.layer.span_names(),
            parent: RUNNER_SPAN.load(Ordering::SeqCst),
            req: NEXT_REQ.fetch_add(1, Ordering::Relaxed),
        };
        self.inner.run(p, &mut timed, rec)
    }
    fn cpu_secs(&self) -> f64 {
        self.inner.cpu_secs()
    }
}

struct TimedApi<'a> {
    inner: &'a mut dyn CudaApi,
    names: [&'static str; 6],
    parent: u32,
    req: u64,
}

const RUNTIME: usize = 0;
const MEMORY: usize = 1;
const COPY: usize = 2;
const LAUNCH: usize = 3;
const SYNC: usize = 4;
const LIBRARY: usize = 5;

impl TimedApi<'_> {
    fn time<R>(&mut self, class: usize, f: impl FnOnce(&mut dyn CudaApi) -> R) -> R {
        let span = spans::open(self.names[class], self.parent, self.req);
        let r = f(&mut *self.inner);
        if let Some(s) = span {
            s.close();
        }
        r
    }
}

impl CudaApi for TimedApi<'_> {
    fn runtime_init(&mut self, p: &ProcCtx) -> CudaResult<()> {
        self.time(RUNTIME, |a| a.runtime_init(p))
    }
    fn register_module(&mut self, p: &ProcCtx, registry: Arc<ModuleRegistry>) -> CudaResult<()> {
        self.time(RUNTIME, |a| a.register_module(p, registry))
    }
    fn get_device_count(&mut self, p: &ProcCtx) -> CudaResult<u32> {
        self.time(RUNTIME, |a| a.get_device_count(p))
    }
    fn get_device_properties(&mut self, p: &ProcCtx, dev: u32) -> CudaResult<DeviceProps> {
        self.time(RUNTIME, |a| a.get_device_properties(p, dev))
    }
    fn set_device(&mut self, p: &ProcCtx, dev: u32) -> CudaResult<()> {
        self.time(RUNTIME, |a| a.set_device(p, dev))
    }
    fn malloc(&mut self, p: &ProcCtx, bytes: u64) -> CudaResult<DevPtr> {
        self.time(MEMORY, |a| a.malloc(p, bytes))
    }
    fn free(&mut self, p: &ProcCtx, ptr: DevPtr) -> CudaResult<()> {
        self.time(MEMORY, |a| a.free(p, ptr))
    }
    fn memset(&mut self, p: &ProcCtx, ptr: DevPtr, value: u8, bytes: u64) -> CudaResult<()> {
        self.time(MEMORY, |a| a.memset(p, ptr, value, bytes))
    }
    fn memcpy_h2d(&mut self, p: &ProcCtx, dst: DevPtr, src: HostBuf) -> CudaResult<()> {
        self.time(COPY, |a| a.memcpy_h2d(p, dst, src))
    }
    fn memcpy_d2h(
        &mut self,
        p: &ProcCtx,
        src: DevPtr,
        bytes: u64,
        want_data: bool,
    ) -> CudaResult<HostBuf> {
        self.time(COPY, |a| a.memcpy_d2h(p, src, bytes, want_data))
    }
    fn launch_kernel(
        &mut self,
        p: &ProcCtx,
        name: &str,
        cfg: LaunchConfig,
        args: KernelArgs,
    ) -> CudaResult<()> {
        self.time(LAUNCH, |a| a.launch_kernel(p, name, cfg, args))
    }
    fn launch_kernel_on(
        &mut self,
        p: &ProcCtx,
        stream: StreamHandle,
        name: &str,
        cfg: LaunchConfig,
        args: KernelArgs,
    ) -> CudaResult<()> {
        self.time(LAUNCH, |a| a.launch_kernel_on(p, stream, name, cfg, args))
    }
    fn device_synchronize(&mut self, p: &ProcCtx) -> CudaResult<()> {
        self.time(SYNC, |a| a.device_synchronize(p))
    }
    fn stream_create(&mut self, p: &ProcCtx) -> CudaResult<StreamHandle> {
        self.time(RUNTIME, |a| a.stream_create(p))
    }
    fn stream_destroy(&mut self, p: &ProcCtx, s: StreamHandle) -> CudaResult<()> {
        self.time(RUNTIME, |a| a.stream_destroy(p, s))
    }
    fn stream_synchronize(&mut self, p: &ProcCtx, s: StreamHandle) -> CudaResult<()> {
        self.time(SYNC, |a| a.stream_synchronize(p, s))
    }
    fn event_create(&mut self, p: &ProcCtx) -> CudaResult<EventHandle> {
        self.time(RUNTIME, |a| a.event_create(p))
    }
    fn event_record(&mut self, p: &ProcCtx, e: EventHandle) -> CudaResult<()> {
        self.time(RUNTIME, |a| a.event_record(p, e))
    }
    fn event_synchronize(&mut self, p: &ProcCtx, e: EventHandle) -> CudaResult<()> {
        self.time(SYNC, |a| a.event_synchronize(p, e))
    }
    fn pointer_get_attributes(&mut self, p: &ProcCtx, ptr: DevPtr) -> CudaResult<PtrAttributes> {
        self.time(RUNTIME, |a| a.pointer_get_attributes(p, ptr))
    }
    fn publish_buffer(&mut self, p: &ProcCtx, key: u64, ptr: DevPtr) -> CudaResult<()> {
        self.time(MEMORY, |a| a.publish_buffer(p, key, ptr))
    }
    fn adopt_buffer(&mut self, p: &ProcCtx, key: u64) -> CudaResult<DevPtr> {
        self.time(MEMORY, |a| a.adopt_buffer(p, key))
    }
    fn malloc_host(&mut self, p: &ProcCtx, bytes: u64) -> CudaResult<()> {
        self.time(MEMORY, |a| a.malloc_host(p, bytes))
    }
    fn cudnn_create(&mut self, p: &ProcCtx) -> CudaResult<CudnnHandle> {
        self.time(LIBRARY, |a| a.cudnn_create(p))
    }
    fn cudnn_destroy(&mut self, p: &ProcCtx, h: CudnnHandle) -> CudaResult<()> {
        self.time(LIBRARY, |a| a.cudnn_destroy(p, h))
    }
    fn cudnn_create_descriptors(
        &mut self,
        p: &ProcCtx,
        kind: DescriptorKind,
        n: u64,
    ) -> CudaResult<Vec<CudnnDescriptor>> {
        self.time(LIBRARY, |a| a.cudnn_create_descriptors(p, kind, n))
    }
    fn cudnn_set_descriptors(&mut self, p: &ProcCtx, descs: &[CudnnDescriptor]) -> CudaResult<()> {
        self.time(LIBRARY, |a| a.cudnn_set_descriptors(p, descs))
    }
    fn cudnn_destroy_descriptors(
        &mut self,
        p: &ProcCtx,
        descs: Vec<CudnnDescriptor>,
    ) -> CudaResult<()> {
        self.time(LIBRARY, |a| a.cudnn_destroy_descriptors(p, descs))
    }
    fn cudnn_op(&mut self, p: &ProcCtx, h: CudnnHandle, op: LibOp) -> CudaResult<()> {
        self.time(LIBRARY, |a| a.cudnn_op(p, h, op))
    }
    fn cublas_create(&mut self, p: &ProcCtx) -> CudaResult<CublasHandle> {
        self.time(LIBRARY, |a| a.cublas_create(p))
    }
    fn cublas_destroy(&mut self, p: &ProcCtx, h: CublasHandle) -> CudaResult<()> {
        self.time(LIBRARY, |a| a.cublas_destroy(p, h))
    }
    fn cublas_op(&mut self, p: &ProcCtx, h: CublasHandle, op: LibOp) -> CudaResult<()> {
        self.time(LIBRARY, |a| a.cublas_op(p, h, op))
    }
    fn stats(&self) -> ApiStats {
        self.inner.stats()
    }
}
