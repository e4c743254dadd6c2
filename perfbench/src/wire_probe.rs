//! Direct probes of the wire codec on one representative request per
//! class: `encode`, `encode_sized`, `decode` and `wire_size`, each timed
//! in blocks so the clock's own cost stays small against the operation.

use std::hint::black_box;
use std::time::Instant;

use dgsf::remoting::wire::{Request, WireArgs, WireBuf, WireCfg};

use crate::stats::Dist;

/// Operations per timed block.
const BLOCK: u32 = 64;
/// Timed blocks per (class, operation): the count behind each median and
/// tail (the tail rule gives p90 for 200).
pub const BLOCKS: u32 = 200;

/// Request classes, in report order.
pub const CLASSES: [&str; 5] = ["launch", "sync", "h2d_64k", "h2d_logical", "batch"];

/// Codec operations, in report order.
pub const OPS: [&str; 4] = ["encode_ns", "encode_sized_ns", "decode_ns", "wire_size_ns"];

fn launch() -> Request {
    Request::LaunchConfigured {
        fptr: 0xdead_beef,
        stream: 0,
        cfg: WireCfg {
            grid: (128, 1, 1),
            block: (256, 1, 1),
        },
        args: WireArgs {
            ptrs: vec![1, 2, 3],
            scalars: vec![42, 7],
            bytes: 1 << 20,
            work_hint: Some(0.001),
        },
    }
}

/// The representative request of `class`.
pub fn request(class: &str) -> Request {
    match class {
        "launch" => launch(),
        "sync" => Request::Sync,
        "h2d_64k" => Request::MemcpyH2D {
            dst: 0x7f00_0000,
            data: WireBuf::from(vec![0xa5u8; 64 << 10]),
        },
        "h2d_logical" => Request::MemcpyH2D {
            dst: 0x7f00_0000,
            data: WireBuf::Logical(64 << 20),
        },
        "batch" => Request::Batch((0..16).map(|_| launch()).collect()),
        other => unreachable!("unknown wire class {other}"),
    }
}

/// One class's probe: per-operation ns (median and tail over the timed
/// blocks) for each of [`OPS`], and the request's wire size in bytes.
pub struct ClassProbe {
    /// (median, tail) ns per operation, in [`OPS`] order.
    pub ops: [(f64, f64); 4],
    /// Bytes on the wire (logical payloads at full size).
    pub bytes: u64,
}

fn per_op_ns(mut op: impl FnMut()) -> (f64, f64) {
    let blocks = (0..BLOCKS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..BLOCK {
                op();
            }
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    let d = Dist::of(blocks);
    (d.p50 as f64 / BLOCK as f64, d.tail as f64 / BLOCK as f64)
}

/// Probe every class.
pub fn probe() -> Vec<ClassProbe> {
    CLASSES
        .iter()
        .map(|class| {
            let req = request(class);
            let frame = req.encode();
            let decoded = Request::decode(&mut frame.clone()).expect("probe frames decode");
            assert_eq!(decoded, req, "{class}: decode(encode(r)) == r");
            ClassProbe {
                ops: [
                    per_op_ns(|| {
                        black_box(black_box(&req).encode());
                    }),
                    per_op_ns(|| {
                        black_box(black_box(&req).encode_sized());
                    }),
                    per_op_ns(|| {
                        let mut f = black_box(&frame).clone();
                        black_box(Request::decode(&mut f).expect("probe frames decode"));
                    }),
                    per_op_ns(|| {
                        black_box(black_box(&req).wire_size());
                    }),
                ],
                bytes: req.wire_size(),
            }
        })
        .collect()
}
