//! Host-speed calibration. The build host's speed drifts by up to 2x over
//! minutes (other tenants share its caches and cores), which moves every
//! wall time with it. A fixed kernel that shares no code with the
//! simulator — a binary-heap event churn over a 32 MiB table, the access
//! pattern of a discrete-event engine — is timed next to each run, and
//! run times are rescaled to the speed at which the kernel takes
//! [`REFERENCE_S`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// The kernel's wall time on the reference host (a quiet 2-vCPU 2.1 GHz
/// Xeon VM): rescaled times are seconds on that host.
pub const REFERENCE_S: f64 = 0.075;
/// Table slots (8 bytes each: 32 MiB, beyond the per-core caches).
const SLOTS: usize = 1 << 22;
/// Events in flight in the heap.
const IN_FLIGHT: u32 = 1 << 14;
/// Heap pops per kernel run.
const OPS: usize = 400_000;

/// The kernel's resident tables, one per concurrent copy, allocated once.
pub struct Calibration {
    tables: Vec<Vec<u64>>,
}

impl Calibration {
    /// Allocates and touches one table per copy of the kernel that
    /// [`Calibration::factor`] runs at once: one per worker thread of the
    /// timed work, since a busy host slows parallel work the most.
    pub fn new(threads: usize) -> Self {
        let tables = (0..threads.max(1))
            .map(|_| {
                (0..SLOTS as u64)
                    .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .collect()
            })
            .collect();
        Calibration { tables }
    }

    /// Runs the kernel copies concurrently; returns the factor that
    /// rescales a wall time measured now to reference-host seconds.
    pub fn factor(&mut self) -> f64 {
        let t = Instant::now();
        std::thread::scope(|s| {
            for table in &mut self.tables {
                s.spawn(|| kernel(table));
            }
        });
        REFERENCE_S / t.elapsed().as_secs_f64()
    }
}

/// One kernel run over `table`.
fn kernel(table: &mut [u64]) {
    let mut heap = BinaryHeap::with_capacity(IN_FLIGHT as usize);
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for id in 0..IN_FLIGHT {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse((x >> 20, id)));
    }
    let mask = SLOTS as u64 - 1;
    let mut acc = 0u64;
    for _ in 0..OPS {
        let Some(Reverse((due, id))) = heap.pop() else {
            break;
        };
        let slot = ((due ^ u64::from(id)).wrapping_mul(0xBF58_476D_1CE4_E5B9) & mask) as usize;
        let v = table[slot];
        table[slot] = v.rotate_left(7) ^ due;
        acc = acc.wrapping_add(v);
        heap.push(Reverse((due + (v & 0xFFFF) + 1, id)));
    }
    std::hint::black_box(acc);
}
