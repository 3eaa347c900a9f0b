//! # dsmpm2-workloads — the applications of the DSM-PM2 evaluation
//!
//! * [`tsp`] — Travelling Salesman by branch and bound (the paper's Figure 4
//!   workload): one thread per node, a lock-protected shared bound.
//! * [`map_coloring`] — minimal-cost 4-colouring of the 29 eastern-most US
//!   states, written against the Hyperion object layer (Figure 5).
//! * [`jacobi`] — a barrier-synchronised 2-D stencil, representing the
//!   regular sharing patterns of the SPLASH-2 programs the paper lists as
//!   future evaluation targets.
//! * [`micro`] — the single-fault measurements behind Tables 3 and 4 and a
//!   few small shared-memory kernels.
//! * [`false_sharing`] — per-node counters packed into shared pages: the
//!   coherence-granularity ablation's workload.
//!
//! The paper closes by announcing "a more thorough performance evaluation
//! using the SPLASH-2 benchmarks"; the following kernels reproduce the
//! sharing patterns of that suite so the protocols can be compared on them:
//!
//! * [`matmul`] — blocked dense matrix multiply (read-mostly, replicated
//!   operand);
//! * [`sor`] — red-black successive over-relaxation (halo sharing, barriers);
//! * [`lu`] — dense LU factorisation without pivoting (broadcast of the pivot
//!   row, barrier per step);
//! * [`radix`] — parallel radix sort (histogram / prefix-sum / scatter, heavy
//!   write sharing).
//!
//! Every workload is deterministic for a given seed and returns both its
//! application-level result (checked against sequential oracles in the test
//! suites) and the virtual completion time and DSM statistics used by the
//! benchmark harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod false_sharing;
pub mod jacobi;
pub mod lu;
pub mod map_coloring;
pub mod matmul;
pub mod micro;
pub mod radix;
pub mod sor;
pub mod tsp;

pub use false_sharing::{run_false_sharing, FalseSharingConfig, FalseSharingResult};
pub use jacobi::{run_jacobi, JacobiConfig, JacobiResult};
pub use lu::{run_lu, LuConfig, LuResult};
pub use map_coloring::{run_map_coloring, ColoringConfig, ColoringResult};
pub use matmul::{run_matmul, MatmulConfig, MatmulResult};
pub use micro::{measure_read_fault, run_shared_counter, FaultBreakdown, FaultPolicy};
pub use radix::{run_radix, RadixConfig, RadixResult};
pub use sor::{run_sor, SorConfig, SorResult};
pub use tsp::{run_tsp, TspConfig, TspInstance, TspResult};
