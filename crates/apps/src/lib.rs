//! # apps — the paper's irregular applications, in six builds each
//!
//! * **moldyn** (§5.1): a CHARMM-like molecular dynamics kernel. An
//!   interaction list of all molecule pairs within a cutoff radius is the
//!   indirection array; it is rebuilt periodically as molecules move.
//! * **nbf** (§5.2): the GROMOS non-bonded-force kernel. Concatenated
//!   per-molecule partner lists form a *static* indirection array.
//!
//! A third workload, **umesh** (unstructured-mesh edge relaxation),
//! fills the remaining corner of the design space: a static *pair*
//! list.
//!
//! Each application runs as every [`Variant`]:
//!
//! 1. a **sequential** reference ([`moldyn::run_seq`], [`nbf::run_seq`]),
//! 2. **Tmk base** — plain demand-paged DSM,
//! 3. **Tmk optimized** — compiler-inserted `Validate` (the descriptors
//!    come from `fcc` compiling the paper's Figure-1 sources),
//! 4. **Tmk adaptive** — the runtime-adaptive engine (`adapt` crate):
//!    no compiler hints, the protocol learns the pattern,
//! 5. **Tmk push** — the same engine in update-push mode,
//! 6. **CHAOS** — hand-coded inspector/executor.
//!
//! The four Tmk builds share one runner per app ([`moldyn::run_tmk`],
//! [`nbf::run_tmk`], [`umesh::run_tmk`]), selected by the `Variant`.
//! All six compute identical physics from identical seeded workloads, so
//! results cross-check to floating-point reordering tolerance
//! ([`run_variants`]), while simulated time, messages, and data
//! reproduce Tables 1 and 2.
//!
//! ## Modeled compute costs
//!
//! Real arithmetic runs at native speed; *simulated* time is charged per
//! unit of work ([`work`]), calibrated so the sequential programs land on
//! the paper's timings (moldyn ≈ 267 s at one rebuild; nbf 64×1024 ≈
//! 78 s — see `work.rs`).

pub mod harness;
pub mod moldyn;
pub mod nbf;
pub mod phases;
pub mod umesh;
pub mod report;
pub mod work;
pub mod workload;

pub use report::RunReport;
pub use workload::{run_matrix, run_variants, CheckMode, Variant, Workload, WorkloadMatrix};
