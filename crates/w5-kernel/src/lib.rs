//! # w5-kernel — the simulated operating-system substrate
//!
//! The W5 paper assumes a DIFC operating system (Asbestos, HiStar, or Flume
//! on Linux) underneath the meta-application. This crate is that substrate,
//! scoped to one deterministic in-process "machine":
//!
//! * [`Kernel`] — the system-call surface: labeled [`process`]es, tag
//!   creation, safe label changes, capability grants, message-passing IPC
//!   with flow checks, and labeled spawn.
//! * [`resource`] — resource containers (paper §3.5): CPU / memory / disk /
//!   network budgets per process, enforced at the syscall boundary so a
//!   rogue application cannot degrade the cluster.
//! * [`sched`] — a deterministic round-robin scheduler driving cooperative
//!   tasks, used by the resource-allocation and covert-channel experiments.
//! * [`api`] — the [`Syscalls`] trait abstracting the syscall surface over
//!   both kernel implementations.
//! * [`reference`] — the pre-sharding single-lock kernel, kept verbatim as
//!   the baseline arm of `w5-sim`'s differential concurrency oracle.
//!
//! ## Concurrency
//!
//! [`Kernel`] stripes process state across power-of-two lock shards
//! (pid-hashed) so syscalls on different processes run in parallel;
//! cross-shard sends take both shard locks in ascending index order (the
//! kernel-wide deadlock-freedom rule). See the module docs in [`kernel`]
//! and DESIGN.md §14.
//!
//! ## Covert-channel hygiene
//!
//! A flow denial is itself a bit of information. Following Flume, the
//! kernel offers two send flavors: [`Kernel::send`] *silently drops*
//! messages whose delivery would violate flow rules (the sender learns
//! nothing), while [`Kernel::send_strict`] surfaces the denial and is only
//! exposed to trusted platform components. The same discipline appears in
//! `w5-store`, where unreadable rows are silently filtered.
//!
//! Nothing here uses wall-clock time or OS randomness: experiments are
//! bit-for-bit reproducible.

#![forbid(unsafe_code)]

pub mod api;
pub mod ids;
pub mod kernel;
pub mod message;
pub mod process;
pub mod reference;
pub mod resource;
pub mod sched;

pub use api::Syscalls;
pub use ids::ProcessId;
pub use kernel::{Delivery, Kernel, KernelError, KernelResult, KernelStats, SpawnSpec, DEFAULT_SHARDS};
pub use reference::ReferenceKernel;
pub use message::Message;
pub use process::{ProcessInfo, ProcessState};
pub use resource::{ResourceContainer, ResourceKind, ResourceLimits, ResourceUsage};
pub use resource::QuotaExceeded;
pub use sched::{Scheduler, SchedulerReport, Step, Task};
