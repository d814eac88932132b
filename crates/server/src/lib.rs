//! # pinum-server: the multi-tenant advisor daemon
//!
//! Owns N independent [`pinum_online::OnlineAdvisor`] sessions ("tenants")
//! behind the [`pinum_protocol`] wire format:
//!
//! - [`daemon`] — sharded tenant ownership, the blocking TCP accept loop,
//!   and request dispatch. Each tenant is pinned to one shard worker, so
//!   its mutations are applied in strict arrival order and every reply is
//!   bit-identical to a single-tenant in-process run of the same stream.
//! - [`budget`] — the global re-advise budget: at most K re-advises run
//!   concurrently, with an aging queue so no tenant starves.
//! - [`convert`] (re-exported from `pinum_persist`) — validated wire ↔
//!   domain conversions; malformed payloads become typed error replies,
//!   never daemon panics.
//!
//! The determinism contract is the whole point: moving a tenant behind
//! the daemon changes *where* and *when* its advisor runs, never *what*
//! it computes. The `multi_tenant` acceptance test (in `pinum-bench`)
//! gates this end to end over loopback TCP.

pub mod budget;
pub mod daemon;

pub use budget::{BudgetPermit, ReadviseBudget, TenantBudgetStats};
pub use daemon::{shard_of, Server, ServerConfig, ServerHandle};
pub use pinum_persist::convert::{self, ConvertError};
