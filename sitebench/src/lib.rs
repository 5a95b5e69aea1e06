//! The site benchmark: closed-loop workloads against the assembled
//! [`linkedin_data_infra::DataPlatform`], with end-to-end metrics,
//! correctness checks, and a traced per-layer breakdown. See `README.md`
//! in this package for the method and the layer → end-to-end map.

#![forbid(unsafe_code)]

pub mod site;
pub mod stats;
pub mod trace;
